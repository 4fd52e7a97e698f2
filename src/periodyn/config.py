"""Config documents: JSON text that maps 1:1 onto the network model.

Expressions are term lists (``{"const": 2.51}`` or ``{"amp": 0.5, "fn":
"sin2", "k": 1}`` where ``sin2(k)`` denotes sin^2(k*pi*t)); a plain number is
a constant.  Unknown fields are rejected, and every error names the JSON
path it was found at.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, fields

from .expressions import PeriodicExpr, Term, TERM_KINDS, const
from .kernels import DENSITIES, Atom, DelayKernel, DistributedPart
from .model import ACTIVATIONS, Activation, NetworkModel, validate


class ConfigError(ValueError):
    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"expected an object, got {type(obj).__name__}", where)
    return obj


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)}", where)


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"expected a number, got {type(obj).__name__}", where)
    value = float(obj)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value}", where)
    return value


def _parse_term(obj, where: str) -> Term:
    obj = _require_mapping(obj, where)
    if "const" in obj:
        _reject_unknown(obj, {"const"}, where)
        return Term("const", _number(obj["const"], f"{where}.const"))
    _reject_unknown(obj, {"amp", "fn", "k"}, where)
    for key in ("amp", "fn", "k"):
        if key not in obj:
            raise ConfigError(f"term needs '{key}'", where)
    fn = obj["fn"]
    if fn not in TERM_KINDS or fn == "const":
        raise ConfigError(f"unknown term function {fn!r}", f"{where}.fn")
    k = obj["k"]
    if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
        raise ConfigError("term frequency k must be a positive integer", f"{where}.k")
    return Term(fn, _number(obj["amp"], f"{where}.amp"), k)


def _parse_expr(obj, where: str) -> PeriodicExpr:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return const(_number(obj, where))
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise ConfigError("expression must be a number, a term or a list of terms", where)
    return PeriodicExpr(tuple(_parse_term(item, f"{where}[{idx}]")
                              for idx, item in enumerate(obj)))


def _construct(make, where: str, *args):
    """``make(*args)``, its ValueError reported at ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc), where) from exc


def _parse_density(obj, where: str) -> DistributedPart:
    obj = _require_mapping(obj, where)
    if "shape" not in obj:
        raise ConfigError("density needs 'shape'", where)
    shape = obj["shape"]
    if not (isinstance(shape, str) and shape in DENSITIES):
        raise ConfigError(f"unknown density shape {shape!r}", f"{where}.shape")
    cls = DENSITIES[shape]
    _reject_unknown(obj, {"shape", "weight", *(f.name for f in fields(cls))}, where)
    args = []
    for f in fields(cls):  # a field declared as a tuple takes a list of numbers
        at, value = f"{where}.{f.name}", obj.get(f.name, 0.0)
        if not str(f.type).startswith("tuple"):
            args.append(_number(value, at))
        elif isinstance(value, list):
            args.append(tuple(_number(x, f"{at}[{k}]") for k, x in enumerate(value)))
        else:
            raise ConfigError("expected a list of numbers", at)
    dens = _construct(cls, where, *args)
    if "weight" not in obj:
        raise ConfigError("density needs 'weight'", where)
    return DistributedPart(shape=dens, weight=_parse_expr(obj["weight"], f"{where}.weight"))


def _parse_kernel(obj, where: str) -> DelayKernel:
    if obj is None:
        return DelayKernel()
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, {"atoms", "density"}, where)
    atoms = []
    for idx, spec in enumerate(obj.get("atoms", []) or []):
        at = f"{where}.atoms[{idx}]"
        spec = _require_mapping(spec, at)
        _reject_unknown(spec, {"s", "weight"}, at)
        if "s" not in spec or "weight" not in spec:
            raise ConfigError("atom needs 's' and 'weight'", at)
        atoms.append(_construct(Atom, at, _number(spec["s"], f"{at}.s"),
                                _parse_expr(spec["weight"], f"{at}.weight")))
    density = obj.get("density")
    part = _parse_density(density, f"{where}.density") if density is not None else None
    return _construct(DelayKernel, where, tuple(atoms), part)


def _parse_activation(obj, where: str) -> Activation:
    kind = obj if isinstance(obj, str) else _require_mapping(obj, where).get("kind")
    if isinstance(kind, str) and kind in ACTIVATIONS:
        if isinstance(obj, dict):
            _reject_unknown(obj, {"kind"}, where)
        return Activation(kind, ACTIVATIONS[kind][1])
    if kind == "satlin" and isinstance(obj, dict):
        _reject_unknown(obj, {"kind", "slope", "cap"}, where)
        return _construct(Activation.saturating, where,
                          _number(obj.get("slope", 1.0), f"{where}.slope"),
                          _number(obj.get("cap", 1.0), f"{where}.cap"))
    raise ConfigError(f"unknown activation {kind!r}", where)


def _matrix(obj, n: int, name: str, parse_one) -> tuple[tuple, ...]:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"expected {n} rows", name)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"expected {n} entries", f"{name}[{i}]")
        rows.append(tuple(parse_one(entry, f"{name}[{i}][{j}]")
                          for j, entry in enumerate(row)))
    return tuple(rows)


def _vector(obj, n: int, name: str, parse_one) -> tuple:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"expected {n} entries", name)
    return tuple(parse_one(entry, f"{name}[{i}]") for i, entry in enumerate(obj))


def parse_config(doc, source: str = "<config>") -> NetworkModel:
    """Parse a config document (dict or JSON text) into a validated-shape model."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}", source) from exc
    doc = _require_mapping(doc, source)
    _reject_unknown(doc, {"meta", "d", "a", "kernels", "tau", "inputs", "activations"}, source)
    meta = _require_mapping(doc.get("meta"), f"{source}.meta")
    _reject_unknown(meta, {"n", "omega"}, f"{source}.meta")
    if "n" not in meta or "omega" not in meta:
        raise ConfigError("meta needs 'n' and 'omega'", f"{source}.meta")
    n = meta["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("n must be a positive integer", f"{source}.meta.n")
    omega = _number(meta["omega"], f"{source}.meta.omega")
    if omega <= 0.0:
        raise ConfigError("omega must be positive", f"{source}.meta.omega")
    acts = _require_mapping(doc.get("activations"), f"{source}.activations")
    _reject_unknown(acts, {"g", "f"}, f"{source}.activations")
    return NetworkModel(
        n=n, omega=omega,
        d=_vector(doc.get("d"), n, f"{source}.d", _parse_expr),
        a=_matrix(doc.get("a"), n, f"{source}.a", _parse_expr),
        kernels=_matrix(doc.get("kernels"), n, f"{source}.kernels", _parse_kernel),
        tau=_matrix(doc.get("tau"), n, f"{source}.tau", _parse_expr),
        inputs=_vector(doc.get("inputs"), n, f"{source}.inputs", _parse_expr),
        g=_vector(acts.get("g"), n, f"{source}.activations.g", _parse_activation),
        f=_vector(acts.get("f"), n, f"{source}.activations.f", _parse_activation),
    )


def _expr_to_config(expr: PeriodicExpr) -> list:
    out = []
    for term in expr.terms:
        if term.kind == "const":
            out.append({"const": term.c})
        else:
            out.append({"amp": term.c, "fn": term.kind, "k": term.k})
    return out


def _kernel_to_config(kernel: DelayKernel):
    if kernel.is_zero:
        return None
    out: dict = {}
    if kernel.atoms:
        out["atoms"] = [{"s": atom.s, "weight": _expr_to_config(atom.weight)}
                        for atom in kernel.atoms]
    if kernel.density is not None:
        shape = kernel.density.shape
        out["density"] = {"shape": next(k for k, cls in DENSITIES.items() if type(shape) is cls),
                          **{k: list(v) if isinstance(v, tuple) else v
                             for k, v in asdict(shape).items()},
                          "weight": _expr_to_config(kernel.density.weight)}
    return out


def _activation_to_config(act: Activation):
    if act.kind == "satlin":
        return {"kind": "satlin", "slope": act.lipschitz, "cap": act.cap}
    return act.kind


def model_to_config(model: NetworkModel) -> dict:
    """Canonical config document for a model (term-list form everywhere)."""
    return {
        "meta": {"n": model.n, "omega": model.omega},
        "d": [_expr_to_config(e) for e in model.d],
        "a": [[_expr_to_config(e) for e in row] for row in model.a],
        "kernels": [[_kernel_to_config(k) for k in row] for row in model.kernels],
        "tau": [[_expr_to_config(e) for e in row] for row in model.tau],
        "inputs": [_expr_to_config(e) for e in model.inputs],
        "activations": {"g": [_activation_to_config(a) for a in model.g],
                        "f": [_activation_to_config(a) for a in model.f]},
    }


def serialize_config(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def config_hash(model: NetworkModel) -> str:
    """SHA-256 of the canonical document's compact JSON (no indent: the C encoder runs)."""
    return hashlib.sha256(json.dumps(model_to_config(model)).encode()).hexdigest()


def builtin_config_path() -> str:
    return os.path.join(os.path.dirname(__file__), "configs", "builtin_example.json")


def load_model(path: str) -> NetworkModel:
    """Read, parse and validate a config file; every failure is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc), path) from exc
    model = parse_config(text, source=path)
    report = validate(model)
    if not report.ok:
        raise ConfigError("model validation failed: " + "; ".join(report.violations), path)
    return model
