"""Config documents: JSON text that maps 1:1 onto the network model.

Expressions are term lists (``{"const": 2.51}`` or ``{"amp": 0.5, "fn":
"sin2", "k": 1}`` where ``sin2(k)`` denotes sin^2(k*pi*t)); a plain number is
a constant.  Unknown fields are rejected, and every error names the JSON
path it was found at.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields

from .expressions import PeriodicExpr, Term, TERM_KINDS, const
from .kernels import DENSITIES, Atom, DelayKernel, DistributedPart
from .model import ACTIVATIONS, Activation, NetworkModel, validate

# the interpreter's built-in SHA-256, as random.py takes its SHA-512: hashlib loads
# OpenSSL's libcrypto, which only compare needs (numpy.random imports hashlib)
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class ConfigError(ValueError):
    def __init__(self, message: str, where: str = ""):
        self.message, self.where = message, where
        super().__init__(f"{where}: {message}" if where else message)


def _at(where: str, parse, *args):
    """``parse(*args)``, a ConfigError in it put under ``where``: a parser reports paths
    relative to what it reads, so a path is formatted only on the way out of an error."""
    try:
        return parse(*args)
    except ConfigError as exc:
        raise ConfigError(exc.message, where + exc.where) from exc.__cause__


def _each(parse_one, items) -> tuple:
    """``parse_one`` of every item, a ConfigError put under the item's index."""
    out = []
    try:
        for item in items:
            out.append(parse_one(item))
    except ConfigError as exc:
        raise ConfigError(exc.message, f"[{len(out)}]{exc.where}") from exc.__cause__
    return tuple(out)


def _require_mapping(obj, where: str = "") -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"expected an object, got {type(obj).__name__}", where)
    return obj


def _reject_unknown(obj: dict, allowed: set[str], where: str = "") -> None:
    if not obj.keys() <= allowed:
        raise ConfigError(f"unknown field(s) {sorted(set(obj) - allowed)}", where)


def _number(obj, where: str = "") -> float:
    if type(obj) is float and math.isfinite(obj):
        return obj
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"expected a number, got {type(obj).__name__}", where)
    try:
        value = float(obj)
    except OverflowError:  # an int literal with more than about 308 digits
        raise ConfigError("expected a finite number, got an integer past the float range",
                          where) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value}", where)
    return value


_TERM_KEYS = {"amp", "fn", "k"}


def _parse_term(obj) -> Term:
    obj = _require_mapping(obj)
    if "const" in obj:
        _reject_unknown(obj, {"const"})
        return Term("const", _number(obj["const"], ".const"))
    if obj.keys() != _TERM_KEYS:
        _reject_unknown(obj, _TERM_KEYS)
        missing = next(key for key in ("amp", "fn", "k") if key not in obj)
        raise ConfigError(f"term needs '{missing}'")
    fn, k = obj["fn"], obj["k"]
    if fn not in TERM_KINDS or fn == "const":
        raise ConfigError(f"unknown term function {fn!r}", ".fn")
    # an int but not a bool; JSON gives exactly int, so the type test decides at once
    if type(k) is not int and (isinstance(k, bool) or not isinstance(k, int)) or k <= 0:
        raise ConfigError("term frequency k must be a positive integer", ".k")
    _number(k, ".k")  # the basis takes k * pi as a float
    return Term(fn, _number(obj["amp"], ".amp"), k)


def _parse_expr(obj) -> PeriodicExpr:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return const(_number(obj))
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise ConfigError("expression must be a number, a term or a list of terms")
    return PeriodicExpr(_each(_parse_term, obj))


def _construct(make, *args):
    """``make(*args)``, its ValueError a ConfigError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_density(obj) -> DistributedPart:
    obj = _require_mapping(obj)
    if "shape" not in obj:
        raise ConfigError("density needs 'shape'")
    shape = obj["shape"]
    if not (isinstance(shape, str) and shape in DENSITIES):
        raise ConfigError(f"unknown density shape {shape!r}", ".shape")
    cls = DENSITIES[shape]
    _reject_unknown(obj, {"shape", "weight", *(f.name for f in fields(cls))})
    args = []
    for f in fields(cls):  # a field declared as a tuple takes a list of numbers
        at, value = f".{f.name}", obj.get(f.name, 0.0)
        if not str(f.type).startswith("tuple"):
            args.append(_number(value, at))
        elif isinstance(value, list):
            args.append(_at(at, _each, _number, value))
        else:
            raise ConfigError("expected a list of numbers", at)
    dens = _construct(cls, *args)
    if "weight" not in obj:
        raise ConfigError("density needs 'weight'")
    return DistributedPart(shape=dens, weight=_at(".weight", _parse_expr, obj["weight"]))


def _parse_atom(obj) -> Atom:
    obj = _require_mapping(obj)
    _reject_unknown(obj, {"s", "weight"})
    if "s" not in obj or "weight" not in obj:
        raise ConfigError("atom needs 's' and 'weight'")
    return _construct(Atom, _number(obj["s"], ".s"), _at(".weight", _parse_expr, obj["weight"]))


def _parse_kernel(obj) -> DelayKernel:
    if obj is None:
        return DelayKernel()
    obj = _require_mapping(obj)
    _reject_unknown(obj, {"atoms", "density"})
    atoms = _at(".atoms", _each, _parse_atom, obj.get("atoms", []) or [])
    part = None if obj.get("density") is None else _at(".density", _parse_density, obj["density"])
    return _construct(DelayKernel, atoms, part)


def _parse_activation(obj) -> Activation:
    kind = obj if isinstance(obj, str) else _require_mapping(obj).get("kind")
    if isinstance(kind, str) and kind in ACTIVATIONS:
        if isinstance(obj, dict):
            _reject_unknown(obj, {"kind"})
        return Activation(kind, ACTIVATIONS[kind][1])
    if kind == "satlin" and isinstance(obj, dict):
        _reject_unknown(obj, {"kind", "slope", "cap"})
        return _construct(Activation.saturating, _number(obj.get("slope", 1.0), ".slope"),
                          _number(obj.get("cap", 1.0), ".cap"))
    raise ConfigError(f"unknown activation {kind!r}")


def _vector(obj, n: int, parse_one, items: str = "entries") -> tuple:
    if not isinstance(obj, list) or len(obj) != n:
        raise ConfigError(f"expected {n} {items}")
    return _each(parse_one, obj)


def _matrix(obj, n: int, parse_one) -> tuple[tuple, ...]:
    return _vector(obj, n, lambda row: _vector(row, n, parse_one), "rows")


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
        d=_at(f"{source}.d", _vector, doc.get("d"), n, _parse_expr),
        a=_at(f"{source}.a", _matrix, doc.get("a"), n, _parse_expr),
        kernels=_at(f"{source}.kernels", _matrix, doc.get("kernels"), n, _parse_kernel),
        tau=_at(f"{source}.tau", _matrix, doc.get("tau"), n, _parse_expr),
        inputs=_at(f"{source}.inputs", _vector, doc.get("inputs"), n, _parse_expr),
        g=_at(f"{source}.activations.g", _vector, acts.get("g"), n, _parse_activation),
        f=_at(f"{source}.activations.f", _vector, acts.get("f"), n, _parse_activation),
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
    """SHA-256 of the canonical document's compact JSON, by the C encoder, no cycle check."""
    return _sha256(json.dumps(model_to_config(model), check_circular=False)
                   .encode()).hexdigest()


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
