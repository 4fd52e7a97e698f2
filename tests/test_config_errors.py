"""Every ConfigError of the config reader, pinned to its full message and JSON path."""

import copy
import json

import pytest

from periodyn.config import ConfigError, builtin_config_path, load_model, parse_config

with open(builtin_config_path(), encoding="utf-8") as _fh:
    BUILTIN = json.load(_fh)

TERM = {"amp": 0.5, "fn": "sin2", "k": 1}


def edit(path, value):
    """The bundled document with the entry at ``path`` (keys and indices) set to ``value``."""
    def make():
        doc = copy.deepcopy(BUILTIN)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return make


def drop(path):
    """The bundled document without the key at the end of ``path``."""
    def make():
        doc = copy.deepcopy(BUILTIN)
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc
    return make


ATOM = ("kernels", 0, 0, "atoms", 0)
DENSITY = {"shape": "exponential", "lam": 2.0, "weight": 0.1}

CASES = {
    # the document, its meta and its activations
    "not an object": (lambda: [], "cfg: expected an object, got list"),
    "unknown top field": (edit(("extra",), 1), "cfg: unknown field(s) ['extra']"),
    "no meta": (drop(("meta",)), "cfg.meta: expected an object, got NoneType"),
    "unknown meta field": (edit(("meta", "x"), 1), "cfg.meta: unknown field(s) ['x']"),
    "meta without n": (drop(("meta", "n")), "cfg.meta: meta needs 'n' and 'omega'"),
    "n zero": (edit(("meta", "n"), 0), "cfg.meta.n: n must be a positive integer"),
    "n true": (edit(("meta", "n"), True), "cfg.meta.n: n must be a positive integer"),
    "omega text": (edit(("meta", "omega"), "2"), "cfg.meta.omega: expected a number, got str"),
    "omega negative": (edit(("meta", "omega"), -2.0), "cfg.meta.omega: omega must be positive"),
    "no activations": (drop(("activations",)),
                       "cfg.activations: expected an object, got NoneType"),
    "unknown activations field": (edit(("activations", "h"), []),
                                  "cfg.activations: unknown field(s) ['h']"),
    # shapes of vectors and matrices
    "d too short": (edit(("d",), [1.0]), "cfg.d: expected 3 entries"),
    "no d": (drop(("d",)), "cfg.d: expected 3 entries"),
    "a too few rows": (edit(("a",), [[1.0, 1.0, 1.0]]), "cfg.a: expected 3 rows"),
    "a row too short": (edit(("a", 1), [1.0]), "cfg.a[1]: expected 3 entries"),
    "a row not a list": (edit(("a", 2), 1.0), "cfg.a[2]: expected 3 entries"),
    "kernels too few rows": (edit(("kernels",), []), "cfg.kernels: expected 3 rows"),
    "tau row too long": (edit(("tau", 0), [0.0] * 4), "cfg.tau[0]: expected 3 entries"),
    "g too short": (edit(("activations", "g"), ["tanh"]), "cfg.activations.g: expected 3 entries"),
    # expressions and their terms
    "expression text": (edit(("d", 0), "2.5"),
                        "cfg.d[0]: expression must be a number, a term or a list of terms"),
    "expression true": (edit(("d", 0), True),
                        "cfg.d[0]: expression must be a number, a term or a list of terms"),
    "constant infinite": (edit(("d", 1), float("inf")),
                          "cfg.d[1]: expected a finite number, got inf"),
    "constant nan": (edit(("inputs", 2), float("nan")),
                     "cfg.inputs[2]: expected a finite number, got nan"),
    "term not an object": (edit(("d", 1, 2), 1.5), "cfg.d[1][2]: expected an object, got float"),
    "unknown term field": (edit(("d", 1, 1), {**TERM, "phase": 0.0}),
                           "cfg.d[1][1]: unknown field(s) ['phase']"),
    "unknown const field": (edit(("d", 0, 0), {"const": 2.5, "k": 1}),
                            "cfg.d[0][0]: unknown field(s) ['k']"),
    "term without amp": (edit(("a", 0, 1, 0), {"fn": "sin2", "k": 1}),
                         "cfg.a[0][1][0]: term needs 'amp'"),
    "term without fn": (edit(("a", 0, 1, 0), {"amp": 1.0, "k": 1}),
                        "cfg.a[0][1][0]: term needs 'fn'"),
    "term without k": (edit(("a", 0, 1, 0), {"amp": 1.0, "fn": "sin2"}),
                       "cfg.a[0][1][0]: term needs 'k'"),
    "term unknown and missing": (edit(("a", 0, 1, 0), {"amp": 1.0, "fn": "sin2", "x": 1}),
                                 "cfg.a[0][1][0]: unknown field(s) ['x']"),
    "unknown fn": (edit(("tau", 2, 1, 0), {**TERM, "fn": "tan"}),
                   "cfg.tau[2][1][0].fn: unknown term function 'tan'"),
    "fn const": (edit(("tau", 2, 1, 0), {**TERM, "fn": "const"}),
                 "cfg.tau[2][1][0].fn: unknown term function 'const'"),
    "fn not text": (edit(("tau", 2, 1, 0), {**TERM, "fn": ["sin"]}),
                    "cfg.tau[2][1][0].fn: unknown term function ['sin']"),
    "k true": (edit(("inputs", 0, 0), {**TERM, "k": True}),
               "cfg.inputs[0][0].k: term frequency k must be a positive integer"),
    "k zero": (edit(("inputs", 0, 0), {**TERM, "k": 0}),
               "cfg.inputs[0][0].k: term frequency k must be a positive integer"),
    "k fractional": (edit(("inputs", 0, 0), {**TERM, "k": 1.5}),
                     "cfg.inputs[0][0].k: term frequency k must be a positive integer"),
    "amp text": (edit(("inputs", 1), {**TERM, "amp": "1"}),
                 "cfg.inputs[1][0].amp: expected a number, got str"),
    "amp infinite": (edit(("inputs", 1, 0), {**TERM, "amp": float("-inf")}),
                     "cfg.inputs[1][0].amp: expected a finite number, got -inf"),
    "amp null": (edit(("inputs", 1, 0), {**TERM, "amp": None}),
                 "cfg.inputs[1][0].amp: expected a number, got NoneType"),
    "const true": (edit(("d", 2, 0), {"const": True}),
                   "cfg.d[2][0].const: expected a number, got bool"),
    "const nan": (edit(("d", 2, 0), {"const": float("nan")}),
                  "cfg.d[2][0].const: expected a finite number, got nan"),
    "const huge integer": (edit(("d", 2, 0), {"const": 10 ** 400}),
                           "cfg.d[2][0].const: "
                           "expected a finite number, got an integer past the float range"),
    "constant huge integer": (edit(("inputs", 0), -10 ** 400),
                              "cfg.inputs[0]: "
                              "expected a finite number, got an integer past the float range"),
    # kernels, atoms and densities
    "kernel not an object": (edit(("kernels", 1, 2), [1]),
                             "cfg.kernels[1][2]: expected an object, got list"),
    "unknown kernel field": (edit(("kernels", 1, 2, "lag"), 1.0),
                             "cfg.kernels[1][2]: unknown field(s) ['lag']"),
    "atom not an object": (edit(ATOM, 0.0),
                           "cfg.kernels[0][0].atoms[0]: expected an object, got float"),
    "unknown atom field": (edit(ATOM + ("tau",), 0.0),
                           "cfg.kernels[0][0].atoms[0]: unknown field(s) ['tau']"),
    "atom without s": (drop(ATOM + ("s",)),
                       "cfg.kernels[0][0].atoms[0]: atom needs 's' and 'weight'"),
    "atom without weight": (drop(ATOM + ("weight",)),
                            "cfg.kernels[0][0].atoms[0]: atom needs 's' and 'weight'"),
    "atom s text": (edit(ATOM + ("s",), "0"),
                    "cfg.kernels[0][0].atoms[0].s: expected a number, got str"),
    "atom s negative": (edit(ATOM + ("s",), -1.0),
                        "cfg.kernels[0][0].atoms[0]: "
                        "atom location must be finite and nonnegative"),
    "atom weight term": (edit(ATOM + ("weight", 0, "k"), -2),
                         "cfg.kernels[0][0].atoms[0].weight[0].k: "
                         "term frequency k must be a positive integer"),
    "second atom": (edit(("kernels", 2, 1, "atoms"), [{"s": 0.0, "weight": 0.1}, {"s": 1.0}]),
                    "cfg.kernels[2][1].atoms[1]: atom needs 's' and 'weight'"),
    "atoms not increasing": (edit(("kernels", 2, 1, "atoms"),
                                  [{"s": 1.0, "weight": 0.1}, {"s": 0.5, "weight": 0.1}]),
                             "cfg.kernels[2][1]: atom locations must be strictly increasing"),
    "density not an object": (edit(("kernels", 0, 1, "density"), "exponential"),
                              "cfg.kernels[0][1].density: expected an object, got str"),
    "density without shape": (edit(("kernels", 0, 1, "density"), {"lam": 2.0, "weight": 0.1}),
                              "cfg.kernels[0][1].density: density needs 'shape'"),
    "bad density shape": (edit(("kernels", 0, 1, "density"), {**DENSITY, "shape": "gamma"}),
                          "cfg.kernels[0][1].density.shape: unknown density shape 'gamma'"),
    "density shape not text": (edit(("kernels", 0, 1, "density"), {**DENSITY, "shape": 3}),
                               "cfg.kernels[0][1].density.shape: unknown density shape 3"),
    "unknown density field": (edit(("kernels", 0, 1, "density"), {**DENSITY, "width": 1.0}),
                              "cfg.kernels[0][1].density: unknown field(s) ['width']"),
    "density lam text": (edit(("kernels", 0, 1, "density"), {**DENSITY, "lam": "2"}),
                         "cfg.kernels[0][1].density.lam: expected a number, got str"),
    "density lam zero": (edit(("kernels", 0, 1, "density"), {**DENSITY, "lam": 0.0}),
                         "cfg.kernels[0][1].density: exponential density requires lam > 0"),
    "density without weight": (edit(("kernels", 0, 1, "density"),
                                    {"shape": "uniform", "width": 1.0}),
                               "cfg.kernels[0][1].density: density needs 'weight'"),
    "density weight": (edit(("kernels", 0, 1, "density"), {**DENSITY, "weight": [{"const": "x"}]}),
                       "cfg.kernels[0][1].density.weight[0].const: expected a number, got str"),
    "table knots not a list": (edit(("kernels", 2, 2, "density"),
                                    {"shape": "table", "s": 0.5, "values": [1.0], "weight": 1.0}),
                               "cfg.kernels[2][2].density.s: expected a list of numbers"),
    "table knot text": (edit(("kernels", 2, 2, "density"),
                             {"shape": "table", "s": [0.0, "1"], "values": [1.0, 1.0],
                              "weight": 1.0}),
                        "cfg.kernels[2][2].density.s[1]: expected a number, got str"),
    "table knots not increasing": (edit(("kernels", 2, 2, "density"),
                                        {"shape": "table", "s": [1.0, 0.0], "values": [1.0, 1.0],
                                         "weight": 1.0}),
                                   "cfg.kernels[2][2].density: "
                                   "table knots must be nonnegative and strictly increasing"),
    # activations
    "unknown activation": (edit(("activations", "g", 1), "relu"),
                           "cfg.activations.g[1]: unknown activation 'relu'"),
    "activation number": (edit(("activations", "f", 0), 1.0),
                          "cfg.activations.f[0]: expected an object, got float"),
    "activation without kind": (edit(("activations", "f", 2), {}),
                                "cfg.activations.f[2]: unknown activation None"),
    "unknown activation field": (edit(("activations", "f", 2), {"kind": "tanh", "slope": 1.0}),
                                 "cfg.activations.f[2]: unknown field(s) ['slope']"),
    "unknown satlin field": (edit(("activations", "g", 0), {"kind": "satlin", "gain": 1.0}),
                             "cfg.activations.g[0]: unknown field(s) ['gain']"),
    "satlin slope text": (edit(("activations", "g", 0), {"kind": "satlin", "slope": "1"}),
                          "cfg.activations.g[0].slope: expected a number, got str"),
    "satlin cap zero": (edit(("activations", "g", 0), {"kind": "satlin", "cap": 0.0}),
                        "cfg.activations.g[0]: "
                        "saturating activation needs slope >= 0 and cap > 0"),
    "satlin by name": (edit(("activations", "g", 0), "satlin"),
                       "cfg.activations.g[0]: unknown activation 'satlin'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_error_names_its_json_path(case):
    make, message = CASES[case]
    with pytest.raises(ConfigError) as info:
        parse_config(make(), source="cfg")
    assert str(info.value) == message


def test_an_empty_source_leaves_the_path_relative():
    with pytest.raises(ConfigError) as info:
        parse_config(edit(("d", 1, 1), {**TERM, "k": 0})(), source="")
    assert str(info.value) == ".d[1][1].k: term frequency k must be a positive integer"
    with pytest.raises(ConfigError) as info:
        parse_config([], source="")
    assert str(info.value) == "expected an object, got list"


def test_invalid_json_names_its_line_and_column():
    with pytest.raises(ConfigError) as info:
        parse_config('{"meta":\n  {"n": 1,}}', source="cfg")
    assert str(info.value) == ("cfg: invalid JSON at line 2 column 11: "
                               "Expecting property name enclosed in double quotes")


def test_a_file_that_cannot_be_read_or_validated(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError) as info:
        load_model(str(missing))
    assert str(info.value) == f"{missing}: [Errno 2] No such file or directory: '{missing}'"
    doc = edit(("d", 0), -1.0)()
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        load_model(str(path))
    assert str(info.value) == f"{path}: model validation failed: d_1 not positive at t=0"
