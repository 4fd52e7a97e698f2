import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from periodyn import cli
from periodyn.model import builtin_example
from periodyn.cli import (ConfigError, builtin_config_path, config_hash, main,
                          model_to_config, parse_config, run_ensemble,
                          serialize_config, write_line_plot, _nice_ticks)

from test_read_plan import DISTRIBUTED

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


@pytest.fixture(scope="module")
def builtin_cfg_text():
    with open(builtin_config_path(), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture()
def cfg_file(tmp_path, builtin_cfg_text):
    path = tmp_path / "model.json"
    path.write_text(builtin_cfg_text)
    return str(path)


def tiny_config(**overrides):
    doc = {
        "meta": {"n": 1, "omega": 1.0},
        "d": [[{"const": 1.0}]],
        "a": [[[{"const": 0.5}]]],
        "kernels": [[None]],
        "tau": [[[]]],
        "inputs": [[{"amp": 1.0, "fn": "sin", "k": 2}]],
        "activations": {"g": ["identity"], "f": ["identity"]},
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_round_trip_is_idempotent(self, builtin_cfg_text):
        m1 = parse_config(builtin_cfg_text)
        text1 = serialize_config(model_to_config(m1))
        m2 = parse_config(text1)
        text2 = serialize_config(model_to_config(m2))
        assert m1 == m2 and text1 == text2

    def test_scalar_expression_shorthand(self):
        m = parse_config(tiny_config(d=[2.5], tau=[[0.0]]))
        assert m.d[0].eval(0.3) == 2.5

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(tiny_config(extra=1))

    def test_unknown_term_field(self):
        bad = tiny_config()
        bad["d"] = [[{"const": 1.0, "phase": 0.5}]]
        with pytest.raises(ConfigError, match=r"d\[0\]"):
            parse_config(bad)

    def test_unknown_density_shape(self):
        bad = tiny_config()
        bad["kernels"] = [[{"density": {"shape": "gamma", "weight": 1.0}}]]
        with pytest.raises(ConfigError, match="density"):
            parse_config(bad)

    def test_bad_json_reports_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("{bad json", source="inline")

    def test_wrong_matrix_shape(self):
        bad = tiny_config()
        bad["a"] = [[0.0, 0.0]]
        with pytest.raises(ConfigError, match=r"a\[0\]"):
            parse_config(bad)

    def test_activation_forms(self):
        doc = tiny_config()
        doc["activations"] = {"g": [{"kind": "satlin", "slope": 0.5, "cap": 2.0}],
                              "f": ["arctan"]}
        m = parse_config(doc)
        assert m.g[0].kind == "satlin" and m.g[0].lipschitz == 0.5
        assert m.f[0].kind == "arctan"

    def test_kernel_forms_round_trip(self):
        doc = tiny_config()
        doc["kernels"] = [[{
            "atoms": [{"s": 0.5, "weight": [{"const": 0.2}]}],
            "density": {"shape": "exponential", "lam": 2.0, "weight": [{"const": 0.1}]},
        }]]
        m = parse_config(doc)
        text = serialize_config(model_to_config(m))
        assert parse_config(text) == m

    def test_builtin_config_hash_is_pinned(self):
        # the canonical document of the bundled network, fixed: a change to the
        # reader, the writer or the bundled file shows here
        assert config_hash(builtin_example()) == (
            "3ffdceabac772bc1caf363760e4a6065071efa210bfd7c985dd78ad33340d690")

    @pytest.mark.parametrize("make, digest", [
        (lambda: inputs.wide_network(3, 30),
         "c08a7c86e4c09f7e00462acf3c1b0bc1d23e10d0f3176894f7b87ab723ed4ee6"),
        (lambda: inputs.DISTRIBUTED,
         "60f5d751b02a972949f34dff8f3961b3c96965937d91de4bda1541b360168d07"),
    ], ids=["wide3-30", "distributed"])
    def test_benchmark_config_hashes_are_pinned(self, make, digest):
        # the 30-unit and the distributed-delay inputs, through the reader and the writer
        assert config_hash(parse_config(json.dumps(make()))) == digest


class TestCertifyCommand:
    def test_builtin_exit_zero(self, cfg_file, capsys):
        code = main(["certify", cfg_file, "--grid", "1024"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        cert = report["results"]["certificate"]
        assert cert["eta"] > 0.05 and cert["alpha"] > 0.0
        assert cert["J"] == pytest.approx(2.0)
        assert report["config_hash"] == config_hash(builtin_example())

    def test_infeasible_exit_two(self, tmp_path, capsys):
        doc = tiny_config(a=[[1.5]])
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["certified"] is False

    def test_malformed_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["certify", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_one(self, capsys):
        assert main(["certify", "/nonexistent/x.json"]) == 1

    def test_usage_error_exit_one(self, cfg_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", cfg_file, "--t-end", "1"])  # missing --h
        assert exc.value.code == 1
        capsys.readouterr()

    def test_invalid_model_exit_one(self, tmp_path, capsys):
        doc = tiny_config(d=[[{"amp": 1.0, "fn": "sin", "k": 2}]])  # not positive
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path)]) == 1
        assert "not positive" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_csv_and_svg(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        plot = tmp_path / "traj.svg"
        code = main(["simulate", cfg_file, "--t-end", "1", "--h", "0.002",
                     "--grid", "512", "--out", str(out), "--plot", str(plot)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"] == [str(out), str(plot)]
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u_1,u_2,u_3" and len(lines) == 502
        svg = plot.read_text()
        assert svg.count("<polyline") == 3 and 'viewBox="0 0 960 540"' in svg

    def test_t_end_zero_single_row(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main(["simulate", cfg_file, "--t-end", "0", "--h", "0.01",
                     "--grid", "256", "--ic", "1,2,3", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,1,2,3")

    def test_byte_identical_outputs(self, cfg_file, tmp_path, capsys):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            plot = tmp_path / f"{name}.svg"
            main(["simulate", cfg_file, "--t-end", "1", "--h", "0.004",
                  "--grid", "256", "--out", str(out), "--plot", str(plot)])
            capsys.readouterr()
            paths.append((out, plot))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_report_is_strict_json(self, cfg_file, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        assert main(["simulate", cfg_file, "--t-end", "0.5", "--h", "0.01",
                     "--grid", "256"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        cert = report["results"]["certificate"]
        assert list(cert) == ["xi", "eta", "grid_points"]
        assert cert["eta"] > 0.0 and cert["grid_points"] == 256

    def test_uncertified_requires_force(self, tmp_path, capsys):
        doc = tiny_config(a=[[1.5]])
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--t-end", "1", "--h", "0.01"]) == 2
        capsys.readouterr()
        assert main(["simulate", str(path), "--t-end", "1", "--h", "0.01",
                     "--force"]) == 0
        capsys.readouterr()

    def test_bad_ic_exit_one(self, cfg_file, capsys):
        assert main(["simulate", cfg_file, "--t-end", "1", "--h", "0.01",
                     "--grid", "256", "--ic", "1,2"]) == 1
        capsys.readouterr()

    def test_bad_ic_is_parsed_before_certification(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "find_weights", lambda *a, **k: calls.append(a))
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(tiny_config(a=[[1.5]])))
        assert main(["simulate", str(path), "--t-end", "1", "--h", "0.01",
                     "--ic", "1,2"]) == 1
        assert capsys.readouterr().err.startswith("error: --ic: ")
        assert calls == []

    @pytest.mark.parametrize("h", ["inf", "1e10"])
    def test_step_longer_than_period_exit_one(self, cfg_file, capsys, h):
        assert main(["simulate", cfg_file, "--t-end", "2", "--h", h,
                     "--grid", "256", "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: step h={float(h)} is longer than the period omega=2.0")

    @pytest.mark.parametrize("flag, value", [("--t-end", "-1"), ("--t-end", "nan"),
                                             ("--t-end", "inf")])
    def test_out_of_range_time_or_tail_is_usage_error(self, tmp_path, capsys, flag, value):
        doc = tiny_config(kernels=[[{"density": {"shape": "exponential", "lam": 12.0,
                                                 "weight": 0.2}}]], tau=[[0.1]])
        path = tmp_path / "exponential.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(path), "--h", "0.01", "--force", flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err and "Traceback" not in err


class TestFindPeriodCommand:
    def test_builtin_orbit(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        code = main(["find-period", cfg_file, "--h", "0.004", "--grid", "1024", "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        res = report["results"]
        assert res["converged"] and res["residual"] <= 1e-10
        assert res["periodicity_deviation"] <= 1e-8
        assert len(out.read_text().splitlines()) == 502

    def test_report_is_strict_json(self, cfg_file, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        assert main(["find-period", cfg_file, "--h", "1e-2", "--fp-tol", "1e-8",
                     "--grid", "256"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        cert = report["results"]["certificate"]
        assert (cert["J"], cert["M"], cert["N"]) == (None, None, None)

    def test_no_convergence_exit_three(self, cfg_file, capsys):
        code = main(["find-period", cfg_file, "--h", "0.01", "--grid", "512",
                     "--max-iters", "1"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["converged"] is False


class TestCompareCommand:
    def test_builtin_table(self, cfg_file, capsys):
        code = main(["compare", cfg_file, "--grid", "1024", "--draws", "50"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        table = {c["criterion"]: c for c in report["results"]["criteria"]}
        assert table["pointwise-discrete"]["satisfied"] is True
        assert table["split-sup"]["satisfied"] is False
        assert table["sup"]["satisfied"] is False
        assert table["sup-period-scaled"]["satisfied"] is False

    def test_shape_errors_reported_not_fatal(self, tmp_path, capsys):
        doc = tiny_config()
        doc["kernels"] = [[{"density": {"shape": "uniform", "width": 1.0,
                                        "weight": [{"const": 0.1}]}}]]
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(doc))
        code = main(["compare", str(path), "--grid", "256"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        entries = {c["criterion"]: c for c in report["results"]["criteria"]}
        assert entries["pointwise-distributed"]["satisfied"] is True
        assert "error" in entries["split-sup"] and "error" in entries["sup"]

    def test_ensemble_counts(self, cfg_file, capsys):
        code = main(["compare", cfg_file, "--grid", "512", "--draws", "30",
                     "--ensemble", "12", "--seed", "11"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        counts = report["results"]["ensemble"]["counts"]
        assert counts["instances"] == 12
        assert counts["split_sup_and_not_pointwise"] == 0

    def test_env_seed_override(self, cfg_file, capsys, monkeypatch):
        monkeypatch.setenv("PERIODYN_SEED", "123")
        main(["compare", cfg_file, "--grid", "512", "--draws", "10", "--seed", "7"])
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["seed"] == 123

    def test_ensemble_workers_match_sequential(self):
        seq = run_ensemble(6, seed=5, grid=256, draws=10, workers=1)
        par = run_ensemble(6, seed=5, grid=256, draws=10, workers=2)
        assert seq["counts"] == par["counts"]
        assert seq["rows"] == par["rows"]


class TestSvg:
    def test_decimation_limit(self, tmp_path):
        times = np.linspace(0.0, 1.0, 9001)
        states = np.sin(2 * np.pi * times)[:, None]
        path = tmp_path / "plot.svg"
        write_line_plot(path, times, states)
        svg = path.read_text()
        line = next(part for part in svg.splitlines() if part.startswith("<polyline"))
        assert line.count(",") <= 4001

    def test_axis_labels_present(self, tmp_path):
        times = np.linspace(0.0, 2.0, 11)
        states = np.stack([times, -times], axis=1)
        path = tmp_path / "axes.svg"
        write_line_plot(path, times, states, labels=["x", "y"], title="demo")
        svg = path.read_text()
        assert ">t</text>" in svg and ">u</text>" in svg
        assert ">x</text>" in svg and ">y</text>" in svg and "demo" in svg

    def test_nice_ticks(self):
        ticks = _nice_ticks(0.0, 2.0)
        assert ticks[0] == 0.0 and ticks[-1] == pytest.approx(2.0)
        assert _nice_ticks(1.0, 1.0) == [1.0]


def _table_kernel(s, values):
    return [[{"density": {"shape": "table", "s": s, "values": values, "weight": 0.1}}]]


class TestConfigBoundaries:
    @pytest.mark.parametrize("overrides, where", [
        ({"meta": {"n": 1, "omega": float("inf")}}, ".meta.omega"),
        ({"d": [float("nan")]}, ".d[0]"),
        ({"kernels": _table_kernel([0.0, 0.5, 1.0], [0.0, float("nan"), 0.0])},
         ".kernels[0][0].density.values[1]"),
        ({"kernels": _table_kernel([0.0, 0.5, 1.0], [0, "x", 0])},
         ".kernels[0][0].density.values[1]"),
        ({"kernels": _table_kernel([0.0, float("inf"), 1.0], [0.0, 1.0, 0.0])},
         ".kernels[0][0].density.s[1]"),
    ])
    def test_bad_number_exits_one_with_path(self, tmp_path, capsys, overrides, where):
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(tiny_config(**overrides)))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{where}: ")

    @pytest.mark.parametrize("kernel, where, message", [
        ({"density": {"shape": "exponential", "lam": 0, "weight": 0.1}},
         ".kernels[0][0].density", "exponential density requires lam > 0"),
        ({"density": {"shape": "uniform", "width": -1.0, "weight": 0.1}},
         ".kernels[0][0].density", "uniform density requires width > 0"),
        (_table_kernel([0.0, 1.0, 0.5], [0.0, 1.0, 0.0])[0][0],
         ".kernels[0][0].density", "table knots must be nonnegative and strictly increasing"),
        ({"atoms": [{"s": -1.0, "weight": 0.1}]},
         ".kernels[0][0].atoms[0]", "atom location must be finite and nonnegative"),
        ({"atoms": [{"s": 1.0, "weight": 0.1}, {"s": 0.5, "weight": 0.1}]},
         ".kernels[0][0]", "atom locations must be strictly increasing"),
    ])
    def test_constructor_error_keeps_path(self, tmp_path, capsys, kernel, where, message):
        path = tmp_path / "bad_kernel.json"
        path.write_text(json.dumps(tiny_config(kernels=[[kernel]])))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}{where}: {message}\n"


    @pytest.mark.parametrize("density, where", [
        ({"shape": "exponential", "lam": [12.0]}, ".lam"),
        ({"shape": "table", "s": 0.5, "values": [1.0, 1.0]}, ".s"),
        ({"shape": "uniform", "width": 1.0, "lam": 2.0}, ""),
        ({"shape": ["uniform"]}, ".shape"),
        ({"shape": "uniform"}, ""),
    ])
    def test_density_field_error_keeps_path(self, tmp_path, capsys, density, where):
        # a density's fields and their types are its class's fields in kernels.DENSITIES
        path = tmp_path / "bad_density.json"
        path.write_text(json.dumps(tiny_config(kernels=[[{"density": dict(density, weight=0.1)}]])))
        assert main(["certify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}.kernels[0][0].density{where}: ")
        assert "Traceback" not in err

    def test_every_density_shape_writes_as_before(self):
        # recorded from the writer with one explicit branch per shape
        shapes = {"exponential": {"shape": "exponential", "lam": 12.5,
                                  "weight": [{"amp": 0.1, "fn": "cos2", "k": 2}]},
                  "uniform": {"shape": "uniform", "width": 0.75, "weight": 0.2},
                  "table": {"shape": "table", "s": [0.0, 0.25, 1], "values": [1.0, -0.5, 0.25],
                            "weight": 0.05}}
        doc = tiny_config(
            meta={"n": 3, "omega": 1.0}, d=[4.0] * 3, a=[[0.0] * 3] * 3, tau=[[0.5] * 3] * 3,
            inputs=[0.0] * 3, activations={"g": ["tanh"] * 3, "f": ["tanh"] * 3},
            kernels=[[{"density": shapes["exponential"]}, None, None],
                     [None, {"atoms": [{"s": 0.5, "weight": 0.1}], "density": shapes["uniform"]},
                      None],
                     [None, {"density": shapes["table"]}, None]])
        model = parse_config(json.dumps(doc))
        written = model_to_config(model)
        assert [json.dumps(written["kernels"][i][j]["density"])
                for i, j in ((0, 0), (1, 1), (2, 1))] == [
            '{"shape": "exponential", "lam": 12.5, "weight": [{"amp": 0.1, "fn": "cos2", "k": 2}]}',
            '{"shape": "uniform", "width": 0.75, "weight": [{"const": 0.2}]}',
            '{"shape": "table", "s": [0.0, 0.25, 1.0], "values": [1.0, -0.5, 0.25], '
            '"weight": [{"const": 0.05}]}']
        text = serialize_config(written)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d241eb3652a205f6fe3ec0128120a098262551c18d33ead00b8ee99467972c21")
        assert parse_config(text) == model

    def test_saturating_activation_error_keeps_path(self, tmp_path, capsys):
        path = tmp_path / "bad_activation.json"
        doc = tiny_config(activations={"g": [{"kind": "satlin", "slope": -1}], "f": ["tanh"]})
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}.activations.g[0]: "
            "saturating activation needs slope >= 0 and cap > 0\n")

    @pytest.mark.parametrize("act", ["satlin", "relu", {"kind": "relu"}, {"kind": ["tanh"]}])
    def test_unknown_activation_exits_one_with_path(self, tmp_path, capsys, act):
        path = tmp_path / "bad_activation.json"
        path.write_text(json.dumps(tiny_config(activations={"g": ["tanh"], "f": [act]})))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}.activations.f[0]: unknown activation ")


class TestFlagBounds:
    @pytest.mark.parametrize("argv", [
        ["certify", "--grid", "0"],
        ["simulate", "--t-end", "1", "--h", "0.01", "--grid", "-4"],
        ["find-period", "--h", "0.01", "--grid", "0"],
        ["find-period", "--h", "0.01", "--max-iters", "0"],
        ["compare", "--grid", "0"],
    ])
    def test_non_positive_count_is_usage_error(self, cfg_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], cfg_file, *argv[1:]])
        assert exc.value.code == 1
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what", [
        (["compare", "--ensemble", "-2"], "a non-negative integer"),
        (["compare", "--draws", "0"], "a positive integer"),
        (["compare", "--workers", "-1"], "a positive integer"),
        # flags that no command has any more
        (["find-period", "--h", "0.01", "--rate-periods", "1"], None),
        (["simulate", "--t-end", "1", "--h", "0.01", "--tail-tol", "1e-8"], None),
    ])
    def test_out_of_range_count_is_usage_error(self, cfg_file, capsys, argv, what):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], cfg_file, *argv[1:]])
        assert exc.value.code == 1
        message = f"must be {what}, got" if what else f"unrecognized arguments: {argv[-2]}"
        assert f"{message} {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", "--tol", "0"], ["certify", "--tol", "-1"],
        ["certify", "--tol", "nan"], ["certify", "--tol", "inf"],
        ["find-period", "--h", "0.01", "--fp-tol", "nan"],
        ["find-period", "--h", "0.01", "--fp-tol", "-1"],
        ["find-period", "--h", "0.01", "--fp-tol", "0"],
        ["find-period", "--h", "0.01", "--fp-tol", "inf"],
    ])
    def test_non_positive_tolerance_is_usage_error(self, cfg_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], cfg_file, *argv[1:]])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"must be a finite number > 0, got {argv[-1]}" in err and "Traceback" not in err

    @pytest.mark.parametrize("ic", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_ic_is_input_error(self, cfg_file, capsys, ic):
        code = main(["simulate", cfg_file, "--force", "--t-end", "0.1", "--h", "0.01",
                     "--ic", ic])
        assert code == 1
        out = capsys.readouterr()
        assert "error: --ic:" in out.err and "non-finite" in out.err
        assert "diverged_at" not in out.out

    def test_negative_seed_is_usage_error(self, cfg_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", cfg_file, "--seed", "-1"])
        assert exc.value.code == 1
        assert "must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value, what", [
        ("x", "invalid int value: 'x'"),
        ("-1", "must be a non-negative integer, got -1"),
    ])
    def test_bad_env_seed_names_the_variable(self, cfg_file, capsys, monkeypatch, value, what):
        monkeypatch.setenv("PERIODYN_SEED", value)
        code = main(["compare", cfg_file, "--grid", "64", "--draws", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: PERIODYN_SEED: {what}" in err and "Traceback" not in err


def _refuse(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


class TestFindPeriodReports:
    def test_divergence_exits_two_with_strict_json(self, tmp_path, builtin_cfg_text, capsys):
        # d = 60 certifies, but RK4 at h = 0.1 is unstable for it (h d = 6 > 2.79)
        doc = json.loads(builtin_cfg_text)
        doc["d"] = [60.0] * len(doc["d"])
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path), "--grid", "256"]) == 0
        capsys.readouterr()
        assert main(["find-period", str(path), "--h", "0.1", "--grid", "256"]) == 2
        out = capsys.readouterr()
        report = json.loads(out.out, parse_constant=_refuse)
        assert report["results"]["diverged_at"] == pytest.approx(0.7)
        assert "converged" not in report["results"]
        assert "Traceback" not in out.err


# 4 GB of address space: an allocation the size of a tiny step's period fails at once
_ADDRESS_SPACE = 4 * 2 ** 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


@pytest.mark.parametrize("argv", [
    ["simulate", "--h", "1e-12", "--t-end", "0", "--force"],
    ["simulate", "--h", "1e-300", "--t-end", "0", "--force"],
    ["find-period", "--h", "1e-12", "--grid", "256"],
])
def test_tiny_step_is_an_input_error_naming_h(cfg_file, argv):
    # one period of 2 / h half steps cannot be sampled; the address-space limit
    # of a separate process keeps a code path that tries from really allocating
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "periodyn.cli", argv[0], cfg_file, *argv[1:]],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: --h: step h={float(argv[2])} is too small: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--h", "1e-2", "--t-end", "1e12", "--force"], "--t-end"),
    (["simulate", "--h", "1e-2", "--t-end", "1e300", "--force"], "--t-end"),
    (["certify", "--grid", "1000000000000"], "--grid"),
    (["find-period", "--h", "1e-2", "--grid", "1000000000000"], "--grid"),
])
def test_huge_run_or_grid_is_an_input_error_naming_its_flag(cfg_file, argv, flag):
    # a history of 1e14 nodes or a grid of 1e12 samples cannot be held in memory
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "periodyn.cli", argv[0], cfg_file, *argv[1:]],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {flag}: ") and "in memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_huge_delay_in_find_period_is_an_input_error_naming_tau(tmp_path, builtin_cfg_text):
    # a delay of 1e9 needs a period-map window of 1e11 steps of h = 1e-2, 2 TiB
    doc = json.loads(builtin_cfg_text)
    doc["tau"][1][1] = [{"amp": 1e9, "fn": "abs_cos", "k": 2}]
    path = tmp_path / "huge_tau.json"
    path.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "periodyn.cli", "find-period", str(path),
                           "--h", "1e-2", "--grid", "256"],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tau: ") and "in memory" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_delay_past_the_index_range_warns_nothing(tmp_path, builtin_cfg_text):
    # a delay of 1e300 lies 1e302 steps of h = 1e-2 back, past the range of an intp
    doc = json.loads(builtin_cfg_text)
    doc["tau"][1][1] = [{"amp": 1e300, "fn": "abs_cos", "k": 2}]
    path = tmp_path / "huge_tau.json"
    path.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "always", "-m", "periodyn.cli", "find-period",
                           str(path), "--h", "1e-2", "--grid", "256"],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tau: ") and proc.stderr.count("\n") == 1


def test_import_loads_no_process_pool():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import sys, periodyn.cli; "
                           "print('concurrent.futures.process' in sys.modules)"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "False\n"


@pytest.mark.parametrize("flag", ["--draws", "--ensemble"])
def test_huge_draws_or_ensemble_is_an_input_error_naming_its_flag(cfg_file, flag):
    # 1e9 split-sup draws are a 156 GiB array, and 1e9 ensemble rows 8 GB of pointers
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "periodyn.cli", "compare", cfg_file, "--grid", "256",
                           flag, "1000000000"],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {flag}: ") and "in memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def _run_limited(*argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "periodyn.cli", *argv],
                          capture_output=True, text=True, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)


@pytest.mark.parametrize("command", ["simulate", "find-period"])
@pytest.mark.parametrize("where, field, value", [
    ((1, 2), "width", 1e7),  # 1e9 Simpson nodes one step of 1e-2 apart
    ((1, 2), "width", 1e12),
    ((1, 2), "width", 1e30),  # past numpy's largest array
    ((0, 1), "lam", 1e-12),  # an exponential cut off at 1.8e13
])
def test_wide_density_support_is_an_input_error_naming_the_density(tmp_path, command, where,
                                                                   field, value):
    doc = json.loads(json.dumps(DISTRIBUTED))
    doc["kernels"][where[0]][where[1]]["density"][field] = value
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    extra = ["--t-end", "0.5"] if command == "simulate" else []
    proc = _run_limited(command, str(path), "--h", "1e-2", "--grid", "256", *extra)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: kernels[{where[0]}][{where[1]}].density: ")
    assert "in memory" in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, what", [
    (["--h", "1e-320", "--t-end", "0"], "period"),  # 2 / 1e-320 overflows to inf
    (["--h", "1e-302", "--t-end", "5e11"], "t_end"),
])
def test_a_step_count_past_the_float_range_is_an_input_error(cfg_file, capsys, argv, what):
    assert main(["simulate", cfg_file, "--force", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what}: ") and err.count("\n") == 1


def test_term_frequency_past_the_float_range_exits_one_with_path(tmp_path, capsys):
    # the coefficient basis takes k * pi as a float
    path = tmp_path / "huge_k.json"
    path.write_text(json.dumps(tiny_config(d=[[{"const": 1.0}, {"amp": 0.5, "fn": "sin2",
                                                                 "k": 10 ** 400}]])))
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}.d[0][1].k: ")
