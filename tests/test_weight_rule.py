"""The one weight rule: the max-margin LP's weights, or unit weights when an LP fails."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from periodyn import certify
from periodyn.certify import (LPResult, check_row_dominance, find_weights,
                              search_sup_criterion)
from periodyn.cli import builtin_config_path, main
from periodyn.expressions import const
from periodyn.kernels import DelayKernel
from periodyn.model import Activation, NetworkModel, builtin_example

from helpers import ZERO

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def failed_lp(*args, **kwargs):
    return LPResult(1)  # stopped at its pivot limit


@pytest.fixture
def failing_lp(monkeypatch):
    monkeypatch.setattr(certify, "linprog", failed_lp)


def test_a_failed_lp_certifies_with_unit_weights(failing_lp):
    model = builtin_example()
    cert = find_weights(model, 256)
    assert cert.xi.tolist() == [1.0, 1.0, 1.0]
    assert cert.eta == check_row_dominance(model, np.ones(3), 256)[0]


def test_a_failed_lp_gives_the_sup_criterion_unit_weights(failing_lp):
    model = builtin_example()
    rep = search_sup_criterion(model, grid_points=256)
    assert rep.witness["theta"] == [1.0, 1.0, 1.0]
    assert rep == certify.check_sup_criterion(model, np.ones(3), grid_points=256)


def cross_model() -> NetworkModel:
    # rows -x0 + 2 x1 and 0.1 x0 - x1: negative at x = (4, 1), but not at unit weights
    ident = Activation.identity()
    return NetworkModel(n=2, omega=1.0, d=(const(1.0),) * 2,
                        a=((ZERO, const(2.0)), (const(0.1), ZERO)),
                        kernels=((DelayKernel(),) * 2,) * 2, tau=((ZERO,) * 2,) * 2,
                        inputs=(ZERO,) * 2, g=(ident,) * 2, f=(ident,) * 2)


def test_a_failed_lp_leaves_a_model_infeasible_at_unit_weights_uncertified(monkeypatch):
    model = cross_model()
    assert find_weights(model, 64) is not None
    assert not check_row_dominance(model, np.ones(2), 64)[1]
    monkeypatch.setattr(certify, "linprog", failed_lp)
    assert find_weights(model, 64) is None


# --- the printed certificate: xi and eta of `certify --grid 256` ---------------

PRINTED = {
    "builtin": ([1.0, 1.1772450204257374, 1.2357963910453689], 0.1638743482928095),
    "distributed": ([1.1060010068659092, 1.2537997986268183, 1.0], 1.2602594562924088),
    "wide0": ([1.0863609302182107, 1.2310906985140209, 1.344813372357966, 1.373234477497263,
               1.0411264381505663, 1.0, 1.07754620353555, 1.1148595890729414,
               1.1161958409120336, 1.024543221657115, 1.0773848538737822, 1.3553874295716246,
               1.0624723599676464, 1.3747192947947229, 1.0660050940284234, 1.2573332187675057,
               1.0367821842107616, 1.1372555022913473, 1.1965184392047186, 1.2018444522467902,
               1.3564169514219884, 1.3691655601755908, 1.0782542076034831, 1.0688819805010927,
               1.1197841473302288, 1.2139295861977404, 1.001273927357645, 1.0117401607087975,
               1.0662182263256736, 1.0889487488676777], 2.3765869216334634),
    "wide1": ([1.1567853431586397, 1.0443843438221116, 1.3630095265712021, 1.0409598228708896,
               1.2401052771770766, 1.212203489688664, 1.022094104486729, 1.1900225923574306,
               1.126588830123832, 1.3702250967620506, 1.041370007200989, 1.147918474968773,
               1.2791184146743844, 1.052723647455478, 1.2481972002661457, 1.2058466719594767,
               1.3241763633443184, 1.2281290290374638, 1.282823387288791, 1.2893356479655318,
               1.0929334298940105, 1.263865472380812, 1.1893478288815111, 1.0215360474272008,
               1.0, 1.0651670654244125, 1.1428537651165298, 1.2750328785392124,
               1.3224621962114136, 1.0347483843946856], 2.4293630042651855),
    "wide2": ([1.3297350159527785, 1.2743063849092784, 1.107643369948041, 1.3663048402137097,
               1.1536461384855003, 1.0810985867026777, 1.298303737549552, 1.386329028619771,
               1.3040012675315922, 1.1575818177825827, 1.1259765204911278, 1.3650026343319053,
               1.2399946805905961, 1.1543050837180973, 1.2375582309032485, 1.1107657118623078,
               1.0483878384513836, 1.1081025385840304, 1.2260492755569505, 1.351897074617724,
               1.241611464725663, 1.1953688271709366, 1.0617440098862148, 1.1000354921899975,
               1.2489345666047964, 1.0, 1.2652088223453162, 1.1021697301864932,
               1.360755894588295, 1.3604418985757072], 2.4507844238987997),
    "wide3": ([1.2945851571401823, 1.2137357175079957, 1.0456110550799744, 1.1112886043696752,
               1.3165037508932862, 1.1818327614275361, 1.171576354381669, 1.3062595546738796,
               1.1066395640625577, 1.2834165391382286, 1.2121543717037484, 1.1547526776703165,
               1.1654568617723715, 1.0687046389632748, 1.0419245290942512, 1.0087878439988034,
               1.233002362686443, 1.0910274923972931, 1.120697891079953, 1.2032511603514426,
               1.3540941482220805, 1.0019225472830353, 1.2343824376338426, 1.2115840513328993,
               1.0, 1.1060909819497355, 1.154530785440316, 1.045567060738235,
               1.3886137891130623, 1.0906163721735243], 2.343134646668194),
}

CONFIGS = {"distributed": lambda: inputs.DISTRIBUTED,
           **{f"wide{s}": (lambda s=s: inputs.wide_network(s, 30)) for s in range(4)}}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_printed_certificate_is_pinned(name, tmp_path, capsys):
    path = builtin_config_path()
    if name in CONFIGS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CONFIGS[name]()))
    assert main(["certify", str(path), "--grid", "256"]) == 0
    cert = json.loads(capsys.readouterr().out)["results"]["certificate"]
    xi, eta = PRINTED[name]
    assert cert["xi"] == pytest.approx(xi, rel=1e-12, abs=0.0)
    assert cert["eta"] == pytest.approx(eta, rel=1e-12, abs=0.0)


# --- rows too large for the LP ---------------------------------------------------

@pytest.mark.parametrize("argv", [["certify"], ["compare", "--draws", "10"],
                                  ["find-period", "--h", "1e-2"]], ids=lambda a: a[0])
def test_rows_past_the_float_range_are_an_input_error(argv, tmp_path):
    # unit 1's row sums 1e308 + 1e308 at unit weights: past the float range
    with open(builtin_config_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["a"][0][0] = doc["a"][0][1] = 1e308
    path = tmp_path / "huge_a.json"
    path.write_text(json.dumps(doc))
    src = str(Path(certify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "always", "-m", "periodyn.cli", argv[0],
                           str(path), "--grid", "256", *argv[1:]],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: unit 1: the gains of its dominance row, at weights up to "
                           "1e+06, sum past the float range\n")

