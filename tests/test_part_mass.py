"""One rule for a kernel part's mass, one part order, one builtin network."""

import math

import pytest

from periodyn import certify, kernels
from periodyn.config import builtin_config_path, load_model
from periodyn.expressions import ZERO, const, term_expr
from periodyn.kernels import (Atom, DelayKernel, DistributedPart, ExponentialDensity,
                              TableDensity, UniformDensity, exp_moment)
from periodyn.model import SampledModel, builtin_example

from helpers import scalar_model

PAST_THE_FLOAT_RANGE = {
    "atom": DelayKernel(atoms=(Atom(1.0, const(0.1)),)),
    "uniform": DelayKernel(density=DistributedPart(UniformDensity(1.0), const(0.1))),
    "table": DelayKernel(density=DistributedPart(TableDensity((0.0, 1.0), (1.0, 1.0)),
                                                 const(0.1))),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(PAST_THE_FLOAT_RANGE))
def test_moment_past_the_float_range_is_inf_and_finite(name):
    moment = exp_moment(PAST_THE_FLOAT_RANGE[name], 0.0, 800.0)
    assert moment.value == math.inf and moment.finite


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight", [ZERO, term_expr("sin", 1.0, 2)], ids=["empty", "zero_at_0"])
def test_part_without_weight_adds_zero_past_the_float_range(weight):
    moment = exp_moment(DelayKernel(atoms=(Atom(1.0, weight),)), 0.0, 800.0)
    assert moment.value == 0.0 and moment.finite


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_density_moment_is_flagged():
    kern = DelayKernel(atoms=(Atom(1.0, const(0.1)),),
                       density=DistributedPart(ExponentialDensity(2.0), const(0.1)))
    assert kernels.part_mass(kern.density, 2.0) == (math.inf, False)
    moment = exp_moment(kern, 0.0, 2.0)
    assert moment.value == math.inf and not moment.finite


def test_certificate_reads_the_kernels_mass_rule():
    assert certify._part_mass is kernels.part_mass


def test_parts_are_atoms_then_density():
    atoms = (Atom(0.0, const(0.3)), Atom(1.2, const(0.2)))
    density = DistributedPart(UniformDensity(1.5), const(0.1))
    assert DelayKernel(atoms, density).parts == atoms + (density,)
    assert DelayKernel(atoms).parts == atoms
    assert DelayKernel().parts == ()


def test_sampled_kernel_parts_follow_each_kernels_parts():
    kern = DelayKernel((Atom(0.5, const(0.2)),),
                       DistributedPart(ExponentialDensity(3.0), const(0.1)))
    sm = SampledModel(scalar_model(2.0, kernel=kern, tau=const(0.1)), [0.0, 0.5])
    assert [part for *_, part in sm.kernel_parts] == list(kern.parts)


def test_builtin_example_is_the_bundled_config():
    assert builtin_example() == load_model(builtin_config_path())
