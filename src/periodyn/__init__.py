"""periodyn: certify, simulate and compare periodically forced delayed networks."""

from .expressions import PeriodicExpr, Term, const, expr_sum, term_expr
from .kernels import (Atom, DelayKernel, DistributedPart, ExponentialDensity, TableDensity,
                      UniformDensity)
from .model import (Activation, ConstantIC, HermiteNodes, NetworkModel, SampledIC, SampledModel,
                    ValidationReport, builtin_example, validate)
from .config import ConfigError, model_to_config, parse_config
from .certify import (Certificate, CriterionReport, ModelShapeError, check_row_dominance,
                      compare_criteria, compute_bounds, find_decay_rate, find_weights)
from .integrate import DivergenceError, HistoryBuffer, HistoryUnderrunError, Trajectory, simulate
from .periodic import NoConvergenceError, PeriodSegment, find_periodic_orbit, verify_periodicity

__version__ = "0.1.0"
