"""periodyn: certify, simulate and compare periodically forced delayed networks."""

from .expressions import PeriodicExpr, Term, const, expr_sum, term_expr
from .kernels import (Atom, DelayKernel, DistributedPart, ExponentialDensity, TableDensity,
                      UniformDensity)
from .model import (Activation, ConstantIC, ExprIC, HermiteNodes, NetworkModel, SampledIC,
                    SampledModel, ValidationReport, builtin_example, validate)
from .config import ConfigError, model_to_config, parse_config
from .certify import (Certificate, CriterionReport, ModelShapeError,
                      check_period_scaled_criterion, check_row_dominance,
                      check_split_sup_criterion, check_sup_criterion, compute_bounds,
                      find_decay_rate, find_weights, search_split_sup_criterion,
                      search_sup_criterion)
from .integrate import DivergenceError, HistoryBuffer, HistoryUnderrunError, Trajectory, simulate
from .periodic import (NoConvergenceError, PeriodSegment, RateFit,
                       estimate_decay_rate, find_periodic_orbit, period_map,
                       verify_periodicity)

__version__ = "0.1.0"
