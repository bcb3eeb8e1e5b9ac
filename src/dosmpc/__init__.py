"""Data-driven resilient MPC of unknown LTI systems under DoS attacks.

Subpackages: lti (true-plant machinery and gain synthesis), data (Hankel
matrices and offline collection), qp (dense dual active-set QP solver),
mpc (the data-driven predictive program), dos (attack model), controllers
(closed-loop policies), experiment (scenario harness), cli.
"""

from .controllers import DataDrivenController, ModelBasedController
from .data import (HankelPair, Trajectory, build_hankel, collect_offline,
                   fundamental_lemma_residual, is_persistently_exciting)
from .dos import (AttackParams, DosSchedule, generate_random,
                  generate_worst_case, inter_success_bound, params_for_ratio,
                  validate_schedule)
from .experiment import (ExperimentConfig, RunRecord, compare, iss_metrics,
                         run_closed_loop, run_experiment, sweep)
from .lti import (GainSet, SystemModel, discretize, observability_index,
                  simulate, structural_matrices, synthesize_gains)
from .mpc import MpcConfig, MpcSolution, solve_mpc
from .plants import batch_reactor, batch_reactor_continuous
from .qp import QpProblem, QpSolution, Solver, kkt_residuals

__version__ = "0.1.0"

__all__ = [
    "AttackParams", "DosSchedule", "DataDrivenController", "ExperimentConfig",
    "GainSet", "HankelPair", "ModelBasedController", "MpcConfig",
    "MpcSolution", "QpProblem", "QpSolution",
    "RunRecord", "Solver", "SystemModel", "Trajectory",
    "batch_reactor", "batch_reactor_continuous", "build_hankel", "collect_offline",
    "compare", "discretize", "fundamental_lemma_residual", "generate_random",
    "generate_worst_case", "inter_success_bound", "is_persistently_exciting",
    "iss_metrics", "kkt_residuals", "observability_index", "params_for_ratio",
    "run_closed_loop", "run_experiment", "simulate",
    "solve_mpc", "structural_matrices", "sweep", "synthesize_gains",
    "validate_schedule",
]
