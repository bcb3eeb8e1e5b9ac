"""Assembly and solution of the data-driven MPC program.

At each solve the decision vector is z = (g, h, u_stack, y_stack) where
u_stack and y_stack span window indices [-eta, L-1]. The program is

    min  sum_{i=0}^{L-1} ||u_i||^2_R1 + ||y_i||^2_R2
         + lambda_g * v_bar * ||g||^2 + (lambda_h / v_bar) * ||h||^2
    s.t. [u_stack; y_stack + h] = [Hu; Hy] g          (trajectory span)
         (u_stack, y_stack)[-eta..-1] = recent applied inputs / received outputs
         (u_stack, y_stack)[L-eta..L-1] = 0           (terminal anchor)
         -u_max <= u_i <= u_max  for i in [0, L-1]

The slack h relaxes only the output rows, keeping the program feasible for
any received noisy window.
"""
from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import HankelPair
from .errors import ConfigError, DimensionError, SolverError, check_numbers
from .qp import QpProblem, QpSolution, Solver, _p_dot

__all__ = ["MpcConfig", "MpcSolution", "VariableMap", "MpcAssembler", "solve_mpc"]

logger = logging.getLogger(__name__)

_V_BAR_FLOOR = 1e-9
_RIDGE = 1e-8
# Numeric field rules for errors.check_numbers (u_max = inf: no input box).
# ExperimentConfig reads the rules of the fields it shares from here.
_FIELD_RULES = {**dict.fromkeys(("horizon", "eta"), (numbers.Integral, 1, False, False)),
                **dict.fromkeys(("lambda_g", "lambda_h"), (numbers.Real, 0, True, False)),
                "v_bar": (numbers.Real, 0, False, False), "u_max": (numbers.Real, 0, True, True)}


def _weight_matrix(value, dim: int, name: str) -> np.ndarray:
    w = np.asarray(value, dtype=float)
    if w.ndim == 0:
        w = float(w) * np.eye(dim)
    if w.shape != (dim, dim):
        raise DimensionError(f"{name} must be scalar or {dim}x{dim}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    if np.linalg.norm(w - w.T) > 1e-12 * max(1.0, np.linalg.norm(w)):
        raise ValueError(f"{name} must be symmetric")
    if np.any(np.linalg.eigvalsh(0.5 * (w + w.T)) <= 0):
        raise ValueError(f"{name} must be positive definite")
    return 0.5 * (w + w.T)


@dataclass(frozen=True)
class MpcConfig:
    """Tuning knobs of the predictive controller.

    ``horizon`` is the prediction length L; ``eta`` the initialization window
    length (the plant's observability index). ``r1`` / ``r2`` may be scalars
    (scaled identity) or full weight matrices. ``v_bar`` is the declared noise
    bound; a value of exactly zero is clamped to 1e-9 inside the cost scaling
    only, with a logged warning.
    """

    horizon: int
    eta: int
    lambda_g: float
    lambda_h: float
    v_bar: float
    r1: object = 1.0
    r2: object = 1.0
    u_max: float = 10.0

    def __post_init__(self):
        check_numbers(vars(self), _FIELD_RULES)
        if self.horizon < self.eta:  # the terminal anchor would overlap the initial window
            raise ConfigError(f"horizon must be >= eta = {self.eta}, got {self.horizon}")

    @property
    def window(self) -> int:
        return self.horizon + self.eta

    def cost_noise_scale(self) -> float:
        return max(float(self.v_bar), _V_BAR_FLOOR)


@dataclass(frozen=True)
class VariableMap:
    """Slices of the decision vector z = (g, h, u_stack, y_stack)."""

    g: slice
    h: slice
    u: slice
    y: slice
    n: int
    window: int
    n_u: int
    n_y: int


@dataclass
class MpcSolution:
    """Extracted optimizer. ``u_pred`` / ``y_pred`` cover offsets [0, L-1];
    ``h`` covers the full window [-eta, L-1]. The four arrays are read-only
    views of one projected copy of z, and ``cost`` is the program objective
    z'Wz on that copy, with W = P without its ridge, halved. The QP's own
    facts, its ``z``, iterations, status and residuals, are read from
    ``qp_solution``."""

    u_pred: np.ndarray
    y_pred: np.ndarray
    g: np.ndarray
    h: np.ndarray
    cost: float
    qp_solution: QpSolution = field(repr=False)


class MpcAssembler:
    """Builds the QP once, as ``problem``, and poses each step's instance
    from fresh windows.

    The static arrays (P, Aeq, q, bounds) and the weight matrices are built
    and validated once, as one ``QpProblem`` whose ``param_rows`` are the
    initial-window rows of beq; an instance is their values b, from ``qp``.
    """

    def __init__(self, hankel: HankelPair, config: MpcConfig):
        if hankel.source is None or hankel.source.pe is None or not hankel.source.pe.excited:
            raise ValueError("offline data carries no persistency-of-excitation certificate")
        if hankel.depth != config.window:
            raise DimensionError(f"Hankel depth {hankel.depth} must equal horizon+eta = {config.window}")
        if config.v_bar < _V_BAR_FLOOR:
            logger.warning("v_bar=%g clamped to %g in cost scaling", config.v_bar, _V_BAR_FLOOR)
        self.config = config
        w, eta = config.window, config.eta
        n_u, n_y, n_g = hankel.n_u, hankel.n_y, hankel.hu.shape[1]

        off_h, off_u, off_y = n_g, n_g + w * n_y, n_g + w * (n_y + n_u)
        n = off_y + w * n_y
        self.vmap = VariableMap(
            g=slice(0, n_g), h=slice(off_h, off_u), u=slice(off_u, off_y),
            y=slice(off_y, n), n=n, window=w, n_u=n_u, n_y=n_y,
        )

        vc = config.cost_noise_scale()
        r1 = _weight_matrix(config.r1, n_u, "R1")
        r2 = _weight_matrix(config.r2, n_y, "R2")
        # The objective is z'Wz; P is 2W plus the ridge.
        weight = self._weight = np.zeros((n, n))
        weight[self.vmap.g, self.vmap.g] = config.lambda_g * vc * np.eye(n_g)
        weight[self.vmap.h, self.vmap.h] = (config.lambda_h / vc) * np.eye(w * n_y)
        for i in range(eta, w):
            su = slice(off_u + i * n_u, off_u + (i + 1) * n_u)
            sy = slice(off_y + i * n_y, off_y + (i + 1) * n_y)
            weight[su, su] = r1
            weight[sy, sy] = r2
        # Scalar R1 and R2 make W diagonal: then the cost takes W z elementwise.
        diagonal = np.count_nonzero(weight) == np.count_nonzero(np.diagonal(weight))
        self._weight_diag = np.diagonal(weight).copy() if diagonal else None
        p = 2.0 * weight + _RIDGE * np.eye(n)

        m = w * (n_u + n_y) + 2 * eta * (n_u + n_y)
        a, r = np.zeros((m, n)), w * n_u
        a[:r, self.vmap.g], a[:r, self.vmap.u] = -hankel.hu, np.eye(r)
        a[r:r + w * n_y, self.vmap.g] = -hankel.hy
        a[r:r + w * n_y, self.vmap.h] = a[r:r + w * n_y, self.vmap.y] = np.eye(w * n_y)
        r += w * n_y
        init_rows = np.arange(r, r + eta * (n_u + n_y))
        # Initial window (u, then y), then terminal anchor (u, then y).
        for col, size in ((off_u, n_u), (off_y, n_y), (off_y - eta * n_u, n_u), (n - eta * n_y, n_y)):
            a[np.arange(r, r + eta * size), col + np.arange(eta * size)] = 1.0
            r += eta * size

        lb, ub, q = np.full(n, -np.inf), np.full(n, np.inf), np.zeros(n)
        lb[off_u + eta * n_u: off_u + w * n_u] = -config.u_max
        ub[off_u + eta * n_u: off_u + w * n_u] = config.u_max
        self.problem = QpProblem(p=p, q=q, aeq=a, beq=np.zeros(m), lb=lb, ub=ub, param_rows=init_rows)

    def qp(self, init_u, init_zeta) -> np.ndarray:
        """The values b of the problem's param rows for an initial window
        holding ``init_u`` and ``init_zeta``, eta samples each."""
        for name, arr, dim in (("init_u", init_u, self.vmap.n_u), ("init_zeta", init_zeta, self.vmap.n_y)):
            if np.size(arr) != self.config.eta * dim:
                raise DimensionError(f"{name} must hold {self.config.eta} samples of dimension {dim}, "
                                     f"got shape {np.shape(arr)}")
        return np.concatenate([np.ravel(init_u), np.ravel(init_zeta)], dtype=float)

    def extract(self, qp_solution) -> MpcSolution:
        """The plan in one read-only copy of z, with its terminal anchor set
        to zero and its inputs clipped to the box, after checking that z
        misses neither by more than the solver's tolerance."""
        cfg, vm = self.config, self.vmap
        z = qp_solution.z.copy()
        u_pred, y_pred = (z[s].reshape(vm.window, -1)[cfg.eta:] for s in (vm.u, vm.y))
        anchor = cfg.horizon - cfg.eta
        tail = max(np.abs(u_pred[anchor:]).max(), np.abs(y_pred[anchor:]).max())
        if tail > 1e-6:
            raise SolverError(f"terminal anchor violated: {tail:.3g}")
        if np.abs(u_pred).max() > cfg.u_max + 1e-8:
            raise SolverError("input box violated beyond tolerance")
        # Project onto the constraints the replay logic relies on exactly.
        u_pred[anchor:] = y_pred[anchor:] = 0.0
        np.clip(u_pred, -cfg.u_max, cfg.u_max, out=u_pred)
        for array in (z, u_pred, y_pred):  # views taken before z's stay writeable
            array.setflags(write=False)
        cost = float(_p_dot(self._weight, self._weight_diag, z, np.matmul) @ z)
        return MpcSolution(u_pred=u_pred, y_pred=y_pred, g=z[vm.g],
                           h=z[vm.h].reshape(vm.window, vm.n_y), cost=cost,
                           qp_solution=qp_solution)


def solve_mpc(assembler: MpcAssembler, init_u, init_zeta,
              warm: Optional[MpcSolution] = None,
              solver: Optional[Solver] = None) -> MpcSolution:
    """Solve one instance from the eta-long windows of applied inputs and
    received outputs; deterministic given identical inputs.

    The previous solution ``warm`` seeds the solver's working set with the
    input bounds it was pinned at. ``solver`` must be built for
    ``assembler.problem``. A non-optimal solver status is surfaced as
    SolverError with diagnostics.
    """
    b = assembler.qp(init_u, init_zeta)
    slv = solver or Solver(assembler.problem)
    if slv.problem is not assembler.problem:
        raise ValueError("solver was built for another problem than the assembler's")
    sol = slv.solve(b, warm_z=warm.qp_solution.z if warm is not None else None)
    if sol.status != "optimal":
        raise SolverError(f"QP terminated with status '{sol.status}' (primal {sol.primal_residual:.3g}, "
                          f"dual {sol.dual_residual:.3g}, {sol.iterations} iterations)")
    return assembler.extract(sol)
