"""Closed-loop control policies.

Both controllers share one loop protocol: ``step(t, attack)`` emits the input
for time instant t, and ``finish(zeta, u)`` hands back the noisy measurement
taken once that input is applied (with a direct feedthrough term the
measurement depends on it). Measurements stay at the sensor side; the attack
indicator gates only what reaches the controller at success instants.

The data-driven controller solves the predictive program at success instants,
at most once per ``period`` steps, and replays the cached predicted inputs in
between, falling back to zero once the plan runs out (predict, hold, then
zero). With ``period`` = n_x it is the periodic scheme, which trades
resilience for an enlarged feasibility region.

The model-based controller's loop is linear in its state, so it also gives
the loop around a plant as one matrix per attack mode (``modes``);
``experiment.run_experiment`` runs model-based experiments on those.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import HankelPair
from .errors import DimensionError, check_numbers
from .lti import GainSet, SystemModel
from .mpc import MpcAssembler, MpcConfig, MpcSolution, solve_mpc
from .qp import Solver

__all__ = ["StepResult", "DataDrivenController", "ModelBasedController"]


@dataclass
class StepResult:
    """Applied input and, on a solve step, the solution it came from."""

    u: np.ndarray
    solution: Optional[MpcSolution] = None

    solved = property(lambda self: self.solution is not None)


class DataDrivenController:
    """Resilient data-driven MPC: solve on success, hold the cached plan
    during attacks and between solves, emit zero once the plan runs out.

    ``finish`` feeds the eta-long windows of applied inputs and of noisy
    measurements, attacked instants included; a solve starts from both."""

    def __init__(self, data: HankelPair, config: MpcConfig, period: int = 1):
        check_numbers({"period": period}, {"period": (numbers.Integral, 1, False, False)})
        self.config = config
        self.period = period
        self.assembler = MpcAssembler(data, config)
        self.solver = Solver(self.assembler.problem)
        self.input_window = np.zeros((config.eta, data.n_u))
        # NaN marks a slot that no measurement has filled yet.
        self.output_window = np.full((config.eta, data.n_y), np.nan)
        self.cached: Optional[MpcSolution] = None
        self.last_solve: Optional[int] = None

    def step(self, t: int, attack: bool) -> StepResult:
        due = self.last_solve is None or (t - self.last_solve) % self.period == 0
        if not attack and t >= self.config.eta and due:
            if np.isnan(self.output_window).any():
                raise ValueError("a solve needs the last eta measurements passed to finish")
            solution = solve_mpc(self.assembler, self.input_window, self.output_window,
                                 warm=self.cached, solver=self.solver)
            self.cached, self.last_solve = solution, t
            return StepResult(u=solution.u_pred[0], solution=solution)
        if self.cached is not None and 1 <= t - self.last_solve <= self.config.horizon - 1:
            return StepResult(u=self.cached.u_pred[t - self.last_solve])
        return StepResult(u=np.zeros(self.assembler.vmap.n_u))

    def finish(self, zeta, u) -> None:
        """Shift the applied input and the measurement taken after it into
        the windows, in place."""
        if len(u) != self.input_window.shape[1] or len(zeta) != self.output_window.shape[1]:
            raise DimensionError("u and zeta must have the data's n_u and n_y entries")
        for window, row in ((self.input_window, u), (self.output_window, zeta)):
            window[:-1] = window[1:]
            window[-1] = row


class ModelBasedController:
    """Observer/predictor baseline with a deadbeat observer gain.

    The observer lives at the sensor side and sees the (noisy) measurement at
    every step; DoS gates only the estimate transfer into the predictor.
    """

    def __init__(self, model: SystemModel, gains: GainSet):
        self.model = model
        self.gains = gains
        n, l_obs = model.n_x, gains.l_obs
        # s = [xbar; xhat] advances as s+ = M [s; u; zeta], with
        # M = [[A - LC, 0, B - LD, L], [0, A, B, 0]].
        self._map = np.block([[model.a - l_obs @ model.c, np.zeros((n, n)),
                               model.b - l_obs @ model.d, l_obs],
                              [np.zeros((n, n)), model.a, model.b, np.zeros((n, model.n_y))]])
        self._s = np.zeros(2 * n)
        self.xbar, self.xhat = self._s[:n], self._s[n:]

    def step(self, t: int, attack: bool) -> StepResult:
        """Reset the predictor on successful transmission, emit the input."""
        if not attack:
            self.xhat[:] = self.xbar
        return StepResult(u=self.gains.k @ self.xhat)

    def finish(self, zeta, u) -> None:
        """Advance observer and predictor once the measurement exists."""
        if len(u) != self.model.n_u or len(zeta) != self.model.n_y:
            raise DimensionError("u and zeta must have the model's n_u and n_y entries")
        np.dot(self._map, np.concatenate((self._s, u, zeta)), out=self._s)

    def modes(self, plant: SystemModel):
        """The loop around ``plant`` as a switched linear system on
        xi = [x; xbar; xhat]: (free, attacked, noise), where ``free`` and
        ``attacked`` map xi to [u; y; xi+] on an attack-free and an attacked
        step, and ``noise`` adds one step's [w; noise] to xi+. An attack-free
        step resets xhat <- xbar before u = K xhat, as ``step`` does; xbar+
        and xhat+ come from the same map as ``finish``."""
        model, n, n_x = self.model, self.model.n_x, plant.n_x
        if plant.n_u != model.n_u or plant.n_y != model.n_y:
            raise DimensionError("the plant must have the model's n_u and n_y")
        pick = np.eye(n_x + 2 * n)
        x, xbar, xhat = pick[:n_x], pick[n_x:n_x + n], pick[n_x + n:]
        matrices = []
        for held in (xbar, xhat):
            u = self.gains.k @ held
            y = plant.c @ x + plant.d @ u
            s_next = self._map @ np.vstack((xbar, held, u, y))
            matrices.append(np.vstack((u, y, plant.a @ x + plant.b @ u, s_next)))
        noise = np.zeros((n_x + 2 * n, n_x + model.n_y))
        noise[:n_x, :n_x] = np.eye(n_x)
        noise[n_x:, n_x:] = self._map[:, 2 * n + model.n_u:]
        return matrices[0], matrices[1], noise
