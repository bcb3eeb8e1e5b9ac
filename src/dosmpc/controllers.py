"""Closed-loop control policies.

Three controllers share one step interface: called once per time instant with
the attack indicator and, on successful transmissions, the fresh packet. The
data-driven controllers solve the predictive program at success instants and
replay cached predicted inputs during attacks, falling back to zero once the
cache is exhausted (predict, hold, then zero).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import HankelPair
from .lti import GainSet, SystemModel
from .mpc import MpcAssembler, MpcConfig, MpcProblem, MpcSolution, solve_mpc
from .qp import Settings, Solver

__all__ = ["StepResult", "ControllerState", "DataDrivenController",
           "PeriodicDataDrivenController", "ModelBasedController"]


@dataclass
class StepResult:
    """Applied input plus solve diagnostics for the step (if one happened)."""

    u: np.ndarray
    solved: bool = False
    cost: Optional[float] = None
    qp_iterations: Optional[int] = None


@dataclass
class ControllerState:
    """Mutable loop state of a data-driven controller."""

    last_success: Optional[int] = None
    cached: Optional[MpcSolution] = None
    input_window: np.ndarray = field(default_factory=lambda: np.zeros(0))
    output_window: Optional[np.ndarray] = None
    last_solve: Optional[int] = None


class DataDrivenController:
    """Resilient data-driven MPC: solve on success, hold the cached plan
    during attacks, emit zero once the plan runs out.

    ``dump_dir``, when set, writes one JSON snapshot per solve step."""

    def __init__(self, data: HankelPair, config: MpcConfig,
                 settings: Optional[Settings] = None, dump_dir=None):
        self.config = config
        self.assembler = MpcAssembler(data, config)
        self.solver = Solver(settings or Settings())
        self.dump_dir = dump_dir
        self.state = ControllerState(
            input_window=np.zeros((config.eta, data.n_u)))

    def _solve(self, t: int, fresh_zeta) -> MpcSolution:
        st = self.state
        st.output_window = np.array(fresh_zeta, dtype=float)
        problem = MpcProblem(hankel=self.assembler.hankel,
                             init_u=st.input_window,
                             init_zeta=st.output_window,
                             config=self.config)
        solution = solve_mpc(problem, warm=st.cached, solver=self.solver,
                             assembler=self.assembler)
        st.cached = solution
        st.last_success = t
        if self.dump_dir is not None:
            from pathlib import Path

            from .mpc import dump_solution

            out = Path(self.dump_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"solve_{t:05d}.json").write_text(dump_solution(solution))
        return solution

    def _hold_or_zero(self, offset: Optional[int]) -> np.ndarray:
        st = self.state
        if st.cached is not None and offset is not None \
                and 1 <= offset <= self.config.horizon - 1:
            return st.cached.u_pred[offset]
        return np.zeros(self.assembler.vmap.n_u)

    def _apply(self, u: np.ndarray) -> np.ndarray:
        st = self.state
        st.input_window = np.vstack([st.input_window[1:], u[None, :]])
        return u

    def step(self, t: int, attack: bool, fresh_zeta=None) -> StepResult:
        st = self.state
        if not attack and t >= self.config.eta:
            if fresh_zeta is None:
                raise ValueError("successful transmission must carry the output window")
            solution = self._solve(t, fresh_zeta)
            u = self._apply(solution.u_pred[0])
            return StepResult(u=u, solved=True, cost=solution.cost,
                              qp_iterations=solution.qp_iterations)
        offset = None if st.last_success is None else t - st.last_success
        u = self._apply(self._hold_or_zero(offset))
        return StepResult(u=u)


class PeriodicDataDrivenController(DataDrivenController):
    """Variant that solves at most once per ``period`` steps (the plant order
    in the intended use), applying the cached plan in between even at success
    instants. Trades resilience for an enlarged feasibility region."""

    def __init__(self, data: HankelPair, config: MpcConfig, period: int,
                 settings: Optional[Settings] = None):
        super().__init__(data, config, settings)
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period

    def step(self, t: int, attack: bool, fresh_zeta=None) -> StepResult:
        st = self.state
        due = st.last_solve is None or (t - st.last_solve) % self.period == 0
        if not attack and t >= self.config.eta and due:
            if fresh_zeta is None:
                raise ValueError("successful transmission must carry the output window")
            solution = self._solve(t, fresh_zeta)
            st.last_solve = t
            u = self._apply(solution.u_pred[0])
            return StepResult(u=u, solved=True, cost=solution.cost,
                              qp_iterations=solution.qp_iterations)
        offset = None if st.last_solve is None else t - st.last_solve
        u = self._apply(self._hold_or_zero(offset))
        return StepResult(u=u)


class ModelBasedController:
    """Observer/predictor baseline with a deadbeat observer gain.

    The observer lives at the sensor side and sees the (noisy) measurement at
    every step; DoS gates only the estimate transfer into the predictor. When
    no measurement is supplied at all the observer coasts open loop.
    """

    def __init__(self, model: SystemModel, gains: GainSet):
        self.model = model
        self.gains = gains
        self.xbar = np.zeros(model.n_x)
        self.xhat = np.zeros(model.n_x)

    def begin(self, t: int, attack: bool) -> np.ndarray:
        """Reset the predictor on successful transmission, emit the input."""
        if not attack:
            self.xhat = self.xbar.copy()
        return self.gains.k @ self.xhat

    def finish(self, zeta, u) -> None:
        """Advance observer and predictor once the measurement exists.

        The split exists because with a direct feedthrough term the current
        measurement depends on the input just emitted."""
        m, g = self.model, self.gains
        u = np.asarray(u, dtype=float).reshape(m.n_u)
        if zeta is not None:
            zeta = np.asarray(zeta, dtype=float).reshape(m.n_y)
            innovation = zeta - (m.c @ self.xbar + m.d @ u)
            self.xbar = m.a @ self.xbar + g.l_obs @ innovation + m.b @ u
        else:
            self.xbar = m.a @ self.xbar + m.b @ u
        self.xhat = m.a @ self.xhat + m.b @ u

    def step(self, t: int, attack: bool, zeta=None) -> StepResult:
        u = self.begin(t, attack)
        self.finish(zeta, u)
        return StepResult(u=u)
