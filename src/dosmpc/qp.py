"""Self-contained dense convex QP solver for equality plus box constraints.

    minimize    0.5 z'Pz + q'z
    subject to  Aeq z = beq,   lb <= z <= ub

The method is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983), warm-started from the bound rows at which a previous
optimizer sits, as in qpOASES (Ferreau et al., Math. Prog. Comp. 2014). The
equality rows are always in the working set; each iteration solves the KKT
system of the equalities plus the working set's box rows, refined in
extended precision. A ``Solver`` keeps the last working set's factorization:
in closed loop only q, beq and the bounds change between solves, so the
optimizer is one affine map per working set (Bemporad et al., Automatica
2002). Problem sizes here stay in the low hundreds of variables, so dense
factorizations are ample.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError

__all__ = ["QpProblem", "QpSolution", "Settings", "Solver", "solve", "kkt_residuals",
           "dump_problem", "load_problem"]

# Bound violations and wrong-sign box multipliers up to this size are ignored.
_TOL = 1e-9
# A unit box row closer than this to the span of the working set's rows
# counts as linearly dependent on them (the rows themselves have norm one).
_DEPENDENT = 1e-9


@dataclass(frozen=True)
class QpProblem:
    """Dense QP data. P is symmetrized on construction; bounds may be infinite."""

    p: np.ndarray
    q: np.ndarray
    aeq: np.ndarray
    beq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionError(f"P must be square, got {p.shape}")
        if not np.array_equal(p, p.T):
            if np.linalg.norm(p - p.T) > 1e-12 * max(1.0, np.linalg.norm(p)):
                raise DimensionError("P must be symmetric to 1e-12")
            p = 0.5 * (p + p.T)
        object.__setattr__(self, "p", p)
        n = p.shape[0]
        q = np.asarray(self.q, dtype=float).reshape(-1)
        aeq = np.asarray(self.aeq, dtype=float).reshape(-1, n) if np.size(self.aeq) else np.zeros((0, n))
        beq = np.asarray(self.beq, dtype=float).reshape(-1)
        lb = np.asarray(self.lb, dtype=float).reshape(-1)
        ub = np.asarray(self.ub, dtype=float).reshape(-1)
        if q.shape != (n,) or lb.shape != (n,) or ub.shape != (n,):
            raise DimensionError("q, lb, ub must all have length n")
        if aeq.shape[0] != beq.shape[0]:
            raise DimensionError("Aeq and beq row counts differ")
        if np.any(lb > ub):
            raise DimensionError("lb must be <= ub componentwise")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "aeq", aeq)
        object.__setattr__(self, "beq", beq)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass
class QpSolution:
    """``iterations`` counts working-set changes; ``polished`` is true when
    ``z`` passed the termination check, which is what ``"optimal"`` means."""

    z: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str
    y_eq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mu: np.ndarray = field(default_factory=lambda: np.zeros(0))
    polished: bool = False


@dataclass
class Settings:
    """``max_iter`` caps the number of working-set changes.

    Termination uses eps_abs + eps_rel * scale plus an evaluation-floor
    term eps_machine * max_i (|A||z| + |v|)_i (and its dual analogue): the
    rounding noise of evaluating the residual itself. Without it, problems
    whose constraint rows span many decades can never terminate, since even
    the exact optimizer rounded to float64 evaluates above eps_abs."""

    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iter: int = 50_000


def _objective(problem: QpProblem, z: np.ndarray) -> float:
    return float(0.5 * z @ problem.p @ z + problem.q @ z)


def _ext_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product accumulated in extended precision.

    Constraint rows built from an unstable open-loop record span many decades;
    cancellation in float64 limits evaluable residuals to roughly 1e-7 there.
    80-bit accumulation pushes the evaluation floor below the 1e-8 tolerance.
    """
    return (np.asarray(a, np.longdouble) @ x.astype(np.longdouble)).astype(float)


def kkt_residuals(problem: QpProblem, z, y_eq=None, mu=None):
    """(primal, dual, complementarity) infinity-norm residuals at a candidate.

    ``y_eq`` are the equality multipliers, ``mu`` the box multipliers
    (positive entries push at the upper bound, negative at the lower). A
    box multiplier on an infinite bound counts toward the complementarity
    gap at its own magnitude.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    y_eq = np.zeros(problem.aeq.shape[0]) if y_eq is None else np.asarray(y_eq, float).reshape(-1)
    mu = np.zeros(problem.n) if mu is None else np.asarray(mu, float).reshape(-1)
    return _residuals(problem, z, mu, _ext_matvec(problem.aeq, z),
                      _ext_matvec(problem.aeq.T, y_eq))


def _residuals(problem: QpProblem, z, mu, aeq_z, aeqt_y):
    """``kkt_residuals`` given the extended-precision products Aeq z and Aeq' y."""
    eq_res = aeq_z - problem.beq
    box_low = np.maximum(problem.lb - z, 0.0)
    box_high = np.maximum(z - problem.ub, 0.0)
    primal = max(
        np.max(np.abs(eq_res)) if eq_res.size else 0.0,
        np.max(box_low, initial=0.0),
        np.max(box_high, initial=0.0),
    )
    stat = problem.p @ z + problem.q + mu + aeqt_y
    dual = float(np.max(np.abs(stat), initial=0.0))
    mu_hi = np.maximum(mu, 0.0)
    mu_lo = np.maximum(-mu, 0.0)
    ub_gap = np.where(np.isfinite(problem.ub), np.abs(problem.ub - z), 1.0)
    lb_gap = np.where(np.isfinite(problem.lb), np.abs(z - problem.lb), 1.0)
    comp = float(max(np.max(mu_hi * ub_gap, initial=0.0),
                     np.max(mu_lo * lb_gap, initial=0.0)))
    return float(primal), dual, comp


def _active_rows(problem: QpProblem, lo, hi):
    """Equality rows, then unit rows pinning ``lo`` at lb and ``hi`` at ub."""
    sel = np.zeros((lo.size + hi.size, problem.n))
    sel[np.arange(sel.shape[0]), np.concatenate([lo, hi])] = 1.0
    return np.vstack([problem.aeq, sel])


def _span_distances(problem: QpProblem, lo, hi, idx) -> np.ndarray:
    """Distance of each unit row e_i, i in ``idx``, from the span of the
    active rows of (lo, hi) and of the rows of ``idx`` before it: the
    diagonal of R in a QR factorization of the stacked rows."""
    if not len(idx):
        return np.zeros(0)
    a = _active_rows(problem, lo, np.concatenate([hi, idx]))
    diag = np.abs(np.diagonal(np.linalg.qr(a.T, mode="r")))[a.shape[0] - len(idx):]
    dist = np.zeros(len(idx))
    dist[:diag.size] = diag
    return dist


class Solver:
    """Warm-started dual active-set QP solver.

    The working set starts from the box rows at which ``warm_z`` sits at a
    bound, keeping only rows linearly independent of the equalities and of
    each other. Rows whose multipliers have the wrong sign leave it; then
    violated bounds enter it one at a time, Goldfarb-Idnani style: the
    entering row's multiplier grows from zero while a ratio test drops any
    working-set row whose multiplier reaches zero first. When the entering
    row depends linearly on the working set, the step changes multipliers
    only, and no blocking row means the constraints are infeasible. The
    returned ``z`` is the refined KKT solution on the final working set and
    counts as optimal only after it passes the termination check of
    ``Settings``.

    The solver remembers one factorization, the inverse of the last working
    set's regularized KKT matrix, across calls too. Another working set
    rebuilds it; a P or Aeq not exactly equal to the copies it was built
    from (a new problem, or the same arrays changed in place) drops it. A
    reused solver returns bit for bit what a fresh one returns; one solver
    must not be shared between threads.
    """

    def __init__(self, settings: Optional[Settings] = None):
        self.settings = settings or Settings()
        self._p = self._aeq = self._p_ext = self._aeq_ext = None
        self._key = self._kkt_inv = None

    def _adopt(self, problem: QpProblem) -> None:
        """Drop the remembered factorization unless it belongs to this P and Aeq."""
        if not (np.array_equal(problem.p, self._p) and np.array_equal(problem.aeq, self._aeq)):
            self._p, self._aeq = problem.p.copy(), problem.aeq.copy()
            self._p_ext, self._aeq_ext = (a.astype(np.longdouble) for a in (self._p, self._aeq))
            self._key = None

    def solve(self, problem: QpProblem, warm_z=None) -> QpSolution:
        s = self.settings
        n, lb, ub = problem.n, problem.lb, problem.ub
        self._adopt(problem)
        lo = hi = empty = np.zeros(0, dtype=int)
        if warm_z is not None:
            warm = np.asarray(warm_z, float).reshape(n)
            lo, hi = np.flatnonzero(warm <= lb + _TOL), np.flatnonzero(warm >= ub - _TOL)
            keep = _span_distances(problem, empty, empty, np.concatenate([lo, hi])) > _DEPENDENT
            lo, hi = lo[keep[:lo.size]], hi[keep[lo.size:]]

        changes, status = 0, "optimal"
        enter, t = None, 0.0  # the bound row being added (index, sign) and its multiplier
        while True:
            direction = None
            if enter is not None:
                direction = np.zeros(n)
                direction[enter[0]] = enter[1]
            z, y_eq, mu, step = self._solve_active(problem, lo, hi, direction)
            if enter is None:
                wrong_lo, wrong_hi = lo[mu[lo] > _TOL], hi[mu[hi] < -_TOL]
                viol = np.maximum(lb - z, z - ub)
                viol[lo] = viol[hi] = 0.0
                p = int(np.argmax(viol))
                if not (wrong_lo.size or wrong_hi.size or viol[p] > _TOL):
                    break
                if changes >= s.max_iter:
                    status = "max_iter"
                    break
                if wrong_lo.size or wrong_hi.size:
                    lo, hi = np.setdiff1d(lo, wrong_lo), np.setdiff1d(hi, wrong_hi)
                    changes += wrong_lo.size + wrong_hi.size
                else:
                    enter, t = (p, 1.0 if z[p] > ub[p] else -1.0), 0.0
                continue

            # Raise the entering row's multiplier from t: z and the working
            # set's multipliers move along the step solved for its direction.
            p, sign = enter
            dz, dmu = step
            rows = np.concatenate([lo, hi])
            signs = np.concatenate([-np.ones(lo.size), np.ones(hi.size)])
            lam = signs * (mu[rows] + t * dmu[rows])
            dlam = signs * dmu[rows]
            blocking = dlam < -_TOL
            tau = np.full(rows.size, np.inf)
            tau[blocking] = np.maximum(lam[blocking], 0.0) / -dlam[blocking]
            tau_drop = np.min(tau, initial=np.inf)
            tau_add = np.inf
            if _span_distances(problem, lo, hi, [p])[0] > _DEPENDENT:
                zp = z[p] + t * dz[p]
                tau_add = (zp - ub[p] if sign > 0 else lb[p] - zp) / -(sign * dz[p])
            if tau_add == np.inf and tau_drop == np.inf:
                status = "infeasible"
                break
            if changes >= s.max_iter:
                status = "max_iter"
                break
            changes += 1
            if tau_add <= tau_drop:
                if sign > 0:
                    hi = np.union1d(hi, [p])
                else:
                    lo = np.union1d(lo, [p])
                enter = None
            else:
                t += tau_drop
                drop = rows[np.argmin(tau)]
                lo, hi = lo[lo != drop], hi[hi != drop]

        aeq_z, aeqt_y = _ext_matvec(self._aeq_ext, z), _ext_matvec(self._aeq_ext.T, y_eq)
        r_p, r_d, _ = _residuals(problem, z, mu, aeq_z, aeqt_y)
        e_p, e_d = self._tolerances(problem, z, y_eq, mu, aeq_z, aeqt_y)
        polished = status == "optimal" and r_p <= e_p and r_d <= e_d
        if status == "optimal" and not polished:
            status = "inaccurate"
        return QpSolution(z=z, objective=_objective(problem, z), primal_residual=r_p,
                          dual_residual=r_d, iterations=changes, status=status,
                          y_eq=y_eq, mu=mu, polished=polished)

    def _tolerances(self, problem, z, y_eq, mu, aeq_z, aeqt_y):
        """Primal and dual termination bounds at a candidate: eps_abs, plus
        eps_rel times the largest term of each residual, plus the float64
        floor of evaluating it. ``aeq_z`` and ``aeqt_y`` are Aeq z and
        Aeq' y_eq accumulated in extended precision."""
        s = self.settings
        eps_m = float(np.finfo(float).eps)
        box = np.isfinite(problem.lb) | np.isfinite(problem.ub)
        z_box = np.abs(z[box])
        v_box = np.abs(np.clip(z, problem.lb, problem.ub)[box])
        abs_z = np.abs(z)
        abs_aeq = np.abs(problem.aeq)
        floor_p = eps_m * max(np.max(abs_aeq @ abs_z + np.abs(problem.beq), initial=0.0),
                              np.max(z_box + v_box, initial=0.0))
        floor_d = eps_m * np.max(np.abs(problem.p) @ abs_z + abs_aeq.T @ np.abs(y_eq)
                                 + np.abs(mu) + np.abs(problem.q), initial=0.0)
        e_p = s.eps_abs + s.eps_rel * max(
            np.max(np.abs(aeq_z), initial=0.0),
            np.max(np.abs(problem.beq), initial=0.0),
            np.max(z_box, initial=0.0), np.max(v_box, initial=0.0)) + floor_p
        e_d = s.eps_abs + s.eps_rel * max(
            np.max(np.abs(problem.p @ z), initial=0.0),
            np.max(np.abs(aeqt_y + mu), initial=0.0),
            np.max(np.abs(problem.q), initial=0.0)) + floor_d
        return float(e_p), float(e_d)

    def _solve_active(self, problem, lo_act, hi_act, direction=None):
        """Refined KKT solve with the given box rows pinned at their bounds.

        Returns z, the equality multipliers and the box multipliers mu. With
        a ``direction`` c, also returns (dz, dmu): their change per unit of an
        added cost term c'z, from the same KKT matrix; otherwise None.
        """
        n, m_eq = problem.n, problem.aeq.shape[0]
        pinned = np.concatenate([lo_act, hi_act])
        key = (lo_act.tolist(), hi_act.tolist())
        if key != self._key:
            a_act, delta = _active_rows(problem, lo_act, hi_act), 1e-9
            self._kkt_inv = np.linalg.inv(np.block([
                [problem.p + delta * np.eye(n), a_act.T],
                [a_act, -delta * np.eye(a_act.shape[0])]]))
            self._key = key
        target = np.concatenate([-problem.q, problem.beq, problem.lb[lo_act], problem.ub[hi_act]])
        if direction is not None:
            target = np.column_stack([target, np.concatenate([-direction, np.zeros_like(target[n:])])])
        sol = self._kkt_inv @ target
        # Refine against the unregularized system with residuals accumulated
        # in extended precision, block by block from the long-double P and
        # Aeq: removes the delta regularization and drives the true residual
        # toward the 80-bit evaluation floor.
        target_ext = target.astype(np.longdouble)
        for _ in range(3):
            ext = sol.astype(np.longdouble)
            z = ext[:n]
            top = self._p_ext @ z + self._aeq_ext.T @ ext[n:n + m_eq]
            top[pinned] += ext[n + m_eq:]
            resid = target_ext - np.concatenate([top, self._aeq_ext @ z, z[pinned]])
            sol = sol + self._kkt_inv @ resid.astype(float)

        def split(sol):
            mu = np.zeros(n)
            mu[pinned] = sol[n + m_eq:]
            return sol[:n], sol[n:n + m_eq], mu

        if direction is None:
            return (*split(sol), None)
        z, y_eq, mu = split(sol[:, 0])
        dz, _, dmu = split(sol[:, 1])
        return z, y_eq, mu, (dz, dmu)


def solve(problem: QpProblem, settings: Optional[Settings] = None, warm_z=None) -> QpSolution:
    """Single-shot convenience wrapper around Solver."""
    return Solver(settings).solve(problem, warm_z=warm_z)


def dump_problem(problem: QpProblem) -> str:
    """Serialize to JSON (row-major dense arrays; infinite bounds as null)."""
    def encode_bounds(v):
        return [None if not np.isfinite(x) else float(x) for x in v]

    return json.dumps({
        "p": problem.p.tolist(),
        "q": problem.q.tolist(),
        "aeq": problem.aeq.tolist(),
        "beq": problem.beq.tolist(),
        "lb": encode_bounds(problem.lb),
        "ub": encode_bounds(problem.ub),
    })


def load_problem(text: str) -> QpProblem:
    obj = json.loads(text)
    n = len(obj["q"])
    lb = np.array([-np.inf if v is None else v for v in obj["lb"]])
    ub = np.array([np.inf if v is None else v for v in obj["ub"]])
    aeq = np.array(obj["aeq"], dtype=float).reshape(-1, n) if obj["aeq"] else np.zeros((0, n))
    return QpProblem(p=np.array(obj["p"]), q=np.array(obj["q"]), aeq=aeq,
                     beq=np.array(obj["beq"]), lb=lb, ub=ub)
