"""Self-contained dense convex QP solver for equality plus box constraints.

    minimize    0.5 z'Pz + q'z
    subject to  Aeq z = beq,   lb <= z <= ub

The method is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983), warm-started from the bound rows at which a previous
optimizer sits, as in qpOASES (Ferreau et al., Math. Prog. Comp. 2014). The
base KKT matrix K = [[P, Aeq'], [Aeq, 0]] is inverted once per (P, Aeq), and
every working set is reached from it by the Schur complement of its box rows
(Gill, Murray, Saunders and Wright, SIAM J. Sci. Stat. Comput. 1990), refined
in extended precision. A box row i joins a working set W only if its pivot
e_i' K_W^-1 e_i, zero exactly when the row depends on the rows of W and Aeq,
exceeds _DEPENDENT max_{i<n} (K^-1)_ii. So K must be nonsingular: Aeq of full
row rank and P positive definite on its null space. Outside that domain a
solve may end "inaccurate" even where an optimizer exists. A ``Solver`` is
built for one ``QpProblem`` and a solve takes only the values b of the beq
rows named by its ``param_rows``, the only ones that change in closed loop:
the QP is multiparametric in b (Bemporad et al., Automatica 2002). On a
working set the optimizer is affine in b, and the solver keeps that piece, so
a solve that keeps its working set costs one matvec plus, from the piece's
second use, a residual certificate in place of the full termination check.
Residuals and objective are computed when read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .errors import DimensionError

__all__ = ["QpProblem", "QpSolution", "Solver", "solve", "kkt_residuals"]

# Bound violations and wrong-sign box multipliers up to this size are ignored.
_TOL = 1e-9
# Dependence: a box row's KKT pivot <= this times max_{i<n} (K^-1)_ii, scaled as pivots are.
_DEPENDENT = 1e-13


@dataclass(frozen=True)
class QpProblem:
    """Dense QP data, kept as read-only copies, so that nothing changes under
    a ``Solver``. P is symmetrized on construction; bounds may be infinite.

    ``param_rows`` names the beq rows, sorted and unique, whose values b a
    ``Solver`` of this problem takes per solve; ``with_beq`` makes such an
    instance."""

    p: np.ndarray
    q: np.ndarray
    aeq: np.ndarray
    beq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    param_rows: Sequence[int] = ()

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionError(f"P must be square, got {p.shape}")
        if not np.array_equal(p, p.T):
            if np.linalg.norm(p - p.T) > 1e-12 * max(1.0, np.linalg.norm(p)):
                raise DimensionError("P must be symmetric to 1e-12")
            p = 0.5 * (p + p.T)
        n = p.shape[0]
        q, beq, lb, ub = (np.array(np.reshape(v, -1), dtype=float)
                          for v in (self.q, self.beq, self.lb, self.ub))
        aeq = np.array(np.reshape(self.aeq, (-1, n)), dtype=float) if np.size(self.aeq) else np.zeros((0, n))
        if q.shape != (n,) or lb.shape != (n,) or ub.shape != (n,):
            raise DimensionError("q, lb, ub must all have length n")
        if aeq.shape[0] != beq.shape[0]:
            raise DimensionError("Aeq and beq row counts differ")
        if np.any(lb > ub):
            raise DimensionError("lb must be <= ub componentwise")
        rows = np.asarray(self.param_rows).reshape(-1)
        if rows.size and not (np.issubdtype(rows.dtype, np.integer) and np.all(np.diff(rows) > 0)
                              and 0 <= rows[0] and rows[-1] < beq.size):
            raise DimensionError("param_rows must be sorted, unique indices of beq rows")
        rows = rows.astype(int)
        for array in (p, q, aeq, beq, lb, ub, rows):
            array.setflags(write=False)
        self.__dict__.update(p=p, q=q, aeq=aeq, beq=beq, lb=lb, ub=ub, param_rows=rows)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def with_beq(self, beq) -> "QpProblem":
        """This problem with a read-only copy of another beq; the other fields
        are shared, not re-validated."""
        beq = np.array(np.reshape(beq, -1), dtype=float)
        if beq.shape != self.beq.shape:
            raise DimensionError(f"beq must have length {self.beq.size}, got {beq.size}")
        beq.setflags(write=False)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, beq=beq)
        return new


@dataclass
class QpSolution:
    """``iterations`` counts working-set changes; status ``"optimal"`` means
    that ``z`` passed the certificate (then ``certified``) or the full check,
    and ``polished`` reads it. ``objective`` and the residuals are those of
    ``problem``, the instance solved, by ``kkt_residuals``, computed at the
    first read."""

    z: np.ndarray
    iterations: int
    status: str
    problem: QpProblem = field(repr=False)
    y_eq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mu: np.ndarray = field(default_factory=lambda: np.zeros(0))
    certified: bool = False

    polished = property(lambda self: self.status == "optimal")
    _kkt = cached_property(lambda self: kkt_residuals(self.problem, self.z, self.y_eq, self.mu))
    primal_residual = property(lambda self: self._kkt[0])
    dual_residual = property(lambda self: self._kkt[1])
    objective = cached_property(lambda self: float(0.5 * self.z @ self.problem.p @ self.z
                                                   + self.problem.q @ self.z))


_EPS_ABS = 1e-8
_EPS_REL = 1e-8
# A solve stops with status "max_iter" after this many working-set changes.
_MAX_ITER = 50_000


def _ext_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product accumulated in extended precision.

    Constraint rows built from an unstable open-loop record span many decades;
    cancellation in float64 limits evaluable residuals to roughly 1e-7 there.
    80-bit accumulation pushes the evaluation floor below the 1e-8 tolerance.
    ``np.dot`` sums in the same order as ``@`` but without the generic
    matmul loop, which is several times slower on long double.
    """
    return np.dot(np.asarray(a, np.longdouble), x.astype(np.longdouble)).astype(float)


def _p_dot(p, diag, x, dot=np.dot):
    """``dot(p, x)`` bit for bit; callers pass np.dot for long double and
    np.matmul (``@``) for float64. A diagonal p's is diag * x + 0 (``diag``
    its diagonal, else None): the dense sum starts at +0. A non-finite x_i
    makes the dense product's whole column non-finite: then ``dot`` runs."""
    prod = None if diag is None else (diag * x.T).T + 0
    return prod if prod is not None and np.isfinite(prod).all() else dot(p, x)


_top = partial(np.maximum.reduce, initial=0.0)  # max(max_i a_i, 0), NaN if some a_i is


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
    primal, dual = _primal_dual(problem, z, mu, _ext_matvec(problem.aeq, z),
                                _ext_matvec(problem.aeq.T, y_eq), problem.p @ z)
    ub_gap = np.where(np.isfinite(problem.ub), np.abs(problem.ub - z), 1.0)
    lb_gap = np.where(np.isfinite(problem.lb), np.abs(z - problem.lb), 1.0)
    comp = max(_top(np.maximum(mu, 0.0) * ub_gap), _top(np.maximum(-mu, 0.0) * lb_gap))
    return float(primal), float(dual), float(comp)


def _primal_dual(problem: QpProblem, z, mu, aeq_z, aeqt_y, p_z):
    """``kkt_residuals``' primal and dual given P z and the extended-precision Aeq z, Aeq' y."""
    primal = max(_top(np.abs(aeq_z - problem.beq)), _top(np.maximum(problem.lb - z, 0.0)),
                 _top(np.maximum(z - problem.ub, 0.0)))
    return primal, _top(np.abs(p_z + problem.q + mu + aeqt_y))


class Solver:
    """Warm-started dual active-set solver of one ``QpProblem``, ``problem``;
    a solve takes only the values b of its ``param_rows``.

    The working set starts from the box rows at which ``warm_z`` sits at a
    bound, keeping each row whose pivot on the rows kept before it exceeds
    the tolerance, _DEPENDENT max_{i<n} (K^-1)_ii. Rows whose multipliers
    have the wrong sign leave it; then violated bounds enter it one at a
    time, Goldfarb-Idnani style: the entering row's multiplier grows from
    zero while a ratio test drops any working-set row whose multiplier
    reaches zero first. An entering row whose pivot is within the tolerance
    changes multipliers only, and no blocking row means infeasibility. The
    returned ``z`` is the refined KKT solution on the final working set and
    counts as optimal only after it passes a termination test.

    The first solve builds what depends on the problem alone: the inverse
    of the delta-regularized K, the tolerances and the base piece, refined
    long-double solutions of K for [-q; beq] with the ``param_rows`` zeroed
    plus one column per param row. Across solves the solver also keeps
    G_i = K^-1 e_i for each index whose bound it has pinned, and the pivots
    of each ordered warm row set it has met; a diagonal P's products are
    taken elementwise, bit for bit the dense ones. A working set W gets its
    piece (x0, X) from the Schur complement G_W[W] and keeps it while W
    stays; a solve returns x0 + X b rounded once. On the piece's second use
    the solver adds its residual certificate, a proven bound, affine in b
    and |b|, on the full check's residuals at that z; a solve whose bounds
    lie within _EPS_ABS, below every tolerance of the check, ends optimal
    without the check, and any other runs it. Nothing kept depends on the
    path to it, so a reused solver returns bit for bit what a fresh one
    returns. Not thread-safe.
    """

    def __init__(self, problem: QpProblem):
        self.problem, self._base = problem, None

    def _build(self) -> None:
        """The problem's inverse of its base KKT matrix, its long-double and
        absolute P and Aeq, the tolerances, the bounded variables' indices,
        |q| and the base piece."""
        prob, delta = self.problem, 1e-9
        p, aeq, n, m_eq = prob.p, prob.aeq, prob.n, prob.aeq.shape[0]
        self._p_ext, self._aeq_ext = p.astype(np.longdouble), aeq.astype(np.longdouble)
        diagonal = np.count_nonzero(p) == np.count_nonzero(np.diagonal(p))
        self._p_diag = np.diagonal(p).copy() if diagonal else None
        self._abs_p, self._abs_aeq, self._abs_q = np.abs(p), np.abs(aeq), np.abs(prob.q)
        self._top_q = _top(self._abs_q)
        self._kkt_inv = np.linalg.inv(np.block([[p + delta * np.eye(n), aeq.T],
                                                [aeq, -delta * np.eye(m_eq)]]))
        self._pivot_tol = _DEPENDENT * np.max(np.diagonal(self._kkt_inv)[:n])
        self._lb_tol, self._ub_tol = prob.lb + _TOL, prob.ub - _TOL
        self._box = box = np.flatnonzero(np.isfinite(prob.lb) | np.isfinite(prob.ub))
        self._lb_box, self._ub_box = prob.lb[box], prob.ub[box]
        self._columns, self._pivot_sets, self._key, self._cert = {}, {}, None, None
        rows, target = n + prob.param_rows, np.concatenate([-prob.q, prob.beq])
        target[rows] = 0.0  # [-q; beq], param rows zeroed, beside e_i for each param row i
        self._base_rhs = np.column_stack([target, np.arange(target.size)[:, None] == rows])
        self._base = self._refine(self._base_rhs)

    def solve(self, b=None, warm_z=None) -> QpSolution:
        """The solution for param-row values ``b``, by default the problem's own."""
        problem, n, lb, ub = self.problem, self.problem.n, self.problem.lb, self.problem.ub
        if b is not None:
            if np.size(b) != problem.param_rows.size:
                raise DimensionError(f"b must have length {problem.param_rows.size}, got {np.size(b)}")
            beq = problem.beq.copy()
            beq[problem.param_rows] = np.reshape(b, -1)
            problem = problem.with_beq(beq)
        b = problem.beq[problem.param_rows]
        if self._base is None:
            self._build()
        lo = hi = np.zeros(0, dtype=int)
        if warm_z is not None:
            warm = np.asarray(warm_z, float).reshape(n)
            lo, hi = (warm <= self._lb_tol).nonzero()[0], (warm >= self._ub_tol).nonzero()[0]
            if lo.size or hi.size:
                keep = self._pivots(np.concatenate([lo, hi])) > self._pivot_tol
                lo, hi = lo[keep[:lo.size]], hi[keep[lo.size:]]

        changes, status, b_ext = 0, "optimal", b.astype(np.longdouble)
        enter, t = None, 0.0  # the bound row being added (index, sign) and its multiplier
        while True:
            z, y_eq, mu, step = self._solve_active(b_ext, lo, hi, enter)
            if enter is None:
                wrong_lo, wrong_hi = lo[mu[lo] > _TOL], hi[mu[hi] < -_TOL]
                viol = np.maximum(lb - z, z - ub)
                viol[lo] = viol[hi] = 0.0
                p = int(viol.argmax())
                if not (wrong_lo.size or wrong_hi.size or viol[p] > _TOL):
                    break
                if changes >= _MAX_ITER:
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
            tau_add, pivot = np.inf, -sign * dz[p]  # pivot = e_p' K_W^-1 e_p
            if pivot > self._pivot_tol:
                zp = z[p] + t * dz[p]
                tau_add = (zp - ub[p] if sign > 0 else lb[p] - zp) / pivot
            if tau_add == np.inf and tau_drop == np.inf:
                status = "infeasible"
                break
            if changes >= _MAX_ITER:
                status = "max_iter"
                break
            changes += 1
            if tau_add <= tau_drop:
                lo, hi = (lo, np.union1d(hi, [p])) if sign > 0 else (np.union1d(lo, [p]), hi)
                enter = None
            else:
                t += tau_drop
                drop = rows[np.argmin(tau)]
                lo, hi = lo[lo != drop], hi[hi != drop]

        certified = (optimal := status == "optimal") and self._cert is not None and (
            max(self._bounds(b, z, viol[p])) <= _EPS_ABS)
        if optimal and not (certified or self._full_check(problem, z, y_eq, mu)):
            status = "inaccurate"
        return QpSolution(z=z, iterations=changes, status=status, problem=problem,
                          y_eq=y_eq, mu=mu, certified=bool(certified))

    def _bounds(self, b, z, free_viol):
        """The certificate's (primal, dual) bounds on the full check's residuals
        at ``z`` for param-row values ``b``, given the free rows' largest bound
        violation; the factor 1 + 8u covers the rounding of these sums, and
        NaN gives NaN."""
        c, a, e = self._cert
        v, n = np.concatenate(([1.0], b)), self.problem.n
        bound = (np.abs(c @ v) + a @ np.abs(v)) * (1 + 2.0**-50)
        bound[n:n + self.problem.aeq.shape[0]] += e * (self._abs_aeq @ np.abs(z))
        return np.maximum.reduce(bound[n:], initial=max(free_viol, 0.0)), _top(bound[:n])

    def _certificate(self, pinned, rhs):
        """The remembered piece's certificate (C, A, e), on [1; b] and by row:
        stationarity, equalities, pinned bounds. C = K_W [x0 X] - rhs is the
        piece's residual against the unregularized working-set matrix K_W,
        formed in long double and rounded. A and e (on the equality rows'
        actual |Aeq| |z|) bound the rest by gamma_k = k u / (1 - k u) terms
        (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
        widened by 1% for their own rounding: forming, rounding and applying
        C; x0 + X b in long double and its rounding to z, y_eq, mu, through
        |K_W|; and the full check's float64 evaluation."""
        n, m = self.problem.n, self.problem.aeq.shape[0]
        x, y, mu = self._piece.T[:n], self._piece.T[n:n + m], self._piece.T[n + m:]
        c = (np.vstack([_p_dot(self._p_ext, self._p_diag, x) + np.dot(self._aeq_ext.T, y) + mu,
                        np.dot(self._aeq_ext, x), x[pinned]]) - rhs).astype(float)
        ax, ay, amu = (np.abs(part).astype(float) for part in (x, y, mu))
        scale = np.vstack([self._abs_p @ ax + self._abs_aeq.T @ ay + amu, self._abs_aeq @ ax, ax[pinned]])
        u, u_ext, k = np.finfo(float).eps / 2, float(np.finfo(np.longdouble).eps) / 2, c.shape[1]
        gamma = lambda terms, unit: terms * unit / (1 - terms * unit)  # noqa: E731
        # The check's P z sums the nonzeros of a row of P, then adds q, mu
        # and Aeq' y: four roundings, plus one for z itself.
        g_ext, nz_p = gamma(n + m + 2, u_ext), np.max(np.count_nonzero(self.problem.p, axis=1), initial=0)
        row = np.r_[np.full(n, gamma(nz_p + 5, u) + g_ext), np.zeros(m), np.full(pinned.size, gamma(1, u))]
        a = 1.01 * ((g_ext + gamma(k, u_ext) + row[:, None]) * scale
                    + (g_ext + row[:, None] + u) * np.abs(rhs) + gamma(k + 1, u) * np.abs(c))
        return c, a, 1.01 * (gamma(1, u) + g_ext)

    def _full_check(self, problem, z, y_eq, mu) -> bool:
        """Whether the primal and dual residuals at a candidate lie within
        _EPS_ABS, plus _EPS_REL times the largest term of each, plus the float64
        floor of evaluating it, eps_machine * max_i (|A||z| + |v|)_i and its
        dual analogue. Without the floor, problems whose constraint rows span
        many decades never terminate, since even the exact optimizer rounded
        to float64 evaluates above _EPS_ABS. A candidate whose residuals are
        not finite fails, as the tolerances then are not either."""
        aeq_z, aeqt_y = _ext_matvec(self._aeq_ext, z), _ext_matvec(self._aeq_ext.T, y_eq)
        box, abs_q = self._box, self._abs_q
        diag, abs_z, abs_beq, eps_m = self._p_diag, np.abs(z), np.abs(problem.beq), np.finfo(float).eps
        p_z = _p_dot(problem.p, diag, z, np.matmul)
        r_p, r_d = _primal_dual(problem, z, mu, aeq_z, aeqt_y, p_z)
        z_box, v_box = abs_z[box], np.abs(np.clip(z[box], self._lb_box, self._ub_box))
        floor_p = eps_m * max(_top(self._abs_aeq @ abs_z + abs_beq), _top(z_box + v_box))
        abs_p_z = _p_dot(self._abs_p, None if diag is None else np.abs(diag), abs_z, np.matmul)
        floor_d = eps_m * _top(abs_p_z + self._abs_aeq.T @ np.abs(y_eq) + np.abs(mu) + abs_q)
        e_p = _EPS_ABS + _EPS_REL * max(_top(np.abs(aeq_z)), _top(abs_beq), _top(z_box),
                                        _top(v_box)) + floor_p
        e_d = _EPS_ABS + _EPS_REL * max(_top(np.abs(p_z)), _top(np.abs(aeqt_y + mu)), self._top_q) + floor_d
        return r_p + r_d < np.inf and r_p <= e_p and r_d <= e_d

    def _solve_active(self, b, lo_act, hi_act, enter=None):
        """KKT solve for the long-double param-row values ``b`` with the given
        box rows pinned at their bounds, from the working set's affine piece,
        which is built here unless remembered. Returns z, the equality
        multipliers, the box multipliers mu and, with an entering row
        ``enter`` = (i, sign), (dz, dmu): their change per unit of an added
        cost term sign * z_i; otherwise None."""
        prob, n, size = self.problem, self.problem.n, self._base.shape[0]
        key = (lo_act.tolist(), hi_act.tolist())
        reused = key == self._key
        if not reused:
            pinned = np.concatenate([lo_act, hi_act])
            values = np.column_stack([np.concatenate([prob.lb[lo_act], prob.ub[hi_act]]),
                                      np.zeros((pinned.size, prob.param_rows.size))])
            piece = np.ascontiguousarray(self._pin(pinned, self._base, values).T)
            self._key, self._piece, self._pinned, self._values, self._cert = key, piece, pinned, values, None
        # np.dot(b, X') sums each row as np.dot(X, b) does, in fewer steps.
        sol = (self._piece[0] + np.dot(b, self._piece[1:])).astype(float)
        # A piece's second use builds its certificate, unless rounding z
        # alone, u |Aeq| |z|, is already more than it could accept.
        if reused and enter is None and self._cert is None and (
                _top(self._abs_aeq @ np.abs(sol[:n])) * 2.0**-53 <= _EPS_ABS):
            self._cert = self._certificate(self._pinned, np.vstack([self._base_rhs, self._values]))
        if enter is None:
            return sol[:n], sol[n:size], sol[size:], None
        step = -enter[1] * self._pin(self._pinned, self._unit_columns(enter[:1]), 0.0)[:, 0].astype(float)
        return sol[:n], sol[n:size], sol[size:], (step[:n], step[size:])

    def _pin(self, pinned, base, values):
        """Long-double [x; mu] of the working set's KKT system from ``base``,
        solutions of K, with the pinned rows held at ``values``; mu has one
        row per variable. With G the pinned unit columns and S = G[pinned],
        mu = S^-1 (base[pinned] - values), solved in float64 and corrected
        twice in long double, and x = base - G mu."""
        g = self._unit_columns(pinned)
        s, rhs = g[pinned], base[pinned] - values
        mu = np.zeros((self.problem.n, base.shape[1]), np.longdouble)
        for _ in range(3):
            resid = (rhs - np.dot(s, mu[pinned])).astype(float)
            mu[pinned] += np.linalg.solve(s.astype(float), resid)
        return np.vstack([base - np.dot(g, mu[pinned]), mu])

    def _pivots(self, rows):
        """``_factor(rows)``, remembered per ordered row set."""
        if (key := rows.tobytes()) not in self._pivot_sets:
            self._pivot_sets[key] = self._factor(rows)
        return self._pivot_sets[key]

    def _factor(self, rows):
        """Squared diagonal of a long-double Cholesky of S = G[rows] in the
        rows' order, skipping each row whose pivot is within the tolerance."""
        s, pivots = self._unit_columns(rows)[rows], np.zeros(len(rows), np.longdouble)
        for k in range(len(rows)):
            pivots[k] = s[k, k]
            if pivots[k] > self._pivot_tol:
                s = s - np.outer(s[:, k], s[k]) / s[k, k]
        return pivots

    def _unit_columns(self, idx):
        """The columns K^-1 e_i, i in ``idx``, each refined once and alone,
        so that its bits never depend on which solves came before."""
        size = self._kkt_inv.shape[0]
        for i in set(map(int, idx)) - self._columns.keys():
            self._columns[i] = self._refine(np.eye(size, 1, -i))[:, 0]
        return np.array([self._columns[int(i)] for i in idx], np.longdouble).reshape(-1, size).T

    def _refine(self, target):
        """Long-double solutions of K for the columns of ``target``: three
        refinement passes against the unregularized K, residuals accumulated
        from the long-double P and Aeq, remove the delta regularization.
        np.dot forms the same long-double sums as ``@``, three times faster."""
        n, p, aeq, diag = self.problem.n, self._p_ext, self._aeq_ext, self._p_diag
        sol = (self._kkt_inv @ target).astype(np.longdouble)
        rhs = target.astype(np.longdouble)
        for _ in range(3):
            z = sol[:n]
            resid = rhs - np.concatenate([_p_dot(p, diag, z) + np.dot(aeq.T, sol[n:]), np.dot(aeq, z)])
            sol += self._kkt_inv @ resid.astype(float)
        return sol


def solve(problem: QpProblem, warm_z=None) -> QpSolution:
    """Single-shot convenience wrapper around Solver."""
    return Solver(problem).solve(warm_z=warm_z)

