"""Ground-truth LTI machinery: simulation, ZOH discretization, observability
index, structural (stacked-window) matrices, and gain synthesis for the
model-based baseline.

The system model here is the simulation/oracle side of the artifact. It is
never visible to the data-driven controller.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StructureError, SynthesisError

__all__ = [
    "SystemModel",
    "StructuralMatrices",
    "GainSet",
    "check_structure",
    "discretize",
    "simulate",
    "observability_index",
    "structural_matrices",
    "synthesize_gains",
]

_RANK_RTOL = 1e-12
# Riccati weights of the model-based baseline's state feedback.
_Q_WEIGHT = 1.0
_R_WEIGHT = 1.0


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time LTI plant x+ = A x + B u + w, y = C x + D u.

    ``dt`` is the sampling period in seconds, carried as metadata only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(self.a))
        object.__setattr__(self, "b", _frozen(self.b))
        object.__setattr__(self, "c", _frozen(self.c))
        object.__setattr__(self, "d", _frozen(self.d))
        n = self.a.shape[0]
        if self.a.ndim != 2 or self.a.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.a.shape}")
        if self.b.ndim != 2 or self.b.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {self.b.shape}")
        if self.c.ndim != 2 or self.c.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {self.c.shape}")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise DimensionError(
                f"D must be {self.c.shape[0]}x{self.b.shape[1]}, got {self.d.shape}"
            )

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_x": self.n_x,
                "n_u": self.n_u,
                "n_y": self.n_y,
                "a": self.a.tolist(),
                "b": self.b.tolist(),
                "c": self.c.tolist(),
                "d": self.d.tolist(),
                "dt": self.dt,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "SystemModel":
        """Load a model from JSON (row-major matrix arrays).

        A ``"continuous": true`` flag marks (A, B) as continuous-time; they are
        ZOH-discretized at the stored ``dt`` on load.
        """
        obj = json.loads(text)
        dt = float(obj.get("dt", 1.0))
        n_y = len(obj["c"])
        n_u = len(obj["b"][0]) if obj["b"] else 0
        d = obj.get("d")
        if d is None:
            d = np.zeros((n_y, n_u))
        model = SystemModel(obj["a"], obj["b"], obj["c"], d, dt=dt)
        if obj.get("continuous", False):
            model = discretize(model, dt)
        return model


@dataclass(frozen=True)
class StructuralMatrices:
    """Stacked-window matrices for depth-n input/output windows.

    ``theta_n`` stacks C, CA, ..., CA^(n-1). ``upsilon_i`` and ``upsilon_b``
    are strictly block-lower-triangular impulse-response stacks (noise and
    input channels). ``psi`` is the block map from (input window, initial
    state) to (input window, output window).
    """

    theta_n: np.ndarray
    upsilon_i: np.ndarray
    upsilon_b: np.ndarray
    psi: np.ndarray
    n: int


@dataclass(frozen=True)
class GainSet:
    """Verified gains for the model-based baseline controller."""

    k: np.ndarray
    l_obs: np.ndarray
    eta: int
    closed_loop_radius: float = field(default=0.0)
    deadbeat_norm: float = field(default=0.0)


def _rank(m: np.ndarray, rtol: float = _RANK_RTOL) -> tuple[int, float]:
    """Numerical rank via singular values; returns (rank, tolerance used)."""
    if m.size == 0:
        return 0, 0.0
    s = np.linalg.svd(m, compute_uv=False)
    tol = s[0] * max(m.shape) * rtol
    return int(np.sum(s > tol)), tol


def check_structure(model: SystemModel) -> dict:
    """Certify Assumption-level structure: (A,B) stabilizable, (C,A) observable.

    Returns a report dict with the observability index; raises StructureError
    if either check fails.
    """
    eta = observability_index(model)
    n = model.n_x
    # PBH test on every eigenvalue outside the open unit disk
    for lam in np.linalg.eigvals(model.a):
        if abs(lam) >= 1.0 - 1e-12:
            pbh = np.hstack([model.a - lam * np.eye(n), model.b])
            r, _ = _rank(pbh)
            if r < n:
                raise StructureError("(A, B) is not stabilizable (Assumption 1)")
    return {"observable": True, "stabilizable": True, "observability_index": eta}


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    The series is summed until the term norm falls below 1e-18 times the
    accumulated norm, which after squaring keeps the relative error well
    under 1e-12 for the scaled norm <= 0.5 used here.
    """
    norm = np.linalg.norm(m, np.inf)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    ms = m / (2.0 ** squarings)
    n = m.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ ms / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= 1e-18 * np.linalg.norm(result, np.inf):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def discretize(continuous_model: SystemModel, dt: float) -> SystemModel:
    """Zero-order-hold discretization of a continuous-time (A, B).

    A_d = exp(A dt), B_d = (integral_0^dt exp(A s) ds) B, computed jointly via
    the exponential of the augmented [[A, B], [0, 0]] * dt matrix. C and D are
    copied through.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n, m = continuous_model.n_x, continuous_model.n_u
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = continuous_model.a
    aug[:n, n:] = continuous_model.b
    e = _expm(aug * dt)
    return SystemModel(e[:n, :n], e[:n, n:], continuous_model.c, continuous_model.d, dt=dt)


def simulate(model: SystemModel, x0, inputs, process_noise=None):
    """Simulate the exact recursion x+ = A x + B u + w, y = C x + D u.

    ``inputs`` and ``process_noise`` are (T, n_u) and (T, n_x) arrays. Returns
    a Trajectory with T inputs/outputs, T+1 states (terminal state included),
    and the noise sequence. No noise is added to y; network noise is applied
    by the channel, elsewhere.
    """
    from .data import Trajectory

    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    if u.shape[1] != model.n_u:
        raise DimensionError(f"inputs must be (T, {model.n_u}), got {u.shape}")
    steps = u.shape[0]
    if process_noise is None:
        w = np.zeros((steps, model.n_x))
    else:
        w = np.atleast_2d(np.asarray(process_noise, dtype=float))
    if w.shape != (steps, model.n_x):
        raise DimensionError(f"process_noise must be ({steps}, {model.n_x}), got {w.shape}")
    x = np.asarray(x0, dtype=float).reshape(model.n_x)

    states = np.empty((steps + 1, model.n_x))
    outputs = np.empty((steps, model.n_y))
    states[0] = x
    for t in range(steps):
        outputs[t] = model.c @ states[t] + model.d @ u[t]
        states[t + 1] = model.a @ states[t] + model.b @ u[t] + w[t]
    return Trajectory(inputs=u, outputs=outputs, states=states, noises=w)


def observability_index(model: SystemModel) -> int:
    """Smallest i >= 1 with rank [C; CA; ...; CA^(i-1)] = n_x."""
    blocks = []
    power = np.eye(model.n_x)
    for i in range(1, model.n_x + 1):
        blocks.append(model.c @ power)
        power = model.a @ power
        r, _ = _rank(np.vstack(blocks))
        if r == model.n_x:
            return i
    raise StructureError("(C, A) is not observable within n_x block rows")


def structural_matrices(model: SystemModel, n: int) -> StructuralMatrices:
    """Assemble the depth-n stacked-window matrices by direct block placement."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    n_x, n_u, n_y = model.n_x, model.n_u, model.n_y
    powers = [np.eye(n_x)]
    for _ in range(n - 1):
        powers.append(model.a @ powers[-1])

    theta = np.vstack([model.c @ p for p in powers])
    ups_i = np.zeros((n * n_y, n * n_x))
    ups_b = np.zeros((n * n_y, n * n_u))
    for i in range(1, n):
        for j in range(i):
            block = model.c @ powers[i - j - 1]
            ups_i[i * n_y:(i + 1) * n_y, j * n_x:(j + 1) * n_x] = block
            ups_b[i * n_y:(i + 1) * n_y, j * n_u:(j + 1) * n_u] = block @ model.b

    psi = np.zeros((n * (n_u + n_y), n * n_u + n_x))
    psi[:n * n_u, :n * n_u] = np.eye(n * n_u)
    psi[n * n_u:, :n * n_u] = ups_b
    psi[n * n_u:, n * n_u:] = theta
    return StructuralMatrices(theta_n=theta, upsilon_i=ups_i, upsilon_b=ups_b, psi=psi, n=n)


def _riccati_gain(model: SystemModel) -> np.ndarray:
    """Stabilizing feedback from the discrete Riccati iteration (fixed point)."""
    a, b = model.a, model.b
    q = _Q_WEIGHT * np.eye(model.n_x)
    r = _R_WEIGHT * np.eye(model.n_u)
    p = q.copy()
    for _ in range(10_000):
        btp = b.T @ p
        gain = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = q + a.T @ p @ (a - b @ gain)
        p_next = 0.5 * (p_next + p_next.T)
        if np.linalg.norm(p_next - p) <= 1e-12 * max(1.0, np.linalg.norm(p_next)):
            p = p_next
            break
        p = p_next
    else:
        raise SynthesisError("Riccati iteration did not converge in 10000 iterations")
    btp = b.T @ p
    return -np.linalg.solve(r + btp @ b, btp @ a)


def _deadbeat_observer_gain(model: SystemModel, eta: int) -> np.ndarray:
    """Observer gain L with (A - LC)^eta = 0, built from orthonormal bases.

    On the dual pair (F, G) = (A^T, C^T), N_0 = {0} and N_k holds the x with
    F x in N_(k-1) + Im G (Van Dooren, BIT 24, 1984). One orthonormal basis B
    grows level by level through N_1, N_2, ...; each new direction b of N_k
    gets the least-norm input u_b with (I - B B^T)(F b + G u_b) = 0, that is
    F b + G u_b in N_(k-1). Then K = U B^T maps N_k into N_(k-1) under
    F + G K, so F + G K is nilpotent once N_eta = R^n, and L = -K^T.
    N_k is the kernel of (I - B B^T - W W^T) F, with W an orthonormal basis
    of (I - B B^T) Im G. Singular values at or below ``tol`` count as zero;
    the new directions of N_k are the left singular vectors of N_k with B
    projected out whose singular value is 1 (0 or 1 in exact arithmetic).
    """
    f, g = model.a.T, model.c.T
    n, p = g.shape
    tol = max(n, p) * _RANK_RTOL * max(np.linalg.norm(f, 2), np.linalg.norm(g, 2))
    basis, inputs = np.zeros((n, 0)), np.zeros((p, 0))
    for _ in range(eta):
        proj = np.eye(n) - basis @ basis.T
        w, s, zt = np.linalg.svd(proj @ g, full_matrices=False)
        w, s, zt = w[:, s > tol], s[s > tol], zt[s > tol]
        sf, vt = np.linalg.svd((proj - w @ w.T) @ f)[1:]
        q, sq, _ = np.linalg.svd(proj @ vt[np.sum(sf > tol):].T, full_matrices=False)
        new = q[:, sq > 0.5]
        basis = np.hstack([basis, new])
        inputs = np.hstack([inputs, -zt.T @ (w.T @ proj @ f @ new / s[:, None])])
    if basis.shape[1] != n:
        raise StructureError("(C, A) is not observable; deadbeat gain undefined")
    return -basis @ inputs.T


def synthesize_gains(model: SystemModel) -> GainSet:
    """Feedback gain via Riccati iteration (state and input weights
    ``_Q_WEIGHT`` I and ``_R_WEIGHT`` I) and deadbeat observer gain.

    Both gains are post-verified: spectral radius of A + BK < 1 and
    ||N^eta|| for N = A - LC within what rounding alone leaves of a deadbeat
    gain: eps n_x n_y sum_k ||N^k|| ||N^(eta-1-k)|| (||A|| + ||L|| ||C||), the
    first-order change of N^eta when N moves by the rounding of forming L and
    LC, with n_x n_y for the lengths of their inner products. Raises
    SynthesisError with the achieved values otherwise.
    """
    eta = check_structure(model)["observability_index"]
    k = _riccati_gain(model)
    radius = max(abs(np.linalg.eigvals(model.a + model.b @ k)))
    if radius >= 1.0:
        raise SynthesisError(f"closed loop not Schur stable: spectral radius {radius:.6g}")
    l_obs = _deadbeat_observer_gain(model, eta)
    n_obs = model.a - l_obs @ model.c
    powers = [np.linalg.norm(np.linalg.matrix_power(n_obs, k), 2) for k in range(eta + 1)]
    nil_norm = float(powers[eta])
    bound = (np.finfo(float).eps * model.n_x * model.n_y
             * sum(powers[k] * powers[eta - 1 - k] for k in range(eta))
             * (np.linalg.norm(model.a, 2) + np.linalg.norm(l_obs, 2) * np.linalg.norm(model.c, 2)))
    if nil_norm > bound:
        raise SynthesisError(f"deadbeat check failed: ||(A-LC)^{eta}|| = {nil_norm:.3g} "
                             f"> {bound:.3g}, the rounding bound")
    return GainSet(k=_frozen(k), l_obs=_frozen(l_obs), eta=eta,
                   closed_loop_radius=float(radius), deadbeat_norm=nil_norm)
