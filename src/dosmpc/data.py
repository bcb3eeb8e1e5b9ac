"""Offline data collection, Hankel matrices, persistency-of-excitation
certification, and the trajectory-representation residual used as an
executable oracle for the behavioral (Hankel span) system description, and
the one CSV table format (``_write_table``/``_read_table``) of every record
and the one name of a file's JSON sidecar (``_sidecar_path``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionError, PersistencyError

__all__ = [
    "Trajectory",
    "HankelPair",
    "PeReport",
    "build_hankel",
    "is_persistently_exciting",
    "pe_samples",
    "collect_offline",
    "fundamental_lemma_residual",
]

_PE_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class PeReport:
    """Outcome of a persistency-of-excitation rank check."""

    excited: bool
    order: int
    rank: int
    required_rank: int
    sigma_min: float
    tolerance: float


def _sidecar_path(path) -> Path:
    """The JSON sidecar of a run file: ``<file>.json`` beside it, as in
    ``schedule.txt.json``; one rule for trajectories and schedules."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed input/output record, optionally with states and noises,
    each kept as a read-only copy.

    ``states`` (when present) has one extra row carrying the terminal state.
    States and noises exist for oracle use only; the data-driven controller
    never sees them.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    states: Optional[np.ndarray] = None
    noises: Optional[np.ndarray] = None
    seed: Optional[int] = None
    v_bar: Optional[float] = None
    pe: Optional[PeReport] = None

    def __post_init__(self):
        for name in ("inputs", "outputs", "states", "noises"):
            val = getattr(self, name)
            if val is None:
                continue
            arr = _channels(val).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise DimensionError(
                f"inputs and outputs must have equal length, "
                f"got {self.inputs.shape[0]} vs {self.outputs.shape[0]}"
            )
        if self.states is not None and self.states.shape[0] not in (len(self), len(self) + 1):
            raise DimensionError("states length must be N or N+1")
        if self.noises is not None and self.noises.shape[0] != len(self):
            raise DimensionError("noises length must be N")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_u(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_y(self) -> int:
        return self.outputs.shape[1]

    def save_csv(self, path) -> None:
        """Persist as CSV (t, u_*, y_*, optional x_*, w_*) plus a JSON sidecar."""
        path = Path(path)
        columns = {"t": np.arange(len(self)), "u": self.inputs, "y": self.outputs}
        if self.states is not None:
            columns["x"] = self.states[: len(self)]
        if self.noises is not None:
            columns["w"] = self.noises
        _write_table(path, columns)
        sidecar = {
            "n": len(self),
            "n_u": self.n_u,
            "n_y": self.n_y,
            "seed": self.seed,
            "v_bar": self.v_bar,
            "pe": None if self.pe is None else vars(self.pe),
        }
        with open(_sidecar_path(path), "w") as fh:
            json.dump(sidecar, fh, indent=2)

    @staticmethod
    def load_csv(path) -> "Trajectory":
        path = Path(path)
        columns = _read_table(path)
        meta = {}
        sidecar = _sidecar_path(path)
        if sidecar.exists():
            meta = json.loads(sidecar.read_text())
        pe = meta.get("pe")
        return Trajectory(
            inputs=columns["u"],
            outputs=columns["y"],
            states=columns.get("x"),
            noises=columns.get("w"),
            seed=meta.get("seed"),
            v_bar=meta.get("v_bar"),
            pe=None if pe is None else PeReport(**pe),
        )


def _format_row(template: str, row) -> str:
    """``template % row`` with each NaN cell left empty: ``%.17g`` writes NaN
    as ``nan`` and no other cell containing those letters (``%d`` rejects NaN)."""
    return (template % tuple(row)).replace("nan", "")


def _write_table(path, columns: dict) -> None:
    """CSV with a header row from named arrays: a 1-D array is one column
    under its key, a 2-D array one column per entry (``u_0``, ``u_1``, ...).
    Integer arrays are written as ``%d``, all others as ``%.17g`` (round-trip
    exact), NaN as an empty cell."""
    names, formats = [], []
    for key, array in columns.items():
        keys = [key] if array.ndim == 1 else [f"{key}_{i}" for i in range(array.shape[1])]
        names += keys
        formats += ["%d" if np.issubdtype(array.dtype, np.integer) else "%.17g"] * len(keys)
    template = ",".join(formats) + "\n"
    table = np.column_stack(list(columns.values()))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        # Row by row, so no copy of the whole table as text is held at once;
        # each row as Python floats, which format faster than numpy scalars.
        fh.writelines(_format_row(template, row.tolist()) for row in table)


def _read_table(path) -> dict:
    """The named float arrays of a CSV ``_write_table`` wrote, each group of
    ``key_i`` columns as one 2-D array under ``key``; empty cells read as NaN."""
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    table = np.array([[float(v) if v else np.nan for v in row] for row in rows])
    table = table.reshape(len(rows), len(names))
    index = {}  # key -> its column, or the list of its key_i columns
    for i, name in enumerate(names):
        key, _, entry = name.rpartition("_")
        if key and entry.isdigit():
            index.setdefault(key, []).append(i)
        else:
            index[name] = i
    return {key: table[:, i] for key, i in index.items()}


def _channels(seq) -> np.ndarray:
    """A vector sequence as a (length, dim) float array; a 1-D sequence is
    one channel."""
    data = np.asarray(seq, dtype=float)
    return data[:, None] if data.ndim == 1 else np.atleast_2d(data)


def build_hankel(seq, depth: int) -> np.ndarray:
    """Block Hankel matrix of a vector sequence: block (i, j) = seq[i + j].

    Shape is (depth * dim, N - depth + 1).
    """
    data = _channels(seq)
    n = data.shape[0]
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if n < depth:
        raise DimensionError(f"sequence length {n} is shorter than depth {depth}")
    dim = data.shape[1]
    cols = n - depth + 1
    h = np.empty((depth * dim, cols))
    for i in range(depth):
        h[i * dim:(i + 1) * dim] = data[i:i + cols].T
    return h


@dataclass(frozen=True)
class HankelPair:
    """Depth-L input/output Hankel matrices of one source trajectory."""

    hu: np.ndarray
    hy: np.ndarray
    depth: int
    source: Trajectory

    def __post_init__(self):
        for name in ("hu", "hy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.hu.shape[1] != self.hy.shape[1] or self.hu.shape[1] < 1:
            raise DimensionError("Hankel pair must share a positive column count")

    @staticmethod
    def from_trajectory(traj: Trajectory, depth: int) -> "HankelPair":
        return HankelPair(
            hu=build_hankel(traj.inputs, depth),
            hy=build_hankel(traj.outputs, depth),
            depth=depth,
            source=traj,
        )

    @property
    def n_u(self) -> int:
        return self.hu.shape[0] // self.depth

    @property
    def n_y(self) -> int:
        return self.hy.shape[0] // self.depth


def pe_samples(n_u: int, order: int) -> int:
    """Fewest samples of an n_u-input record that can be persistently
    exciting of ``order``: its depth-``order`` Hankel matrix has n_u * order
    rows, and needs at least as many columns for full row rank."""
    return (n_u + 1) * order - 1


def is_persistently_exciting(inputs, order: int) -> PeReport:
    """Rank check of the order-L input Hankel matrix (Hanke rank = n_u * L).

    Rank uses singular values with tolerance sigma_max * max(dim) * 1e-10; the
    report carries the smallest singular value as an excitation margin.
    Sequences too short for the required rank are trivially not exciting.
    """
    u = _channels(inputs)
    n, n_u = u.shape
    required = n_u * order
    if n < order or n < pe_samples(n_u, order):
        return PeReport(False, order, 0, required, 0.0, 0.0)
    h = build_hankel(u, order)
    s = np.linalg.svd(h, compute_uv=False)
    tol = s[0] * max(h.shape) * _PE_RANK_RTOL if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    sigma_min = float(s[required - 1]) if len(s) >= required else 0.0
    return PeReport(rank == required, order, rank, required, sigma_min, float(tol))


def collect_offline(model, n_samples: int, pe_order: int, amplitude: float = 1.0,
                    noise_bound: float = 0.0, seed: int = 0) -> Trajectory:
    """Open-loop excitation experiment on the true system.

    Inputs are i.i.d. uniform on [-amplitude, amplitude] per coordinate and
    process noise i.i.d. uniform on [-noise_bound, noise_bound]; outputs are
    stored noise-free on the measurement side. The input record is certified
    persistently exciting of ``pe_order`` before returning, re-drawing with a
    derived seed up to 8 times.
    """
    from .lti import simulate

    if n_samples < pe_samples(model.n_u, pe_order):
        raise DimensionError(
            f"n_samples = {n_samples} cannot be persistently exciting of order {pe_order} "
            f"(need at least {pe_samples(model.n_u, pe_order)})"
        )
    report = None
    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt])
        u = rng.uniform(-amplitude, amplitude, size=(n_samples, model.n_u))
        report = is_persistently_exciting(u, pe_order)
        if report.excited:
            w = rng.uniform(-noise_bound, noise_bound, size=(n_samples, model.n_x))
            sim = simulate(model, np.zeros(model.n_x), u, w)
            return replace(sim, seed=seed, v_bar=noise_bound, pe=report)
    raise PersistencyError(
        f"failed to certify excitation of order {pe_order} after 8 draws "
        f"(last rank {report.rank}/{report.required_rank})"
    )


def fundamental_lemma_residual(data: Trajectory, test_u, test_y) -> float:
    """Distance of a candidate window from the span of the data's Hankel columns.

    Returns min_g || [H_L(u); H_L(y)] g - [test_u; test_y] ||, solved by least
    squares on a column-normalized copy (same minimum; far better conditioned
    when the open-loop record spans many decades). Near zero exactly when the
    window is a trajectory of the data-generating system.
    """
    tu, ty = _channels(test_u), _channels(test_y)
    if tu.shape[0] != ty.shape[0]:
        raise DimensionError("test windows must have equal length")
    if tu.shape[1] != data.n_u or ty.shape[1] != data.n_y:
        raise DimensionError("test window dimensions must match the data record")
    depth = tu.shape[0]
    h = np.vstack([build_hankel(data.inputs, depth), build_hankel(data.outputs, depth)])
    target = np.concatenate([tu.reshape(-1), ty.reshape(-1)])
    scale = np.linalg.norm(h, axis=0)
    scale[scale == 0] = 1.0
    g_scaled, _, _, _ = np.linalg.lstsq(h / scale, target, rcond=None)
    return float(np.linalg.norm(h @ (g_scaled / scale) - target))
