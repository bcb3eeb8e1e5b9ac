"""Deterministic DoS attack model.

A schedule is a boolean indicator sequence; validity means the duration and
frequency budgets hold on every subinterval [t1, t2):

    onsets(t1, t2)   <= kappa_f + (t2 - t1) / nu_f
    attacked(t1, t2) <= kappa_d + (t2 - t1) / nu_d

Onset counting uses the convention that the step before time zero is
attack-free, so an attack at t = 0 counts as an onset.

Every check runs on prefix extrema. With pd[t] the number of attacked steps
before t and D(t) = pd[t] - t/nu_d, the duration excess of [t1, t2) is
D(t2) - D(t1) - kappa_d, so the budget holds on every interval iff
D(t2) - min_{t1 < t2} D(t1) <= kappa_d for every t2; the frequency budget is
the same with onset counts pf and F(t) = pf[t] - t/nu_f. A running minimum
makes validation O(T) and a generator step O(1) outside the tie band.

A margin from the extrema decides only outside a tie band of about 1e-9
around its threshold. Exact ties are common (with nu_f = 4 every t/4 is
exact), and there the extrema and the direct comparison count > kappa + m/nu
may round apart; inside the band the direct comparison over the intervals
concerned decides, so every verdict and report is the one an all-intervals
scan gives. There a generator step costs O(1) unless a level returns exactly
to its minimum again and again; validation costs the intervals evaluated.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .data import _sidecar_path
from .errors import DimensionError, ResilienceError, check_numbers

__all__ = [
    "AttackParams",
    "DosSchedule",
    "ScheduleValidation",
    "params_for_ratio",
    "duration_count",
    "frequency_count",
    "validate_schedule",
    "inter_success_bound",
    "generate_random",
    "generate_worst_case",
    "max_success_gap",
    "save_schedule",
    "load_schedule",
]

# Parameter rules for errors.check_numbers; +inf is accepted.
_FIELD_RULES = {**dict.fromkeys(("kappa_f", "kappa_d"), (numbers.Real, 0, False, True)),
                "nu_f": (numbers.Real, 2, False, True), "nu_d": (numbers.Real, 1, False, True)}


@dataclass(frozen=True)
class AttackParams:
    """Frequency/duration budget: chatter bounds kappa_*, average dwell-time
    nu_f (>= 2), average duration ratio nu_d (>= 1). Non-integer chatter
    bounds are allowed."""

    kappa_f: float
    nu_f: float
    kappa_d: float
    nu_d: float

    def __post_init__(self):
        check_numbers(vars(self), _FIELD_RULES)

    @property
    def ratio(self) -> float:
        """Resilience pressure 1/nu_f + 1/nu_d; stabilizable iff < 1."""
        return 1.0 / self.nu_f + 1.0 / self.nu_d


def params_for_ratio(ratio: float, nu_f: float = 4.0, kappa: float = 1.0) -> AttackParams:
    """Parameters hitting a named resilience pressure 1/nu_f + 1/nu_d."""
    check_numbers({"ratio": ratio, "nu_f": nu_f, "kappa": kappa},
                  {"ratio": (numbers.Real, 0, True, False), "nu_f": _FIELD_RULES["nu_f"],
                   "kappa": _FIELD_RULES["kappa_f"]})
    inv_nu_d = ratio - 1.0 / nu_f
    if inv_nu_d <= 0 or inv_nu_d > 1:
        raise ValueError(f"ratio {ratio} not reachable with nu_f = {nu_f}")
    return AttackParams(kappa_f=kappa, nu_f=nu_f, kappa_d=kappa, nu_d=1.0 / inv_nu_d)


@dataclass(frozen=True)
class DosSchedule:
    """Indicator sequence bundled with the parameters it certifies against."""

    indicators: np.ndarray
    params: AttackParams
    seed: Union[int, str, None] = None

    def __post_init__(self):
        ind = _indicators(self.indicators).astype(bool)
        ind.setflags(write=False)
        object.__setattr__(self, "indicators", ind)

    def __len__(self) -> int:
        return self.indicators.shape[0]

    @property
    def attack_fraction(self) -> float:
        return float(np.mean(self.indicators)) if len(self) else 0.0


@dataclass(frozen=True)
class ScheduleValidation:
    passed: bool
    worst_t1: int
    worst_t2: int
    worst_kind: str
    worst_excess: float


def _indicators(schedule) -> np.ndarray:
    if isinstance(schedule, DosSchedule):
        return schedule.indicators.astype(int)
    ind = np.asarray(schedule)
    if ind.ndim != 1:
        raise DimensionError(f"schedule must be 1-D, got shape {ind.shape}")
    if not np.all((ind == 0) | (ind == 1)):
        raise ValueError("schedule entries must be 0/1 or bool")
    return ind.astype(int)


def _onsets(ind: np.ndarray) -> np.ndarray:
    prev = np.concatenate([[0], ind[:-1]])
    return (ind == 1) & (prev == 0)


def _count(marks: np.ndarray, t1: int, t2: int) -> int:
    if not 0 <= t1 <= t2 <= len(marks):
        raise IndexError(f"interval [{t1}, {t2}) outside [0, {len(marks)}]")
    return int(np.sum(marks[t1:t2]))


def duration_count(schedule, t1: int, t2: int) -> int:
    """Number of attacked steps in [t1, t2)."""
    return _count(_indicators(schedule), t1, t2)


def frequency_count(schedule, t1: int, t2: int) -> int:
    """Number of attack onsets (off-to-on transitions) in [t1, t2)."""
    return _count(_onsets(_indicators(schedule)), t1, t2)


def _tie_band(scale: float) -> float:
    """Half-width of the band inside which an excess taken from prefix extrema
    and the direct count - (kappa + m/nu) may order differently. Over T steps
    both lie within 1e-15 * scale of the exact excess e, with scale = T + |e|;
    the band is ten times that, and at least 1e-9."""
    return 1e-9 + 1e-14 * scale


def _budgets(ind: np.ndarray, params: AttackParams):
    """(kind, prefix counts, kappa, nu) of the duration and frequency budgets."""
    pd = np.concatenate([[0], np.cumsum(ind)])
    pf = np.concatenate([[0], np.cumsum(_onsets(ind))])
    return (("duration", pd, params.kappa_d, params.nu_d),
            ("frequency", pf, params.kappa_f, params.nu_f))


def _lengths_near(level: np.ndarray, rise: np.ndarray, counts: np.ndarray,
                  kappa: float, floor: float):
    """Lengths m of the intervals [t1, t2) with level[t2] - level[t1] - kappa
    >= floor, each with the largest count of such an interval of length m."""
    ends = np.flatnonzero(rise >= floor) + 1
    reach = np.full(len(level), -np.inf)
    reach[ends] = level[ends]
    reach = np.maximum.accumulate(reach[::-1])[::-1]
    starts = np.flatnonzero(reach[1:] - level[:-1] - kappa >= floor)
    best = np.full(len(level), -1)
    block = max(1, 2**18 // max(1, len(starts)))  # bounds memory when ties recur
    for i in range(0, len(ends), block):
        b = ends[i:i + block, None]
        rows, cols = np.nonzero((starts < b) & (level[b] - level[starts] - kappa >= floor))
        t1, t2 = starts[cols], ends[i + rows]
        np.maximum.at(best, t2 - t1, counts[t2] - counts[t1])
    lengths = np.flatnonzero(best >= 0)
    return lengths, best[lengths]


def validate_schedule(indicators, params: AttackParams) -> ScheduleValidation:
    """Check both budgets on every interval [t1, t2) from prefix minima.

    The largest excess ending at t2 is D(t2) - min_{t1 < t2} D(t1) - kappa_d
    (F and kappa_f for frequency), O(T) for all t2. Every interval length whose
    excess comes within the tie band of the largest one is then evaluated
    directly as count - (kappa + m/nu), and the report picks the largest such
    value; among equal values the shortest length, duration before frequency,
    then the earliest start. That is the interval an all-intervals scan in
    order of length reports. Finding those lengths costs the number of
    intervals in the band, which is small unless the schedule is periodic.

    On failure the reported interval is the one with the largest excess over
    its budget; on success worst_excess is the (nonpositive) tightest margin.
    """
    ind = _indicators(indicators)
    n = len(ind)
    budgets = _budgets(ind, params)
    steps = np.arange(n + 1)
    levels = [counts - steps / nu for _, counts, _, nu in budgets]
    rises = [level[1:] - np.minimum.accumulate(level)[:-1] - kappa
             for level, (_, _, kappa, _) in zip(levels, budgets)]
    top = max((float(rise.max()) for rise in rises if rise.size), default=-np.inf)
    if top == -np.inf:  # no steps, or no finite chatter bound
        return ScheduleValidation(True, 0, 0, "duration", -np.inf)
    floor = top - _tie_band(n + abs(top))
    found = []
    for k, ((_, counts, kappa, nu), level, rise) in enumerate(zip(budgets, levels, rises)):
        lengths, count = _lengths_near(level, rise, counts, kappa, floor)
        found.append((count - (kappa + lengths / nu), lengths, np.full(len(lengths), k)))
    excess, length, kind = (np.concatenate(f) for f in zip(*found))
    i = np.lexsort((kind, length, -excess))[0]
    m, counts = int(length[i]), budgets[kind[i]][1]
    t1 = int(np.argmax(counts[m:] - counts[:-m]))
    return ScheduleValidation(bool(excess[i] <= 0.0), t1, t1 + m, budgets[kind[i]][0],
                              float(excess[i]))


def inter_success_bound(params: AttackParams) -> float:
    """Guaranteed maximum spacing between successful transmissions."""
    slack = 1.0 - 1.0 / params.nu_d - 1.0 / params.nu_f
    if slack <= 0:
        raise ResilienceError(
            f"1/nu_f + 1/nu_d = {params.ratio:.6g} >= 1: no bound exists"
        )
    return (params.kappa_d + params.kappa_f) / slack + 1.0


# Up to this many near starts a Python scan (2 us + 0.35 us a start) beats numpy's (9 us).
_SMALL = 24


def _breaks(starts, counts, n: int, count: int, end: int, caps) -> bool:
    """Whether one of the first n near starts s, with count c at s, gives
    count - c > kappa + (end - s)/nu, the budget caps[end - 1 - s]."""
    if n > _SMALL:
        return bool(np.any(count - counts[:n] > caps[end - 1 - starts[:n]]))
    return any(count - c > caps[end - 1 - s]
               for s, c in zip(starts[:n].tolist(), counts[:n].tolist()))


def _greedy(params: AttackParams, t_sim: int, propose, seed) -> DosSchedule:
    """Build a schedule left to right. At every step t outside an accepted
    burst, propose() gives a burst length (0 for no attack), cut at the
    horizon. The burst is kept whole if every interval ending inside it keeps
    both budgets; otherwise the minima are restored and step t stays free.

    Inside the tie band (margin <= band) only the near starts are compared
    directly: those whose level (D or F) lay within 2 * band of the running
    minimum when recorded. Any other start lies more than 2 * band above the
    minimum, which only falls, so its exact excess is below -band, and the
    direct comparison's rounding (<= 1e-15 * scale) cannot flip that verdict.
    A free step more than 2 * band below the minimum drops every start, all
    far from it; no other start is dropped, and inside a burst the sets only
    grow, so a rejected burst restores two minima and two sizes. A step costs
    O(1) unless the level returns to its minimum exactly again and again;
    such sets are scanned by numpy."""
    check_numbers({"t_sim": t_sim}, {"t_sim": (numbers.Integral, 0, False, False)})
    kappa_d, nu_d, kappa_f, nu_f = params.kappa_d, params.nu_d, params.kappa_f, params.nu_f
    band, wide = _tie_band(t_sim), 2 * _tie_band(t_sim)  # the margins decided lie near 0
    lengths = np.arange(1, t_sim + 1)  # the budget of length m at index m - 1
    caps_d, caps_f = kappa_d + lengths / nu_d, kappa_f + lengths / nu_f
    # per budget, the near starts and their counts: start 0 (count 0) first
    starts_d, counts_d, starts_f, counts_f = (np.zeros(t_sim + 1, dtype=int) for _ in range(4))
    n_d = n_f = 1  # their sizes
    low_d = low_f = 0.0
    pd = [0] * (t_sim + 1)  # attacked steps before each end, last written by a kept step
    dur = frq = t = 0
    frq_e = 1  # onsets through a burst at t: frq + 1 after a free step (or at t = 0)
    while t < t_sim:
        burst = propose()
        if burst:
            if burst > t_sim - t:
                burst = t_sim - t
            saved = low_d, low_f, n_d, n_f
            for end in range(t + 1, t + burst + 1):
                dur_e = dur + end - t
                level_d, level_f = dur_e - end / nu_d, frq_e - end / nu_f
                margin_d, margin_f = level_d - low_d - kappa_d, level_f - low_f - kappa_f
                if (margin_d > band or margin_f > band
                        or margin_d >= -band and _breaks(starts_d, counts_d, n_d, dur_e, end, caps_d)
                        or margin_f >= -band and _breaks(starts_f, counts_f, n_f, frq_e, end, caps_f)):
                    (low_d, low_f, n_d, n_f), burst = saved, 0
                    break
                pd[end] = dur_e
                if level_d <= low_d + wide:
                    starts_d[n_d], counts_d[n_d] = end, dur_e
                    n_d += 1
                    low_d = level_d if level_d < low_d else low_d
                if level_f <= low_f + wide:
                    starts_f[n_f], counts_f[n_f] = end, frq_e
                    n_f += 1
                    low_f = level_f if level_f < low_f else low_f
            if burst:
                dur, frq = dur + burst, frq_e
                t += burst
                continue
        t += 1
        pd[t], frq_e = dur, frq + 1
        level_d, level_f = dur - t / nu_d, frq - t / nu_f
        if level_d <= low_d + wide:
            n_d = 0 if level_d + wide < low_d else n_d  # every start lies far above it
            starts_d[n_d], counts_d[n_d] = t, dur
            n_d += 1
            low_d = level_d if level_d < low_d else low_d
        if level_f <= low_f + wide:
            n_f = 0 if level_f + wide < low_f else n_f
            starts_f[n_f], counts_f[n_f] = t, frq
            n_f += 1
            low_f = level_f if level_f < low_f else low_f
    schedule = DosSchedule(indicators=np.diff(pd) > 0, params=params, seed=seed)
    assert validate_schedule(schedule.indicators, params).passed
    return schedule


def generate_random(params: AttackParams, t_sim: int, seed: int = 0) -> DosSchedule:
    """Burst sampler constrained to the budgets.

    Bursts with geometric lengths are proposed at rate 1/nu_f and accepted
    whole only if every interval ending inside the burst still satisfies both
    budgets; tight parameters therefore degrade to sparse attacks instead of
    failing. The result always passes full validation.
    """
    check_numbers({"seed": seed}, {"seed": (numbers.Integral, 0, False, False)})
    rng = np.random.default_rng(seed)
    p_len = min(1.0, params.nu_d / params.nu_f)
    p_start = 1.0 / params.nu_f

    def propose() -> int:
        return int(rng.geometric(p_len)) if rng.random() < p_start else 0
    return _greedy(params, t_sim, propose, seed)


def generate_worst_case(params: AttackParams, t_sim: int) -> DosSchedule:
    """Deterministic greedy schedule: attack whenever the budgets still allow.

    Maximizes prefix attack density; passes validation by construction.
    """
    return _greedy(params, t_sim, lambda: 1, "adversarial")


def max_success_gap(indicators) -> int:
    """Largest spacing between consecutive attack-free steps.

    The step before time zero and the step after the horizon count as
    notional successes, so leading and trailing attack runs contribute
    run length + 1. An all-attacked schedule reports T + 1.
    """
    ind = _indicators(indicators)
    succ = np.concatenate([[-1], np.flatnonzero(ind == 0), [len(ind)]])
    return int(np.max(np.diff(succ)))


def save_schedule(schedule: DosSchedule, path) -> None:
    """Compact 0/1 text line plus a JSON sidecar with params and diagnostics."""
    path = Path(path)
    path.write_bytes((schedule.indicators.astype(np.uint8) + 48).tobytes() + b"\n")
    params = schedule.params
    try:
        bound: Optional[float] = inter_success_bound(params)
    except ResilienceError:
        bound = None
    sidecar = {
        **vars(params),
        "seed": schedule.seed,
        "ratio": params.ratio,
        "attack_fraction": schedule.attack_fraction,
        "inter_success_bound": bound,
        "max_success_gap": max_success_gap(schedule.indicators),
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2))


def load_schedule(path) -> DosSchedule:
    path = Path(path)
    line = path.read_text().strip()
    meta = json.loads(_sidecar_path(path).read_text())
    params = AttackParams(**{name: meta[name] for name in AttackParams.__dataclass_fields__})
    if set(line) - {"0", "1"}:
        raise ValueError(f"{path}: schedule line must hold only 0 and 1")
    ind = np.array([ch == "1" for ch in line])
    return DosSchedule(indicators=ind, params=params, seed=meta.get("seed"))
