"""Brute-force DoS budget checks: the reference for ``dosmpc.dos``.

These are the all-intervals versions of ``validate_schedule``,
``generate_random`` and ``generate_worst_case``. Every budget check here
scans all O(T^2) intervals with the direct comparison
``count > kappa + m / nu``; ``dosmpc.dos`` must reproduce their reports and
schedules exactly.
"""
import numpy as np

from dosmpc import dos


def _onsets(ind):
    prev = np.concatenate([[0], ind[:-1]])
    return (ind == 1) & (prev == 0)


def validate_schedule(indicators, params):
    ind = np.asarray(indicators, dtype=int)
    n = len(ind)
    pd = np.concatenate([[0], np.cumsum(ind)])
    pf = np.concatenate([[0], np.cumsum(_onsets(ind).astype(int))])
    worst = (-np.inf, 0, 0, "duration")
    for m in range(1, n + 1):
        dur = pd[m:] - pd[:-m]
        frq = pf[m:] - pf[:-m]
        exc_d = dur - (params.kappa_d + m / params.nu_d)
        exc_f = frq - (params.kappa_f + m / params.nu_f)
        for exc, kind in ((exc_d, "duration"), (exc_f, "frequency")):
            i = int(np.argmax(exc))
            if exc[i] > worst[0]:
                worst = (float(exc[i]), i, i + m, kind)
    if n == 0:
        return dos.ScheduleValidation(True, 0, 0, "duration", -np.inf)
    excess, t1, t2, kind = worst
    return dos.ScheduleValidation(excess <= 0.0, t1, t2, kind, excess)


def _suffix_ok(pd, pf, end, params):
    m = np.arange(end, 0, -1)
    dur = pd[end] - pd[:end]
    frq = pf[end] - pf[:end]
    if np.any(dur > params.kappa_d + m / params.nu_d):
        return False
    if np.any(frq > params.kappa_f + m / params.nu_f):
        return False
    return True


def generate_random(params, t_sim, seed=0):
    rng = np.random.default_rng(seed)
    ind = np.zeros(t_sim, dtype=int)
    p_len = min(1.0, params.nu_d / params.nu_f)
    p_start = 1.0 / params.nu_f
    t = 0
    while t < t_sim:
        if rng.random() >= p_start:
            t += 1
            continue
        burst = min(int(rng.geometric(p_len)), t_sim - t)
        ind[t:t + burst] = 1
        pd = np.concatenate([[0], np.cumsum(ind)])
        pf = np.concatenate([[0], np.cumsum(_onsets(ind).astype(int))])
        if all(_suffix_ok(pd, pf, e, params) for e in range(t + 1, t + burst + 1)):
            t += burst
        else:
            ind[t:t + burst] = 0
            t += 1
    return ind.astype(bool)


def generate_worst_case(params, t_sim):
    ind = np.zeros(t_sim, dtype=int)
    for t in range(t_sim):
        ind[t] = 1
        pd = np.concatenate([[0], np.cumsum(ind[:t + 1])])
        pf = np.concatenate([[0], np.cumsum(_onsets(ind[:t + 1]).astype(int))])
        if not _suffix_ok(pd, pf, t + 1, params):
            ind[t] = 0
    return ind.astype(bool)
