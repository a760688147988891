"""Closed-form machinery: occupancy probabilities, expected slot counts,
phase-2 selection thresholds, and expected per-node energy.

All formulas take the rough estimates as plug-in values wherever the
participation probabilities appear, mirroring how the base station actually
evaluates them online.
"""

from __future__ import annotations

import functools
import math

from .core import LOAD_FACTOR, ProtocolConfig, for_type
from .homogeneous import participation_probability, participations

# Calibrated constants, stored exactly as printed.
C_0366 = 0.366
C_03679 = 0.3679
C_099 = 0.99
C_04751 = 0.4751   # 1 - 2.6 e^{-1.6}
C_07981 = 0.7981   # 1 - e^{-1.6}
LEVEL1_OFFSET = 3.88
LEVEL2_OFFSET = 4.0


class NoBracket(RuntimeError):
    """A threshold function does not cross the requested level in (0, 10]."""


def _ceil(x) -> int:
    return math.ceil(x - 1e-12)


def occupancy(n_b, p_b, ell):
    """(u, v): probability that no / exactly one of n_b nodes, each
    participating with probability p_b and picking one of ell blocks
    uniformly, lands in a given block."""
    if n_b == 0:
        return 1.0, 0.0
    q = p_b / ell
    u = (1.0 - q) ** n_b
    v = n_b * q * (1.0 - q) ** (n_b - 1)
    return u, v


def block_probability(h, t) -> float:
    """Trial-mode block distribution: 2^-h, tail mass folded onto block t."""
    if h < t:
        return 2.0 ** -h
    return 2.0 ** -(t - 1)


def occupancy_geometric(n, h, t):
    """(u', v') for the trial-mode geometric block choice."""
    return occupancy(n, block_probability(h, t), 1)


def q_probs(n, rough, ell, T):
    """Probabilities of the three all-slot-collision cases of one block:
    Q1 (>= 2 type-1 nodes), Q2 (exactly one type-1, every other type
    represented), Q3 (no type-1, >= 2 of every other type)."""
    p = participations(rough, ell, T)
    uv = [occupancy(for_type(n, b), p[b - 1], ell) for b in range(1, T + 1)]
    u1, v1 = uv[0]
    q1 = 1.0 - u1 - v1
    q2 = v1
    q3 = u1
    for u, v in uv[1:]:
        q2 *= 1.0 - u
        q3 *= 1.0 - u - v
    return q1, q2, q3


def expected_K_R(n, rough, ell, T):
    q1, q2, q3 = q_probs(n, rough, ell, T)
    return ell * (q1 + q2 + q3), ell * q1


def lambda_I(T, t_T, s_w, ek, er) -> float:
    """Expected slots of one three-stage execution over t_T blocks, given
    the expected stage-2 / stage-3 block counts (in trial mode, their
    empirical estimates)."""
    return ((T - 1) * t_T + _ceil(t_T / s_w)
            + ek + _ceil(ek / s_w) + (T - 1) * er)


def lambda_II(n, rough, ell, T, s_w) -> float:
    """Expected slots of the balls-and-bins three-stage execution."""
    return lambda_I(T, ell, s_w, *expected_K_R(n, rough, ell, T))


def G1(T) -> float:
    return (1 + 6 * T) - 7.0 * C_04751 ** (T - 1)


def G2(T) -> float:
    return (1 + 6 * T) - 7.0 * C_07981 ** (T - 1)


def f(x, T) -> float:
    return C_0366 ** x * (G1(T) + x * G2(T))


def f1(x, T) -> float:
    return C_03679 ** x * (G1(T) + x * G2(T) / C_099)


@functools.lru_cache(maxsize=256)
def zeta(T, which, tol=1e-6) -> float:
    """zeta_1(T): where f crosses 6T - 3.88; zeta_2(T): where f1 crosses
    6T - 4.  Both functions are strictly decreasing in x, so a bisection
    on (0, 10] suffices.  Memoised: select_phase2 asks for the same few
    thresholds on every replicate."""
    if which == 1:
        fn, level = f, 6 * T - LEVEL1_OFFSET
    elif which == 2:
        fn, level = f1, 6 * T - LEVEL2_OFFSET
    else:
        raise ValueError("which must be 1 or 2")
    lo, hi = 1e-9, 10.0
    g = lambda x: fn(x, T) - level
    if g(lo) <= 0 or g(hi) >= 0:
        raise NoBracket(f"threshold function does not cross level for T={T}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def case2_condition_lhs(n1) -> tuple:
    """Left sides (G1-coefficient, G2-coefficient) of the large-population
    necessary condition; callers compare G1(T)*a + G2(T)*b against 6T-4."""
    a = (1.0 - LOAD_FACTOR / n1) ** n1
    b = LOAD_FACTOR * (1.0 - LOAD_FACTOR / n1) ** (n1 - 1)
    return a, b


def select_phase2(rough, ell, T, s_w=6):
    """Choose the phase-2 method from the rough estimates.

    Returns (method, zone) with method in {"SSBB", "TRepBB"} and zone
    recording whether a threshold decided ("zeta1" / "zeta2" / "load") or
    the indeterminate band was resolved by the direct expected-slot
    comparison ("indeterminate").
    """
    n1 = for_type(rough, 1)
    if n1 >= LOAD_FACTOR * ell:
        return "TRepBB", "load"
    if n1 <= zeta(T, 1) * ell:
        return "SSBB", "zeta1"
    if n1 >= zeta(T, 2) * ell:
        return "TRepBB", "zeta2"
    lam = lambda_II(rough, rough, ell, T, s_w)
    return ("SSBB" if lam <= T * ell else "TRepBB"), "indeterminate"


def n1_star(T, ell, s_w=6) -> float:
    """Rough type-1 population at which the balls-and-bins scheme and the
    per-type repetition baseline take equal expected phase-2 time, with the
    other types' populations taken to infinity."""
    one_minus_u = C_07981
    one_minus_uv = C_04751

    def gap(n1):
        p1 = participation_probability(ell, n1)
        u1, v1 = occupancy(n1, p1, ell)
        q1 = 1.0 - u1 - v1
        q2 = v1 * one_minus_u ** (T - 1)
        q3 = u1 * one_minus_uv ** (T - 1)
        return lambda_I(T, ell, s_w, ell * (q1 + q2 + q3), ell * q1) - T * ell

    lo, hi = 1e-6, LOAD_FACTOR * ell
    # One block (ell = 1) takes every participant: n1 < 1 divides by zero.
    if ell < 2 or gap(lo) >= 0 or gap(hi) <= 0:
        raise NoBracket("no crossover in (0, 1.6*ell)")
    while hi - lo > 1e-6 * ell:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _energy_components(n, T, b, classes, bp1, gammas, frame_slots):
    """Expected (tx, rx, idle) slot counts and energy of a type-b node in
    one three-stage execution, summed over the classes of block the node
    may transmit in.  ``classes`` holds (weight, occ) pairs: weight is the
    chance the node transmits in such a block, and occ(count, i) the (u, v)
    occupancy of ``count`` type-i nodes there.  Balls-and-bins mode has one
    class of weight p_b; trial mode one per block h, of weight 2^-h."""
    gt, gr, gi = gammas
    tx, rx = 0.0, float(bp1)
    for weight, occ in classes:
        if b == 1:
            # Stage 2 when the block is flagged: another type-1 node is
            # there (qp1), or none is and every other type is (qp2).
            u1m, _ = occ(max(for_type(n, 1) - 1, 0), 1)
            qp1 = 1.0 - u1m
            qp2 = u1m
            for i in range(2, T + 1):
                u, _v = occ(for_type(n, i), i)
                qp2 *= 1.0 - u
            tx += weight * ((T - 1) + qp1 + qp2)
        else:
            # Stage 3 when two or more type-1 nodes are there (qpp1);
            # stage 2 is heard whenever the block is flagged.
            u1, v1 = occ(for_type(n, 1), 1)
            qpp1 = 1.0 - u1 - v1
            qppp2 = v1
            ubm, _ = occ(max(for_type(n, b) - 1, 0), b)
            qppp3 = u1 * (1.0 - ubm)
            for i in range(2, T + 1):
                if i == b:
                    continue
                u, v = occ(for_type(n, i), i)
                qppp2 *= 1.0 - u
                qppp3 *= 1.0 - u - v
            tx += weight * (1.0 + qpp1)
            rx += weight * (qpp1 + qppp2 + qppp3)
    idle = frame_slots - tx - rx
    return {"tx_slots": tx, "rx_slots": rx, "idle_slots": idle,
            "energy": tx * gt + rx * gr + idle * gi}


def expected_energy_3ss(n, config: ProtocolConfig, mode, rough=None,
                        frame_slots=None, moments=None):
    """Per-type expected energy components of one three-stage execution.

    mode "trial": geometric blocks over t_T; frame_slots defaults to
    lambda_I evaluated at the supplied (empirical) moments = (ek, er).
    mode "bb": uniform blocks over ell with participation from rough;
    frame_slots defaults to lambda_II.
    """
    T = len(n) if not isinstance(n, dict) else len(n.keys())
    t, ell = config.t_T, config.ell
    if mode == "trial":
        if frame_slots is None:
            if moments is None:
                raise ValueError("trial mode needs frame_slots or moments")
            frame_slots = lambda_I(T, t, config.s_w, *moments)
        bp1 = _ceil(t / config.s_w)
        blocks = [(block_probability(h, t),
                   lambda count, i, h=h: occupancy_geometric(count, h, t))
                  for h in range(1, t + 1)]
        classes = {b: blocks for b in range(1, T + 1)}
    elif mode == "bb":
        if rough is None:
            raise ValueError("bb mode needs rough estimates")
        if frame_slots is None:
            frame_slots = lambda_II(n, rough, ell, T, config.s_w)
        bp1 = _ceil(ell / config.s_w)
        p = participations(rough, ell, T)
        occ = lambda count, i: occupancy(count, p[i - 1], ell)
        classes = {b: [(p[b - 1], occ)] for b in range(1, T + 1)}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {b: _energy_components(n, T, b, classes[b], bp1, config.gammas,
                                  frame_slots)
            for b in range(1, T + 1)}


def expected_energy_trepbb(rough_b, ell, gammas):
    """Per-node expected energy of one repetition-baseline trial for the
    node's own type: transmit with probability p_b, otherwise idle; the
    node sleeps outside its own type's trial."""
    gt, _gr, gi = gammas
    p = participation_probability(ell, rough_b)
    return {"tx_slots": p, "rx_slots": 0.0, "idle_slots": ell - p,
            "energy": p * gt + (ell - p) * gi}


def expected_energy_hsrc1(n, rough, config: ProtocolConfig, phase2_method,
                          trial_frame_slots, phase2_frame_slots=None,
                          boundary_slots=0):
    """Per-type expected total energy of the composite scheme: m_prime
    trial-mode executions, the phase-boundary broadcast (received in full
    by every node), and the chosen phase-2 method."""
    T = len(n) if not isinstance(n, dict) else len(n.keys())
    phase1 = expected_energy_3ss(n, config, "trial",
                                 frame_slots=trial_frame_slots)
    out = {}
    for b in range(1, T + 1):
        total = config.m_prime * phase1[b]["energy"]
        total += boundary_slots * config.gamma_rho
        if phase2_method == "TRepBB":
            total += expected_energy_trepbb(for_type(rough, b), config.ell,
                                            config.gammas)["energy"]
        else:
            p2 = expected_energy_3ss(n, config, "bb", rough=rough,
                                     frame_slots=phase2_frame_slots)
            total += p2[b]["energy"]
        out[b] = total
    return out
