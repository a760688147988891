"""Acceptance suite: one test per graded criterion.

Each test is self-contained and states its tolerance inline; tolerances are
the contract, not tuning knobs.
"""

import math
import time

import numpy as np
import pytest

from hetcount.analysis import expected_K_R, expected_energy_3ss, \
    expected_energy_trepbb, zeta
from hetcount.core import (
    PopulationSpec,
    RngBank,
    bitmap_bp_slots,
    derive_config,
)
from hetcount.homogeneous import t_repetitions_srcs
from hetcount.hsrc import run_baseline, run_hsrc, run_phase2
from hetcount.three_stage import (
    Stage1Result3SS,
    outcomes_3ss,
    run_3ss_bb,
    run_3ss_followup,
    run_3ss_trial,
)
from hetcount.two_stage import class_codes, resolver_lut, sigma_slots

COLLISION = 3


def test_criterion_1_zeta_table():
    """Threshold table reproduces the published series within 5e-3, fast."""
    zeta1_ref = [0.4932, 0.6286, 0.6213, 0.5897, 0.5548, 0.5220, 0.4926]
    zeta2_ref = [0.5384, 0.6622, 0.6510, 0.6173, 0.5812, 0.5475, 0.5174]
    start = time.perf_counter()
    for T, (z1, z2) in enumerate(zip(zeta1_ref, zeta2_ref), start=2):
        assert abs(zeta(T, 1) - z1) <= 5e-3, f"zeta1({T})"
        assert abs(zeta(T, 2) - z2) <= 5e-3, f"zeta2({T})"
    assert time.perf_counter() - start < 1.0


def test_criterion_2_crossover():
    """Mean balls-and-bins phase-2 total brackets the 3*ell=9027 baseline
    at rough type-1 estimates of 1500 and 4000 (300 replicates)."""
    ell = 3009
    big = 2 * ell
    means = {}
    for n1 in (1500, 4000):
        n = (n1, big, big)
        pop = PopulationSpec.fixed(n, n_all=(10000,) * 3)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rough = {1: n1, 2: big, 3: big}
        totals = [run_3ss_bb(pop, rough, cfg, RngBank(seed)).ledger.total
                  for seed in range(300)]
        means[n1] = float(np.mean(totals))
    assert means[1500] < 9027 < means[4000], means


def test_criterion_3_trepbb_exact_total():
    """The per-type repetition phase 2 costs exactly T*ell slots."""
    for T in range(2, 7):
        for ell in (1075, 3009):
            n = (400,) * T
            pop = PopulationSpec.fixed(n, n_all=(1000,) * T)
            cfg = derive_config(0.03, 0.2, pop.n_all, ell=ell)
            rough = {b: 400 for b in range(1, T + 1)}
            ledger = run_phase2("TRepBB", None, pop, rough, cfg,
                                RngBank(T)).ledger
            assert ledger.total == T * ell, (T, ell, ledger)


def test_criterion_4_estimator_equality():
    """Both composite variants and the per-type baseline produce identical
    estimates under shared randomness: 100 random instances, T in 2..6."""
    rng = np.random.default_rng(2024)
    checked = 0
    for T in range(2, 7):
        for _ in range(20):
            n = tuple(int(x) for x in rng.integers(0, 1500, T))
            pop = PopulationSpec.fixed(n, n_all=(4096,) * T)
            cfg = derive_config(0.03, 0.2, pop.n_all)
            seed = int(rng.integers(0, 2 ** 32))
            r1 = run_hsrc("HSRC1", pop, cfg, RngBank(seed))
            r2 = run_hsrc("HSRC2", pop, cfg, RngBank(seed))
            rt = t_repetitions_srcs(pop, cfg, RngBank(seed))
            assert r1.final == r2.final == rt.final, (T, n)
            checked += 1
    assert checked == 100


def test_criterion_5_accuracy_contract():
    """Per-type empirical accuracy >= 0.75 at epsilon=0.05, delta=0.2,
    T=3, populations in 500..2000, 300 replicates per variant."""
    rng = np.random.default_rng(7)
    reps = 300
    for variant in ("HSRC1", "HSRC2"):
        hits = np.zeros(3)
        for rep in range(reps):
            n = tuple(int(x) for x in rng.integers(500, 2001, 3))
            pop = PopulationSpec.fixed(n, n_all=(1 << 14,) * 3)
            cfg = derive_config(0.05, 0.2, pop.n_all)
            report = run_hsrc(variant, pop, cfg, RngBank(rep))
            for b in range(1, 4):
                if abs(report.final[b] - n[b - 1]) <= cfg.epsilon * n[b - 1]:
                    hits[b - 1] += 1
        rates = hits / reps
        assert (rates >= 0.75).all(), (variant, rates)


def test_criterion_6_moment_match():
    """Analytical stage-2 / stage-3 expectations within 5% of empirical
    means: T=4, n_b=1000, ell=3009, 500 replicates."""
    T, ell = 4, 3009
    n = (1000,) * T
    pop = PopulationSpec.fixed(n, n_all=(2000,) * T)
    cfg = derive_config(0.03, 0.2, pop.n_all)
    rough = {b: 1000 for b in range(1, T + 1)}
    k_emp, r_emp = [], []
    for seed in range(500):
        res = run_3ss_bb(pop, rough, cfg, RngBank(seed))
        k_emp.append(res.ledger.stage2)
        r_emp.append(res.ledger.stage3 / (T - 1))
    ek, er = expected_K_R(n, rough, ell, T)
    assert abs(np.mean(k_emp) - ek) <= 0.05 * ek, (np.mean(k_emp), ek)
    assert abs(np.mean(r_emp) - er) <= 0.05 * er, (np.mean(r_emp), er)


def test_criterion_7_ordering_and_savings():
    """Activity-sampled sweep over T=3..8: mean comparable slot totals obey
    hsrc2 <= hsrc1 < per-type baseline < two-stage <= three-stage at every
    T, and the composite two-stage variant saves 25-50% (sweep average)
    over the per-type baseline."""
    from hetcount.harness import figure_preset

    rows = figure_preset("fig11a", replicates=60)
    by_t = {}
    for r in rows:
        by_t.setdefault(r.sweep_value, {})[r.scheme] = r.mean_slots
    savings = []
    for T, m in sorted(by_t.items()):
        assert m["hsrc2"] <= m["hsrc1"] < m["txsrcs"] < m["2ss-rep"] \
            <= m["3ss-rep"], (T, m)
        savings.append(1.0 - m["hsrc2"] / m["txsrcs"])
    avg = float(np.mean(savings))
    assert 0.25 <= avg <= 0.50, (avg, savings)


def test_criterion_8_decoder_soundness():
    """10^4 random frames across T=2..8 and both block codes: recovered
    presence equals ground truth and every ledger identity holds exactly."""
    rng = np.random.default_rng(99)
    frames_per_cell = 750
    n_blocks = 12
    s_w = 6
    total_frames = 0
    for T in range(2, 9):
        lut = resolver_lut(T)
        for _ in range(frames_per_cell):
            lam = rng.uniform(0.05, 2.5)
            counts = rng.poisson(lam, size=(n_blocks, T))
            truth = counts > 0

            # Three-stage path.
            out = outcomes_3ss(counts)
            flagged = [int(h) + 1 for h in
                       np.flatnonzero((out == COLLISION).all(axis=1))]
            stage1 = Stage1Result3SS(counts=counts, outcomes=out,
                                     chosen={}, flagged=flagged)
            frame = run_3ss_followup(stage1, s_w)
            assert (frame.presence == truth).all()
            led = frame.ledger
            assert led.stage1 == (T - 1) * n_blocks
            assert led.stage2 == len(flagged)
            assert led.stage3 == (T - 1) * len(frame.r_list)
            assert led.bp == bitmap_bp_slots(n_blocks, s_w) + \
                bitmap_bp_slots(len(flagged), s_w)
            assert led.total == led.stage1 + led.stage2 + led.stage3 + led.bp

            # Two-stage path.
            codes = class_codes(counts)
            lut.ensure(np.unique(codes))
            assert (lut.presence[codes] == truth).all()
            extra = int(lut.extra[codes].sum())
            assert extra >= 0
            assert sigma_slots(T) * n_blocks + extra >= 0
            total_frames += 2
    assert total_frames >= 10_000


def test_criterion_9_energy():
    """Analytical per-type energy matches simulation: the repetition
    baseline within 2%, the trial-mode three-stage scheme within 3 standard
    errors (T=3, n_b=1000, 500 replicates), and with equal per-slot costs
    every per-node total equals frame-length times that cost exactly."""
    T = 3
    n = (1000,) * T
    pop = PopulationSpec.fixed(n, n_all=(2048,) * T)
    gammas = dict(gamma_tau=2.0, gamma_rho=1.5, gamma_iota=0.2)
    cfg = derive_config(0.03, 0.2, pop.n_all, **gammas)
    rough = {b: 1000 for b in range(1, T + 1)}

    # Repetition-baseline phase 2 vs its closed form.
    per_rep = {b: [] for b in range(1, T + 1)}
    for seed in range(500):
        energy = run_phase2("TRepBB", None, pop, rough, cfg,
                            RngBank(seed)).energy
        for b in per_rep:
            per_rep[b].append(energy.mean_energy(b, cfg))
    for b in per_rep:
        pred = expected_energy_trepbb(rough[b], cfg.ell, cfg.gammas)["energy"]
        emp = float(np.mean(per_rep[b]))
        assert abs(emp - pred) <= 0.02 * pred, (b, emp, pred)

    # Trial-mode three-stage scheme vs the event formulas.  The frame
    # length fed to the formulas is the empirical mean total, so the
    # comparison isolates the per-slot event probabilities.
    per_rep = {b: [] for b in range(1, T + 1)}
    totals = []
    for seed in range(500):
        res = run_3ss_trial(pop, cfg, RngBank(seed))
        totals.append(res.ledger.total)
        for b in per_rep:
            per_rep[b].append(res.energy.mean_energy(b, cfg))
    frame_slots = float(np.mean(totals))
    comps = expected_energy_3ss(n, cfg, "trial", frame_slots=frame_slots)
    for b in per_rep:
        emp = np.asarray(per_rep[b])
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(emp.mean() - comps[b]["energy"]) <= 3 * se, (
            b, emp.mean(), comps[b]["energy"], se)

    # Equal per-slot costs: exact conservation, analytically and per node.
    flat = derive_config(0.03, 0.2, pop.n_all)
    res = run_3ss_trial(pop, flat, RngBank(0))
    for b in range(1, T + 1):
        assert np.allclose(res.energy.energy(b, flat), res.ledger.total)
    comps = expected_energy_3ss(n, flat, "bb", rough=rough)
    for b in range(1, T + 1):
        c = comps[b]
        frame = c["tx_slots"] + c["rx_slots"] + c["idle_slots"]
        assert c["energy"] == pytest.approx(frame)
