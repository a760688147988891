"""Composite estimators and baselines: equality under shared randomness,
override consistency, determinism, and ledgers."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcount import hsrc
from hetcount.analysis import select_phase2
from hetcount.core import (LOF_FACTOR, EnergyLedger, PopulationSpec, RngBank,
                           SlotLedger, SlotOutcome, bitmap_bp_slots,
                           derive_config)
from hetcount.hsrc import (_repeated_block_counts, run_baseline, run_hsrc,
                           run_phase2)
from hetcount.homogeneous import lof_estimate, t_repetitions_srcs
from hetcount.three_stage import (Stage1Result3SS, outcomes_3ss, run_3ss_bb,
                                  run_3ss_followup, run_3ss_trial)
from hetcount.two_stage import (class_codes, plan_slots, resolver_lut,
                                run_2ss_bb, run_2ss_trial, sigma_slots)


def _pop(n, n_all_each):
    return PopulationSpec.fixed(n, n_all=(n_all_each,) * len(n))


class TestEqualityOracle:
    @pytest.mark.parametrize("n", [(800, 1200, 600), (300, 900, 50, 1500)])
    def test_all_three_schemes_agree(self, n):
        pop = _pop(n, 2000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        r1 = run_hsrc("HSRC1", pop, cfg, RngBank(11))
        r2 = run_hsrc("HSRC2", pop, cfg, RngBank(11))
        rt = t_repetitions_srcs(pop, cfg, RngBank(11))
        assert r1.rough == r2.rough == rt.rough
        assert r1.final == r2.final == rt.final

    def test_agreement_survives_phase2_branch(self):
        # Same draws feed both phase-2 methods, so even forcing the branch
        # leaves the final estimates untouched.
        pop = _pop((500, 2500, 2500), 4000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        a = run_hsrc("HSRC1", pop, cfg, RngBank(2), phase2_override="TRepBB")
        b = run_hsrc("HSRC1", pop, cfg, RngBank(2), phase2_override="SSBB")
        assert a.final == b.final


class TestRunHsrc:
    def test_invalid_variant(self):
        pop = _pop((10, 10), 100)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        with pytest.raises(ValueError):
            run_hsrc("HSRC3", pop, cfg, RngBank(0))

    def test_empty_population(self):
        pop = _pop((0, 0, 0), 100)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = run_hsrc("HSRC1", pop, cfg, RngBank(0))
        assert all(v == pytest.approx(1.2897) for v in rep.rough.values())
        assert all(v == 0.0 for v in rep.final.values())

    def test_override_consistency(self):
        pop = _pop((500, 800, 300), 2000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        free = run_hsrc("HSRC1", pop, cfg, RngBank(7))
        forced = run_hsrc("HSRC1", pop, cfg, RngBank(7),
                          phase2_override=free.phase2_method)
        assert forced.final == free.final
        assert forced.ledger == free.ledger
        assert forced.overhead_slots == free.overhead_slots

    def test_deterministic_replay(self):
        pop = _pop((400, 900, 100, 700), 2000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        a = run_hsrc("HSRC2", pop, cfg, RngBank(9))
        b = run_hsrc("HSRC2", pop, cfg, RngBank(9))
        assert a.final == b.final and a.ledger == b.ledger

    def test_ledger_composition(self):
        pop = _pop((500, 800, 300), 2000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = run_hsrc("HSRC1", pop, cfg, RngBank(7))
        combined = rep.phase1_ledger + rep.phase2_ledger
        assert rep.ledger.total == combined.total + (
            rep.ledger.bp - combined.bp)
        assert rep.comparable_total == rep.ledger.total - rep.overhead_slots

    def test_small_t_variants_identical(self):
        pop = _pop((600, 200, 900), 1500)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        r1 = run_hsrc("HSRC1", pop, cfg, RngBank(4))
        r2 = run_hsrc("HSRC2", pop, cfg, RngBank(4))
        assert r1.ledger == r2.ledger
        assert r1.final == r2.final

    def test_energy_partition(self):
        pop = _pop((300, 500, 200), 1000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = run_hsrc("HSRC1", pop, cfg, RngBank(5))
        for b in (1, 2, 3):
            assert (rep.energy.idle(b) >= -1e-9).all()

    def test_selection_zone_recorded(self):
        pop = _pop((500, 800, 300), 2000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        free = run_hsrc("HSRC1", pop, cfg, RngBank(7))
        assert (free.phase2_method, free.phase2_zone) == select_phase2(
            free.rough, cfg.ell, pop.T, cfg.s_w)
        forced = run_hsrc("HSRC2", pop, cfg, RngBank(7),
                          phase2_override="TRepBB")
        assert forced.phase2_zone == "override"

    @pytest.mark.parametrize("T", [3, 4, 5])
    @pytest.mark.parametrize("override", ["SSBB", "TRepBB"])
    def test_hsrc2_overhead_counts_every_broadcast(self, T, override):
        """The rough-estimate broadcast, plus from T = 4 a plan broadcast
        (two bits per block) after every trial and after a 2SS phase 2."""
        pop = _pop((40,) * T, 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = run_hsrc("HSRC2", pop, cfg, RngBank(7),
                       phase2_override=override)

        def plan(blocks):
            return -(-2 * blocks // cfg.s_w) if T >= 4 else 0

        want = -(-T * cfg.t_T // cfg.s_w) + cfg.m_prime * plan(cfg.t_T)
        if override == "SSBB":
            want += plan(cfg.ell)
        assert rep.overhead_slots == want


class TestBaselines:
    def test_unknown_scheme(self):
        pop = _pop((10, 10), 100)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        with pytest.raises(ValueError):
            run_baseline("bogus", pop, cfg, RngBank(0))

    def test_empty_population_floor(self):
        pop = _pop((0, 0, 0), 100)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        for scheme in ("3SS-repeated", "2SS-repeated"):
            rep = run_baseline(scheme, pop, cfg, RngBank(0))
            assert all(v == pytest.approx(1.2897) for v in rep.final.values())

    def test_repeated_schemes_accuracy_band(self):
        # The first-empty-slot estimator carries a small periodic bias in n
        # and saturates as n approaches 2^t, so the trial depth must leave
        # headroom and the check is a sanity band, not the epsilon contract.
        pop = _pop((700, 300, 1100), 1 << 14)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = run_baseline("3SS-repeated", pop, cfg, RngBank(1))
        for b in (1, 2, 3):
            nb = pop.n[b - 1]
            assert abs(rep.final[b] - nb) <= 0.15 * nb

    def test_small_t_parity(self):
        pop = _pop((200, 500, 900), 1024)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        r3 = run_baseline("3SS-repeated", pop, cfg, RngBank(2))
        r2 = run_baseline("2SS-repeated", pop, cfg, RngBank(2))
        assert r2.final == r3.final
        assert r2.ledger == r3.ledger

    def test_no_selection_zone(self):
        pop = _pop((50, 80), 256)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        for scheme in ("3SS-repeated", "2SS-repeated", "TxSRCS"):
            rep = run_baseline(scheme, pop, cfg, RngBank(1))
            assert rep.phase2_zone is None

    def test_txsrcs_delegates(self):
        pop = _pop((100, 100), 1000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        a = run_baseline("TxSRCS", pop, cfg, RngBank(3))
        b = t_repetitions_srcs(pop, cfg, RngBank(3))
        assert a.final == b.final and a.ledger == b.ledger

    def test_repeated_ledger_scaling(self):
        pop = _pop((50, 80, 20, 40), 256)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        r3 = run_baseline("3SS-repeated", pop, cfg, RngBank(4))
        assert r3.ledger.stage1 == 3 * cfg.t_T * cfg.m_lof
        r2 = run_baseline("2SS-repeated", pop, cfg, RngBank(4))
        assert r2.ledger.stage1 == 2 * cfg.t_T * cfg.m_lof
        assert r2.overhead_slots == cfg.m_lof * -(-2 * cfg.t_T // cfg.s_w)


class TestEqualityProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.lists(st.integers(0, 60), min_size=2, max_size=6))
    def test_estimates_agree_under_one_bank(self, seed, n):
        pop = _pop(n, 1 << 10)
        cfg = derive_config(0.05, 0.2, pop.n_all)
        bank = RngBank(seed)
        r1 = run_hsrc("HSRC1", pop, cfg, bank)
        r2 = run_hsrc("HSRC2", pop, cfg, bank)
        rt = t_repetitions_srcs(pop, cfg, bank)
        assert r1.rough == r2.rough == rt.rough
        assert r1.final == r2.final == rt.final


REPEATED = ("3SS-repeated", "2SS-repeated")


class TestSharedRepeatedTrials:
    """Both repeated baselines read one draw of the trials per bank."""

    @pytest.mark.parametrize("n", [(30, 0, 45), (20, 35, 0, 50, 12)])
    @pytest.mark.parametrize("first", REPEATED)
    def test_shared_bank_equals_fresh_banks(self, n, first, monkeypatch):
        pop = _pop(n, 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        fresh = {s: run_baseline(s, pop, cfg, RngBank(5)) for s in REPEATED}
        bank = RngBank(5, share=True)
        shared = {first: run_baseline(first, pop, cfg, bank)}

        def stream(*key):
            raise AssertionError(f"stream {key} drawn again")
        monkeypatch.setattr(bank, "stream", stream)
        for s in REPEATED:
            if s != first:
                shared[s] = run_baseline(s, pop, cfg, bank)
        for s in REPEATED:
            assert shared[s].rough == fresh[s].rough
            assert shared[s].final == fresh[s].final
            assert shared[s].ledger == fresh[s].ledger
            assert shared[s].overhead_slots == fresh[s].overhead_slots

    @staticmethod
    def _kept_bytes(share, schemes, drop_bank):
        """Bytes still held after running ``schemes`` on a fresh bank (and
        after dropping the bank, if ``drop_bank``)."""
        pop = _pop((300,) * 8, 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        for s in REPEATED:      # fill the 2SS decoder table for these codes
            run_baseline(s, pop, cfg, RngBank(2))
        bank = RngBank(2, share=share)
        for b in range(1, pop.T + 1):   # seed words are not the memo's
            bank.stream("rep", b)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s in schemes:
                run_baseline(s, pop, cfg, bank)
            if drop_bank:
                del bank
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_memo_is_one_report(self):
        # One report of T = 8 estimates, not the (M, t, T) trials (181 760
        # counts).
        assert 0 < self._kept_bytes(True, REPEATED[:1], False) <= 4096

    @pytest.mark.parametrize("share, schemes, drop_bank", [
        (True, REPEATED, False),        # the second reader takes it
        (True, REPEATED[::-1], False),
        (True, REPEATED[:1], True),     # freed with the bank
        (False, REPEATED[:1], False),   # a bank that does not share keeps
    ])                                  # nothing
    def test_memo_freed(self, share, schemes, drop_bank):
        assert self._kept_bytes(share, schemes, drop_bank) <= 1024


def _one_shot_block_counts(population, t, M, bank):
    """Reference: the whole (M, n_b) geometric draw at once, per type."""
    T = population.T
    counts = np.zeros((M, t, T), dtype=np.int32)
    for b in range(1, T + 1):
        nb = population.n[b - 1]
        if nb == 0:
            continue
        rng = bank.stream("rep", b)
        g = np.minimum(rng.geometric(0.5, size=(M, nb)), t)
        idx = (np.arange(M)[:, None] * t + (g - 1)).ravel()
        counts[:, :, b - 1] = np.bincount(idx, minlength=M * t).reshape(M, t)
    return counts


class TestRepeatedBlockCounts:
    # Chunked draws of uniforms must reproduce numpy's one-shot geometric
    # draw exactly; this fails if a numpy release changes that algorithm.
    @pytest.mark.parametrize("chunk, n, M, t", [
        (1 << 20, (40, 7, 0), 13, 5),            # n_b far below the budget
        (1 << 20, (1023, 0, 5), 1030, 6),        # 1025 rows per chunk
        (1 << 20, (1 << 20, 1), 3, 20),          # n_b at the budget
        (1 << 20, ((1 << 20) + 1, 2), 2, 1),     # n_b above it, t = 1
        (100, (30, 250, 0), 11, 9),              # 3 rows + 2, and 1 row
        (100, (30, 250, 7), 11, 1),              # small chunks at t = 1, 2
        (100, (30, 250, 7), 11, 2),
        (64, (100, 33, 5), 17, 20),              # 1 row per chunk, t = 20
    ])
    def test_equals_one_shot_draw(self, chunk, n, M, t, monkeypatch):
        monkeypatch.setattr(hsrc, "_REP_CHUNK", chunk)
        pop = _pop(n, max(n))
        got = _repeated_block_counts(pop, t, M, RngBank(3))
        assert got.dtype == np.int32
        assert np.array_equal(got, _one_shot_block_counts(pop, t, M,
                                                          RngBank(3)))

    def test_memory_flat_in_trials_times_nodes(self):
        # m_lof x n_b = 1136 x 2e4 uniforms per type would take 182 MB at
        # once (about 700 MB with the index arrays of a one-shot draw).
        pop = _pop((20_000,) * 4, 1 << 20)
        tracemalloc.start()
        try:
            _repeated_block_counts(pop, 20, 1136, RngBank(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def _hsrc_by_frames(variant, population, config, bank, method):
    """run_hsrc with phase 1 as m' single-frame trials, each with its own
    ledgers, summed one after another."""
    T = population.T
    trial = run_3ss_trial if variant == "HSRC1" else run_2ss_trial
    bb_runner = run_3ss_bb if variant == "HSRC1" else run_2ss_bb
    phase1, overhead = SlotLedger(), 0
    energy = EnergyLedger.zeros(population)
    js = {b: [] for b in range(1, T + 1)}
    for m in range(config.m_prime):
        res = trial(population, config, bank, trial_index=m)
        phase1 = phase1 + res.ledger
        energy.add(res.energy)
        overhead += res.overhead
        for b in js:
            js[b].append(res.j[b])
    rough = {b: lof_estimate(js[b]) for b in js}
    boundary = bitmap_bp_slots(T * config.t_T, config.s_w)
    energy.charge_all(rx=boundary, accounted=boundary)
    _z, _ledger, p2_energy, p2_plan = run_phase2(
        method, bb_runner, population, rough, config, bank)
    energy.add(p2_energy)
    return rough, phase1, boundary + overhead + p2_plan, energy


class TestTrialEngineMatchesFrames:
    """Phase 1 through the trial engine equals m' single-frame trials."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["HSRC1", "HSRC2"]),
           st.sampled_from(["SSBB", "TRepBB"]), st.integers(2, 10),
           st.integers(1, 8), st.integers(1, 10), st.integers(6, 20),
           st.sampled_from([None, 40]), st.data())
    def test_run_hsrc_equals_single_frames(self, seed, variant, method, T,
                                           s_w, m_prime, depth, chunk, data):
        n = data.draw(st.lists(st.integers(0, 60), min_size=T, max_size=T))
        if chunk is not None:   # at least one type above the chunk budget
            n[data.draw(st.integers(0, T - 1))] = data.draw(
                st.integers(chunk + 1, 60))
        pop = _pop(n, 1 << depth)
        cfg = derive_config(0.05, 0.2, pop.n_all, s_w=s_w, m_prime=m_prime)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(hsrc, "_REP_CHUNK", chunk)
            got = run_hsrc(variant, pop, cfg, RngBank(seed),
                           phase2_override=method)
        rough, phase1, overhead, energy = _hsrc_by_frames(
            variant, pop, cfg, RngBank(seed), method)
        assert got.rough == rough
        assert got.phase1_ledger == phase1
        assert got.overhead_slots == overhead
        for field in ("tx", "rx", "accounted"):
            have, want = getattr(got.energy, field), getattr(energy, field)
            assert sorted(have) == sorted(want) == list(range(1, T + 1))
            for b in want:
                assert have[b].dtype == want[b].dtype
                assert np.array_equal(have[b], want[b])

    @pytest.mark.parametrize("variant", ["HSRC1", "HSRC2"])
    def test_phase1_memory(self, variant):
        # (m', n) int64 blocks per type alone would hold 64 MB here; the
        # single-frame loop peaked at 67 MB.
        pop = _pop((200_000,) * 4, 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        run_hsrc(variant, pop, cfg, RngBank(0))
        gc.collect()
        tracemalloc.start()
        try:
            run_hsrc(variant, pop, cfg, RngBank(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20


def _repeated_report_by_formula(scheme, counts, s_w):
    """The repeated baselines' report from (M, t, T) counts by the count
    formulas of their first bulk version, with presence decoded per block
    (the 3SS follow-up, the 2SS tables)."""
    M, t, T = counts.shape
    c1 = counts[:, :, 0]
    cb = counts[:, :, 1:]
    if scheme == "3SS-repeated" or T <= 3:
        flagged = ((c1[:, :, None] + cb) >= 2).all(axis=2)
        K = flagged.sum(axis=1)
        R = (flagged & (c1 >= 2)).sum(axis=1)
        ledger = SlotLedger(
            stage1=(T - 1) * t * M, stage2=int(K.sum()),
            stage3=(T - 1) * int(R.sum()),
            bp=M * bitmap_bp_slots(t, s_w) + int(
                np.ceil(K / s_w).astype(np.int64).sum()))
        overhead = 0
        presence = np.zeros(counts.shape, dtype=bool)
        for m in range(M):
            out = outcomes_3ss(counts[m])
            rows = np.flatnonzero((out == SlotOutcome.COLLISION.value).all(
                axis=1))
            stage1 = Stage1Result3SS(counts[m], out, {}, (rows + 1).tolist())
            presence[m] = run_3ss_followup(stage1, s_w).presence
    else:
        codes = class_codes(counts)
        lut = resolver_lut(T)
        lut.ensure(codes.ravel())
        presence, extra = lut.presence[codes], lut.extra[codes]
        plan = plan_slots(T, t, s_w)
        ledger = SlotLedger(stage1=sigma_slots(T) * t * M,
                            stage2=int(extra.sum()),
                            bp=M * (bitmap_bp_slots(t, s_w) + plan))
        overhead = M * plan
    final = {}
    for b in range(1, T + 1):
        absent = ~presence[:, :, b - 1]
        j = np.where(absent.any(axis=1), absent.argmax(axis=1) + 1, t)
        final[b] = LOF_FACTOR * 2.0 ** (float(j.sum() - M) / M)
    return final, ledger, overhead


class TestRepeatedReportMatchesFormula:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10),
           st.integers(1, 40), st.integers(1, 20), st.integers(1, 8),
           st.sampled_from([0.2, 0.8, 2.5]), st.sampled_from(REPEATED))
    def test_report_equals_formula(self, seed, T, M, t, s_w, load, scheme):
        counts = np.random.default_rng(seed).poisson(
            load, size=(M, t, T)).astype(np.int32)
        rep = hsrc._repeated_report(scheme, counts.transpose(2, 0, 1), s_w)
        final, ledger, overhead = _repeated_report_by_formula(scheme, counts,
                                                              s_w)
        assert rep.final == rep.rough == final
        assert rep.ledger == ledger
        assert rep.overhead_slots == overhead
