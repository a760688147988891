"""Composite estimators and baselines: equality under shared randomness,
override consistency, determinism, and ledgers."""

import functools
import gc
import sys
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcount import core, hsrc, three_stage
from hetcount.analysis import select_phase2
from hetcount.core import (LOF_FACTOR, EnergyLedger, PopulationSpec, RngBank,
                           SlotLedger, SlotOutcome, bitmap_bp_slots,
                           derive_config)
from hetcount.harness import PHASE2_ONLY, READS, SCHEMES, figure_preset
from hetcount.hsrc import (_repeated_block_classes, run_baseline, run_hsrc,
                           run_phase2)
from hetcount.homogeneous import (bb_trials, lof_estimate, lof_estimates,
                                  participation_probability, run_srcs,
                                  t_repetitions_srcs)
from hetcount.three_stage import (Stage1Result3SS, outcomes_3ss, run_3ss_bb,
                                  run_3ss_followup, run_3ss_trial)
from hetcount.two_stage import (class_codes, plan_slots, resolve_2ss,
                                resolver_lut, run_2ss_bb, run_2ss_trial,
                                sigma_slots)


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
        bank = RngBank(5, {"rep": 2})
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
        bank = RngBank(2, {"rep": 2} if share else None)
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
        # One report of T = 8 estimates, not the (T, M, t) trials (181 760
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


# Every scheme that reads the phase-1 trial counts, in harness order.
PHASE1_READERS = [s for s in SCHEMES if READS.get(s) == "p1"]


class TestSharedPhase1:
    """Each bank draws the m' phase-1 trials once, as counts, for all the
    scheme runs that read them, and holds them until the last has read."""

    @pytest.mark.parametrize("n", [(300, 0, 800, 45), (500, 2500, 2500)])
    def test_shared_bank_equals_fresh_banks(self, n):
        pop = _pop(n, 4000)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        bank = RngBank(3, {"p1": len(PHASE1_READERS)})
        for s in PHASE1_READERS:
            shared = SCHEMES[s](pop, cfg, bank, {})
            fresh = SCHEMES[s](pop, cfg, RngBank(3), {})
            assert shared.rough == fresh.rough
            assert shared.final == fresh.final
            assert shared.ledger == fresh.ledger
            assert shared.overhead_slots == fresh.overhead_slots
            assert np.array_equal(shared.energy.sums, fresh.energy.sums)
        assert not bank._kept

    # The (T, m', t_T) int32 counts of _kept_bytes: 6 x 40 x 20 x 4 bytes.
    COUNTS = 19200
    # Allowance for what numpy's small-buffer cache and dict tables keep.
    SLACK = 2048

    @staticmethod
    def _kept_bytes(readers, schemes):
        """Bytes still held by a bank made with ``readers`` after running
        ``schemes`` on it, their reports dropped."""
        pop = _pop((300, 20, 0, 700, 90, 5), 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all, m_prime=40)
        for s in schemes:       # fill the decoder tables and caches
            SCHEMES[s](pop, cfg, RngBank(2), {})
        bank = RngBank(2, readers)
        # Seed words are not the memo's.
        bank.streams([("p1", m, b) for b in range(1, pop.T + 1)
                      for m in range(cfg.m_prime)]
                     + [("p2", b) for b in range(1, pop.T + 1)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s in schemes:
                SCHEMES[s](pop, cfg, bank, {})
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_held_until_the_last_reader(self):
        held = self._kept_bytes({"p1": 3}, ["txsrcs", "hsrc1"])
        assert self.COUNTS <= held <= self.COUNTS + self.SLACK

    @pytest.mark.parametrize("readers, schemes", [
        ({"p1": 7}, PHASE1_READERS),            # the last reader frees it
        ({"p1": 2}, PHASE1_READERS[::-1][:2]),
        ({"p1": 1}, ["hsrc2"]),                 # one reader keeps nothing
        (None, ["txsrcs"]),
    ])
    def test_memo_freed(self, readers, schemes):
        assert self._kept_bytes(readers, schemes) <= self.SLACK


class TestSharedPhase2:
    """Each bank draws the balls-and-bins trial of the phase-2-only schemes
    once, as counts, for all of them, and holds it until the last has
    read."""

    @pytest.mark.parametrize("n, rough, ell", [
        ((300, 900, 0, 40), (280, 1000, 5, 40), None),
        # Participation 1 puts about 1667 nodes in each of 3 slots, past
        # what the uint8 counts of the other case hold.
        ((5000, 5000, 5000), (4, 4, 4), 3),
    ])
    def test_shared_bank_equals_fresh_banks(self, n, rough, ell):
        pop = _pop(n, 1 << 13)
        cfg = derive_config(0.03, 0.2, pop.n_all, ell=ell)
        prm = {"rough": dict(enumerate(rough, 1))}
        bank = RngBank(5, {"p2": len(PHASE2_ONLY)})
        counts = []
        for s in PHASE2_ONLY:
            shared = SCHEMES[s](pop, cfg, bank, prm)
            fresh = SCHEMES[s](pop, cfg, RngBank(5), prm)
            assert shared.final == fresh.final
            assert shared.flags == fresh.flags
            assert shared.ledger == fresh.ledger
            assert shared.overhead_slots == fresh.overhead_slots
            assert np.array_equal(shared.energy.sums, fresh.energy.sums)
            for b in range(1, pop.T + 1):
                assert np.array_equal(shared.energy.tx[b],
                                      fresh.energy.tx[b])
                assert np.array_equal(shared.energy.rx[b],
                                      fresh.energy.rx[b])
        assert not bank._kept
        held = bb_trials(pop.n, prm["rough"], cfg, RngBank(5))[0]
        assert not held.flags.writeable
        assert held.dtype == np.min_scalar_type(held.max())
        assert (held.max() > 255) == (ell == 3)

    def test_each_reader_owns_its_estimates(self):
        # The estimates are worked out once per draw, and each reader gets
        # its own final and flags dicts: editing a report leaves the later
        # readers' as a fresh bank gives them.  At p = 1, 5000 nodes fill
        # all 3 slots, so every type is flagged.
        pop = _pop((5000, 5000, 5000), 1 << 13)
        cfg = derive_config(0.03, 0.2, pop.n_all, ell=3)
        prm = {"rough": {1: 4, 2: 4, 3: 4}}
        bank = RngBank(5, {"p2": len(PHASE2_ONLY)})
        for s in PHASE2_ONLY:
            want = SCHEMES[s](pop, cfg, RngBank(5), prm)
            report = SCHEMES[s](pop, cfg, bank, prm)
            assert len(want.flags) == 3
            assert report.final == want.final and report.flags == want.flags
            report.final[1] = -1.0
            report.flags.clear()
        assert not bank._kept

    # The (T, ell) uint8 counts of _kept_bytes: 6 x 3009 bytes.
    COUNTS = 18054
    # Allowance for what numpy's small-buffer cache and dict tables keep.
    SLACK = 2048

    @staticmethod
    def _kept_bytes(readers, schemes):
        """Bytes still held by a bank made with ``readers`` after running
        ``schemes`` on it, their reports dropped."""
        pop = _pop((300, 20, 0, 700, 90, 5), 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        prm = {"rough": dict(enumerate(pop.n, 1))}
        for s in schemes:       # fill the decoder tables and caches
            SCHEMES[s](pop, cfg, RngBank(2), prm)
        bank = RngBank(2, readers)
        # Seed words are not the memo's.
        bank.streams([("p2", b) for b in range(1, pop.T + 1)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s in schemes:
                SCHEMES[s](pop, cfg, bank, prm)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_held_until_the_last_reader(self):
        held = self._kept_bytes({"p2": 3}, PHASE2_ONLY[:2])
        assert self.COUNTS <= held <= self.COUNTS + self.SLACK

    @pytest.mark.parametrize("readers, schemes", [
        ({"p2": 3}, PHASE2_ONLY),               # the last reader frees it
        ({"p2": 2}, PHASE2_ONLY[::-1][:2]),
        ({"p2": 1}, ["p2-2ssbb"]),              # one reader keeps nothing
        (None, ["p2-trepbb"]),
    ])
    def test_memo_freed(self, readers, schemes):
        assert self._kept_bytes(readers, schemes) <= self.SLACK


def _one_shot_block_counts(population, t, M, bank):
    """Reference: the whole (M, n_b) geometric draw at once, per type."""
    T = population.T
    counts = np.zeros((T, M, t), dtype=np.int32)
    for b in range(1, T + 1):
        nb = population.n[b - 1]
        if nb == 0:
            continue
        rng = bank.stream("rep", b)
        g = np.minimum(rng.geometric(0.5, size=(M, nb)), t)
        idx = (np.arange(M)[:, None] * t + (g - 1)).ravel()
        counts[b - 1] = np.bincount(idx, minlength=M * t).reshape(M, t)
    return counts


class TestRepeatedBlockCounts:
    # Chunked draws of uniforms must reproduce numpy's one-shot geometric
    # draw exactly; this fails if a numpy release changes that algorithm.
    # ``cpus`` sets the workers to min(T, cpus) wherever some type's trials
    # span more than one chunk, so the pooled draw runs on any machine.  The
    # first eight cases keep the ids they had without it.  ``classes`` marks
    # the cases with a type of 512 or more nodes at t >= 3, which
    # core._class_chunk keeps as classes: there only min(count, 2) is exact.
    @pytest.mark.parametrize("chunk, n, M, t, cpus, classes", [
        # n_b far below the budget: one chunk, drawn inline.
        pytest.param(1 << 20, (40, 7, 0), 13, 5, 2, False,
                     id="1048576-n0-13-5"),
        # 1030 trials span chunks; types 1 and 3 on two of three workers.
        pytest.param(1 << 20, (1023, 0, 5), 1030, 6, 3, True,
                     id="1048576-n1-1030-6"),
        # n_b at the budget, and above it at t = 1: one row per chunk.
        pytest.param(1 << 20, (1 << 20, 1), 3, 20, 2, True,
                     id="1048576-n2-3-20"),
        pytest.param(1 << 20, ((1 << 20) + 1, 2), 2, 1, 2, False,
                     id="1048576-n3-2-1"),
        # 3 rows + 2, and 1 row, on one worker.
        pytest.param(100, (30, 250, 0), 11, 9, 1, False, id="100-n4-11-9"),
        # Small chunks at t = 1, 2.
        pytest.param(100, (30, 250, 7), 11, 1, 3, False, id="100-n5-11-1"),
        pytest.param(100, (30, 250, 7), 11, 2, 2, False, id="100-n6-11-2"),
        # 1 row per chunk, t = 20.
        pytest.param(64, (100, 33, 5), 17, 20, 2, False, id="64-n7-17-20"),
        # T = 3 on 2 workers: two types on one, one on the other.
        pytest.param(100, (40, 25, 9), 13, 4, 2, False, id="uneven-split"),
        # A zero-count type beside a drawn one in a worker's group.
        pytest.param(100, (40, 25, 0, 9), 13, 5, 2, False,
                     id="zero-type-in-group"),
        # One worker's types need 45 and 70 uniforms a chunk, the other's
        # 40 and 45, each through its worker's one pair of buffers.
        pytest.param(100, (3, 20, 70, 45), 15, 6, 2, False,
                     id="mixed-n-in-group"),
        # M * max(n_b) at the budget (inline) and one trial row above it.
        pytest.param(100, (5, 4, 5), 20, 4, 3, False, id="at-budget"),
        pytest.param(100, (5, 4, 5), 21, 4, 3, False, id="above-budget"),
    ])
    def test_equals_one_shot_draw(self, chunk, n, M, t, cpus, classes,
                                  monkeypatch):
        monkeypatch.setattr(core, "_TRIAL_CHUNK", chunk)
        monkeypatch.setattr(core, "_CPUS", cpus)
        pop = _pop(n, max(n))
        got = _repeated_block_classes(pop, t, M, RngBank(3))
        assert got.dtype == np.int32
        one_shot = _one_shot_block_counts(pop, t, M, RngBank(3))
        if classes:
            got, one_shot = np.minimum(got, 2), np.minimum(one_shot, 2)
        assert np.array_equal(got, one_shot)

    def test_memory_flat_in_trials_times_nodes(self):
        # m_lof x n_b = 1136 x 2e4 uniforms per type would take 182 MB at
        # once (about 700 MB with the index arrays of a one-shot draw).
        pop = _pop((20_000,) * 4, 1 << 20)
        tracemalloc.start()
        try:
            _repeated_block_classes(pop, 20, 1136, RngBank(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestRepeatedBlockClasses:
    """Types of 512 or more nodes are kept as count classes; the repeated
    baselines read no more than min(count, 2)."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.integers(512, 50_000), min_size=2, max_size=4),
           st.integers(1, 6), st.integers(3, 20),
           st.sampled_from([4096, 1 << 14, 1 << 16]), st.sampled_from([1, 2]))
    def test_property_equals_clipped_one_shot(self, n, M, t, chunk, cpus):
        pop = _pop(n, max(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_TRIAL_CHUNK", chunk)
            mp.setattr(core, "_CPUS", cpus)
            got = _repeated_block_classes(pop, t, M, RngBank(17))
        one_shot = _one_shot_block_counts(pop, t, M, RngBank(17))
        assert np.array_equal(got, np.minimum(one_shot, 2))

    def test_reports_equal_those_of_exact_counts(self):
        pop = _pop((3000,) * 4, 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        exact = _one_shot_block_counts(pop, cfg.t_T, cfg.m_lof, RngBank(6))
        assert exact.max() > 2
        bank = RngBank(6, {"rep": 2})
        for s in REPEATED:
            got = run_baseline(s, pop, cfg, bank)
            want = hsrc._repeated_report(s, exact, cfg.s_w,
                                         lof_estimates(exact))
            assert got.final == want.final
            assert got.ledger == want.ledger
            assert got.overhead_slots == want.overhead_slots


class TestPerNodeEnergyDraws:
    def test_each_trial_frame_drawn_once(self, monkeypatch):
        pop = _pop((40, 25, 9), 1 << 10)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        assert cfg.m_prime == 10
        report = run_hsrc("HSRC1", pop, cfg, RngBank(8))
        draws = []
        streams = RngBank.streams

        def counted(bank, keys):
            draws.extend(key for key in keys if key[0] == "p1")
            return streams(bank, keys)
        monkeypatch.setattr(RngBank, "streams", counted)
        # A read of one type opens that type's m' frame streams, once: idle
        # reads all three of its records.
        report.energy.idle(1)
        assert len(draws) == cfg.m_prime
        assert {pop.n[key[2] - 1] for key in draws} == {pop.n[0]}
        for b in range(2, pop.T + 1):
            report.energy.idle(b)
        assert len(draws) == cfg.m_prime * pop.T

    def test_per_node_sums_of_the_frame_tables(self):
        _assert_frame_table_sums(_pop((40, 0, 25, 9), 1 << 10))


def _assert_frame_table_sums(pop):
    """Reference: each node's table entries at its blocks, drawn whole by
    core.geometric_block_choices, summed frame by frame, one table at a
    time."""
    cfg = derive_config(0.03, 0.2, pop.n_all)
    for resolve in (three_stage.resolve_3ss, resolve_2ss):
        counts, _, _, energy = three_stage.trial_frames(
            resolve, pop, cfg, RngBank(8))
        tables = resolve(counts, cfg.s_w, pop.n)[2][2]
        for b, nb in enumerate(pop.n, 1):
            streams = RngBank(8).streams(
                [("p1", m, b) for m in range(cfg.m_prime)])
            blocks = [core.geometric_block_choices(rng, nb, cfg.t_T)
                      for rng in streams]
            for have, table in zip((energy.tx, energy.rx), tables(b)):
                want = sum(row.take(bl) for row, bl in zip(table, blocks))
                assert have[b].dtype == np.float64
                assert np.array_equal(have[b], want)


class TestRepeatedDrawThreads:
    """The pooled draw runs no stream derivation or traced draw on a pool
    thread, and small draws never make the pool."""

    def test_streams_and_draws_on_calling_thread(self, monkeypatch):
        # The repeated baselines' draw and run_hsrc's phase 1 (m' = 10
        # trials of 300 nodes) both cross a 1000-node chunk budget.
        monkeypatch.setattr(core, "_TRIAL_CHUNK", 1000)
        pop = _pop((300, 200, 250), 1 << 20)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        assert cfg.m_prime * max(pop.n) > 1000

        def runs(bank):
            reports = {s: run_baseline(s, pop, cfg, bank) for s in REPEATED}
            reports["HSRC1"] = run_hsrc("HSRC1", pop, cfg, RngBank(5))
            return reports
        monkeypatch.setattr(core, "_CPUS", 1)
        inline = runs(RngBank(5))
        monkeypatch.setattr(core, "_CPUS", 2)

        threads = {"stream": [], "draw": [], "worker": []}

        def recorded(kind, fn):
            def call(*args, **kwargs):
                threads[kind].append(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        streams = RngBank.streams

        def opened(bank, keys):
            threads["stream"].extend(threading.get_ident() for _ in keys)
            return streams(bank, keys)
        monkeypatch.setattr(RngBank, "streams", opened)
        for draw in (core.geometric_block_choices, core.uniform_block_choices,
                     core.geometric_block_pieces, core.bb_node_pieces):
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("hetcount"):
                    for key, value in list(vars(module).items()):
                        if value is draw:
                            monkeypatch.setattr(module, key,
                                                recorded("draw", draw))
        monkeypatch.setattr(core, "_draw_types",
                            recorded("worker", core._draw_types))
        reports = runs(RngBank(5, {"rep": 2}))
        # "rep" and phase-2 keys per type, and phase 1's m' per type.
        assert len(threads["stream"]) == pop.T * (2 + cfg.m_prime)
        # Per-node energy draws phase 1's node blocks again, on this thread,
        # one type per read.
        drawn = len(threads["draw"])
        for b in range(1, pop.T + 1):
            opened = len(threads["stream"])
            reports["HSRC1"].energy.idle(b)
            assert len(threads["stream"]) > opened
        assert len(threads["draw"]) > drawn

        caller = threading.get_ident()
        assert threads["draw"]
        assert set(threads["stream"] + threads["draw"]) == {caller}
        # Two workers for the repeated trials, two for phase 1.
        assert len(threads["worker"]) == 4
        assert caller not in threads["worker"]
        for s, report in reports.items():
            assert report.final == inline[s].final
            assert report.rough == inline[s].rough
            assert report.ledger == inline[s].ledger

    def test_more_threads_than_cpus_under_fast_switching(self, monkeypatch):
        # Six workers share the counts array, each writing its own types'
        # slices; a lost or misplaced write shows against the one-shot draw.
        monkeypatch.setattr(core, "_TRIAL_CHUNK", 600)
        monkeypatch.setattr(core, "_CPUS", 6)
        pool = ThreadPoolExecutor(max_workers=6)
        monkeypatch.setattr(core, "_pool", lambda: pool)
        pop = _pop((90, 45, 0, 120, 7, 60), 120)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _repeated_block_classes(pop, 8, 200, RngBank(4))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)
        assert np.array_equal(got, _one_shot_block_counts(pop, 8, 200,
                                                          RngBank(4)))

    @staticmethod
    def _runs_without_pool(preset, monkeypatch):
        def no_pool():
            raise AssertionError("thread pool made")
        monkeypatch.setattr(core, "_pool", no_pool)
        monkeypatch.setattr(core, "_CPUS", 8)
        assert figure_preset(preset, replicates=1)

    def test_fig11a_never_makes_the_pool(self, monkeypatch):
        self._runs_without_pool("fig11a", monkeypatch)

    def test_fig7a_never_makes_the_pool(self, monkeypatch):
        # The largest phase-1 draw of any preset: m' = 10 trials of up to
        # 1000 nodes per type.
        self._runs_without_pool("fig7a", monkeypatch)


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
    phase2 = run_phase2(method, bb_runner, population, rough, config, bank)
    energy.add(phase2.energy)
    return rough, phase1, boundary + overhead + phase2.overhead_slots, energy


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
                mp.setattr(core, "_TRIAL_CHUNK", chunk)
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
        counts_tf = counts.transpose(2, 0, 1)
        rep = hsrc._repeated_report(scheme, counts_tf, s_w,
                                    lof_estimates(counts_tf))
        final, ledger, overhead = _repeated_report_by_formula(scheme, counts,
                                                              s_w)
        assert rep.final == rep.rough == final
        assert rep.ledger == ledger
        assert rep.overhead_slots == overhead


def _held_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through containers, partials and
    function closures: what an EnergyLedger charge keeps alive."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        return [obj]
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, functools.partial):
        children = [obj.func, obj.args, obj.keywords]
    elif isinstance(obj, types.FunctionType):
        children = [cell.cell_contents for cell in obj.__closure__ or ()]
    else:
        children = []
    return [a for child in children for a in _held_arrays(child, seen)]


class TestPhase2KeepsNoNodeArrays:
    """Phase-2 reports keep count-level charges only; a per-node read draws
    each node's slot again from its ("p2", b) stream."""

    # Every type has more nodes than any count-level table has entries.
    N = (5000, 6000, 7000)

    def _setup(self):
        pop = _pop(self.N, 1 << 13)
        cfg = derive_config(0.05, 0.2, pop.n_all)
        assert cfg.ell + 1 < min(self.N)
        return pop, cfg

    @staticmethod
    def _reference_slots(pop, cfg, rough, seed):
        """Each type's 1-based slot per node (0 = idle) by core.bb_blocks on
        a fresh bank's ("p2", b) streams."""
        bank = RngBank(seed)
        slots = {}
        for b, nb in enumerate(pop.n, 1):
            _counts, mask, uniform = core.bb_blocks(
                bank.stream("p2", b), nb, cfg.ell,
                participation_probability(cfg.ell, rough[b]))
            slots[b] = uniform * mask
        return slots

    def _assert_count_level(self, energy):
        held = [a for _b, amounts in energy._charges
                for a in _held_arrays(amounts)]
        assert all(a.size < min(self.N) for a in held), sorted(
            a.size for a in held)

    @pytest.mark.parametrize("code", ["3SS", "2SS"])
    def test_ssbb(self, code):
        pop, cfg = self._setup()
        rough = {1: 4000, 2: 6500, 3: 9000}
        runner, resolve = ((run_3ss_bb, three_stage.resolve_3ss)
                           if code == "3SS" else (run_2ss_bb, resolve_2ss))
        res = runner(pop, rough, cfg, RngBank(4))
        self._assert_count_level(res.energy)
        slots = self._reference_slots(pop, cfg, rough, 4)
        ledger, _plan, (_tx, _rx, tables) = resolve(res.counts[:, None],
                                                    cfg.s_w, pop.n)
        assert ledger == res.ledger
        for b, nb in enumerate(pop.n, 1):
            tx, rx = tables(b)
            assert np.array_equal(res.energy.tx[b], tx[0][slots[b]])
            assert np.array_equal(res.energy.rx[b], rx[0][slots[b]])
            assert np.array_equal(res.energy.accounted[b],
                                  np.full(nb, float(ledger.total)))

    def test_trepbb(self):
        pop, cfg = self._setup()
        rough = {1: 4000, 2: 6500, 3: 9000}
        report = run_phase2("TRepBB", None, pop, rough, cfg, RngBank(6))
        self._assert_count_level(report.energy)
        slots = self._reference_slots(pop, cfg, rough, 6)
        for b, nb in enumerate(pop.n, 1):
            assert np.array_equal(report.energy.tx[b], slots[b] > 0)
            assert not report.energy.rx[b].any()
            assert np.array_equal(report.energy.accounted[b],
                                  np.full(nb, float(cfg.ell)))

    def test_txsrcs(self):
        pop, cfg = self._setup()
        report = t_repetitions_srcs(pop, cfg, RngBank(8))
        self._assert_count_level(report.energy)
        slots = self._reference_slots(pop, cfg, report.rough, 8)
        M, t = cfg.m_prime, cfg.t_T
        for b, nb in enumerate(pop.n, 1):
            assert np.array_equal(report.energy.tx[b], M + (slots[b] > 0))
            assert np.array_equal(report.energy.rx[b], np.ones(nb))
            assert np.array_equal(report.energy.accounted[b],
                                  np.full(nb, float(M * t + 1 + cfg.ell)))


class TestPhase2InNodePieces(TestPhase2KeepsNoNodeArrays):
    """The phase-2 reads above, and phase 1's, with each replay drawn in
    pieces of 1000 nodes, at node counts spanning two to four pieces."""

    N = (2500, 3001, 2000)

    @pytest.fixture(autouse=True)
    def _pieces(self, monkeypatch):
        monkeypatch.setattr(core, "_NODE_PIECE", 1000)

    def test_phase1_frames(self):
        _assert_frame_table_sums(_pop((2500, 0, 3001, 999), 1 << 13))


class TestOneTwoPhaseProtocol:
    """run_srcs is TxSRCS for one type, and TxSRCS's phase 2 is TRepBB's,
    flags included.  At ell = 1 most trials fill their one slot, so both
    outcomes of the all-slots-busy rule are compared."""

    @pytest.mark.parametrize("ell", [1, 3, 1075])
    def test_run_srcs_is_txsrcs_type_one(self, ell):
        flagged = []
        for seed in range(12):
            pop = _pop((3 + 37 * seed, 40, 0), 1 << 10)
            cfg = derive_config(0.05, 0.2, pop.n_all, ell=ell)
            bank = RngBank(seed)
            rt = t_repetitions_srcs(pop, cfg, bank)
            rough, final, _ledger, flag = run_srcs(pop.n[0], cfg, bank)
            assert (rough, final, flag) == (rt.rough[1], rt.final[1],
                                            1 in rt.flags)
            trep = run_phase2("TRepBB", None, pop, rt.rough, cfg, bank)
            assert trep.final == rt.final and trep.flags == rt.flags
            assert set(rt.flags.values()) <= {"all_slots_busy"}
            flagged.append(flag)
        if ell == 1:
            assert any(flagged) and not all(flagged)
