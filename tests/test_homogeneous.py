"""First-empty-slot protocol, balls-and-bins trials, and the two-phase
single-type estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hetcount.core import (
    LOF_FACTOR,
    AllSlotsBusy,
    EmptyInput,
    PopulationSpec,
    RngBank,
    bb_blocks,
    derive_config,
    geometric_block_choices,
)
from hetcount.homogeneous import (
    first_empty,
    lof_estimate,
    participation_probability,
    run_srcs,
    srcs_estimate,
    srcs_final_estimate,
    t_repetitions_srcs,
)

# chi-squared critical values at significance 1e-3 for df = t - 1
_CHI2_CRIT = {2: 10.828, 4: 16.266, 8: 24.322}


def _slot_probs(t):
    probs = [2.0 ** -i for i in range(1, t)]
    probs.append(2.0 ** -(t - 1))
    return probs


class TestLofSlotIndex:
    """The slot a node picks in a first-empty-slot trial."""

    def test_t1_always_one(self):
        rng = np.random.default_rng(0)
        assert (geometric_block_choices(rng, 50, 1) == 1).all()

    @pytest.mark.parametrize("t", [2, 4, 8])
    def test_distribution_chi2(self, t):
        rng = np.random.default_rng(42 + t)
        draws = 100_000
        counts = np.bincount(geometric_block_choices(rng, draws, t),
                             minlength=t + 1)[1:]
        expected = np.array(_slot_probs(t)) * draws
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < _CHI2_CRIT[t]


class TestLofTrial:
    def test_empty_network(self):
        assert (first_empty(np.zeros((3, 5), dtype=np.int64)) == 1).all()

    def test_single_node_first_slot_probability(self):
        rng = np.random.default_rng(1)
        reps, t = 20_000, 3
        # One lone node per trial: row r counts trial r's node in its slot.
        counts = np.zeros((reps, t), dtype=np.int64)
        counts[np.arange(reps), geometric_block_choices(rng, reps, t) - 1] = 1
        hits = int((first_empty(counts) == 1).sum())
        # j=1 iff the lone node chose slot >= 2, probability 1/2.
        assert abs(hits / reps - 0.5) < 3 * math.sqrt(0.25 / reps)

    def test_saturated_network(self):
        t = 4
        cfg = derive_config(0.03, 0.2, (2 ** t,))
        assert cfg.t_T == t
        # Every trial reads j = t, so the rough estimate is 1.2897 * 2^(t-1).
        for seed in range(20):
            rough, _final, led, _flag = run_srcs(10 * 2 ** t, cfg,
                                                 RngBank(seed))
            assert (rough, led.stage1) == (
                LOF_FACTOR * 2.0 ** (t - 1), cfg.m_prime * t)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, array_shapes(min_dims=1, max_dims=3),
                  elements=st.integers(0, 2)))
    def test_first_empty_is_first_zero_else_t(self, counts):
        t = counts.shape[-1]
        expected = [next((i + 1 for i, c in enumerate(row) if c == 0), t)
                    for row in counts.reshape(-1, t).tolist()]
        assert first_empty(counts).shape == counts.shape[:-1]
        assert first_empty(counts).ravel().tolist() == expected


class TestLofEstimate:
    def test_examples(self):
        assert lof_estimate([1]) == pytest.approx(1.2897)
        assert lof_estimate([4, 4]) == pytest.approx(10.3176)
        assert lof_estimate([1, 3]) == pytest.approx(2.5794)

    def test_permutation_invariant(self):
        assert lof_estimate([1, 5, 2, 2]) == lof_estimate([2, 2, 5, 1])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            lof_estimate([])


class TestSrcsPhase1:
    def test_empty_network_floor(self):
        cfg = derive_config(0.03, 0.2, (1000,))
        rough, _final, led, _flag = run_srcs(0, cfg, RngBank(0))
        assert rough == pytest.approx(1.2897)
        assert led.stage1 == cfg.m_prime * cfg.t_T

    def test_rough_band(self):
        cfg = derive_config(0.03, 0.2, (2000,))
        within = sum(500 <= run_srcs(1000, cfg, RngBank(seed))[0] <= 2000
                     for seed in range(200))
        assert within >= 150  # rough estimate, factor-2 band most of the time

    def test_deterministic_replay(self):
        cfg = derive_config(0.03, 0.2, (1000,))
        assert run_srcs(123, cfg, RngBank(5)) == run_srcs(
            123, cfg, RngBank(5))


def _bb_trial(n, ell, p, rng):
    """(empty-slot count, per-slot counts, participation mask) of one
    balls-and-bins trial drawn by core.bb_blocks."""
    counts, mask, _slots = bb_blocks(rng, n, ell, p)
    return ell - np.count_nonzero(counts), counts, mask


class TestBBTrial:
    def test_empty_and_nonparticipating(self):
        z, _counts, mask = _bb_trial(0, 50, 1.0, np.random.default_rng(0))
        assert z == 50 and mask.sum() == 0
        z, counts, mask = _bb_trial(100, 50, 0.0, np.random.default_rng(0))
        assert z == 50 and mask.sum() == 0 and counts.sum() == 0

    def test_occupancy_sums_to_participants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z, counts, mask = _bb_trial(500, 100, 0.6, rng)
            assert counts.sum() == mask.sum() <= 500
            assert z == np.count_nonzero(counts == 0)

    def test_participation_binomial_mean(self):
        rng = np.random.default_rng(4)
        n, p = 1000, 0.4
        parts = [_bb_trial(n, 100, p, rng)[2].sum() for _ in range(1000)]
        se = math.sqrt(n * p * (1 - p) / len(parts))
        assert abs(np.mean(parts) - n * p) < 3 * se

    def test_empty_fraction_matches_occupancy_formula(self):
        n, ell = 1000, 1075
        p = participation_probability(ell, n)
        rng = np.random.default_rng(5)
        zs = np.array([_bb_trial(n, ell, p, rng)[0] for _ in range(1000)])
        target = (1 - p / ell) ** n
        se = zs.std(ddof=1) / math.sqrt(len(zs)) / ell
        assert abs(zs.mean() / ell - target) < 3 * se


class TestSrcsFinalEstimate:
    def test_all_empty_gives_zero(self):
        assert srcs_final_estimate(100, 100, 0.5) == 0.0

    def test_one_node_fixed_point(self):
        ell, p = 100, 0.8
        z = ell * (1 - p / ell)
        assert srcs_final_estimate(z, ell, p) == pytest.approx(1.0)

    def test_strictly_decreasing_in_z(self):
        vals = [srcs_final_estimate(z, 100, 0.7) for z in range(1, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_all_busy_raises(self):
        with pytest.raises(AllSlotsBusy):
            srcs_final_estimate(0, 100, 0.5)

    def test_busy_fallback_exceeds_any_regular_estimate(self):
        fallback, busy = srcs_estimate(0, 100, 0.5)
        assert busy and fallback > srcs_final_estimate(1, 100, 0.5)
        assert srcs_estimate(1, 100, 0.5) == (
            srcs_final_estimate(1, 100, 0.5), False)

    def test_busy_fallback_single_certain_slot(self):
        # One slot that every node joins: a busy slot means at least one
        # node, and a free slot none.
        assert srcs_estimate(0, 1, 1.0) == (1.0, True)
        assert srcs_estimate(1, 1, 1.0) == (0.0, False)

    def test_participation_probability(self):
        assert participation_probability(100, 0) == 1.0
        assert participation_probability(100, 50) == 1.0
        assert participation_probability(100, 200) == pytest.approx(0.8)


class TestRunSrcs:
    def test_end_to_end_accuracy(self):
        cfg = derive_config(0.03, 0.2, (1000,))
        n = 500
        hits = 0
        reps = 300
        for seed in range(reps):
            _rough, final, _led, _flag = run_srcs(n, cfg, RngBank(seed))
            hits += abs(final - n) <= cfg.epsilon * n
        assert hits / reps >= 0.75

    def test_ledger(self):
        cfg = derive_config(0.03, 0.2, (1000,))
        _r, _f, led, _flag = run_srcs(100, cfg, RngBank(0))
        assert led.stage1 == cfg.m_prime * cfg.t_T
        assert led.stage2 == cfg.ell
        assert led.bp == 1


class TestTRepetitions:
    def test_phase2_portion(self):
        pop3 = PopulationSpec.fixed((100, 100, 100), n_all=(1000,) * 3)
        cfg = derive_config(0.03, 0.2, pop3.n_all)
        rep = t_repetitions_srcs(pop3, cfg, RngBank(0))
        assert rep.ledger.stage2 == 3 * 3009 == 9027
        pop4 = PopulationSpec.fixed((100,) * 4, n_all=(100,) * 4)
        cfg4 = derive_config(0.03, 0.2, pop4.n_all)
        rep4 = t_repetitions_srcs(pop4, cfg4, RngBank(0))
        assert rep4.ledger.stage2 == 4 * 3009 == 12036
        assert cfg4.t_T == 7
        assert rep4.overhead_slots == 4

    def test_empty_population(self):
        pop = PopulationSpec.fixed((0, 0, 0), n_all=(8, 8, 8))
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = t_repetitions_srcs(pop, cfg, RngBank(0))
        assert all(v == 0.0 for v in rep.final.values())

    def test_energy_partition(self):
        pop = PopulationSpec.fixed((50, 80), n_all=(100, 100))
        cfg = derive_config(0.03, 0.2, pop.n_all)
        rep = t_repetitions_srcs(pop, cfg, RngBank(1))
        for b in (1, 2):
            idle = rep.energy.idle(b)
            assert (idle >= 0).all()
            # own execution: phase 1 + phase 2 + one boundary slot
            own_total = cfg.m_prime * cfg.t_T + cfg.ell + 1
            assert np.allclose(rep.energy.accounted[b], own_total)
