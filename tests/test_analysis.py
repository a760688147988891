"""Closed-form slot counts, thresholds, selection logic, and energy."""

import hashlib
import math

import numpy as np
import pytest

from hetcount.core import PopulationSpec, RngBank, derive_config
from hetcount.analysis import (
    NoBracket,
    case2_condition_lhs,
    expected_K_R,
    expected_energy_3ss,
    expected_energy_hsrc1,
    expected_energy_trepbb,
    f,
    f1,
    G1,
    G2,
    lambda_I,
    lambda_II,
    n1_star,
    occupancy,
    occupancy_geometric,
    q_probs,
    select_phase2,
    zeta,
)
from hetcount.three_stage import run_3ss_bb

EXP16 = math.exp(-1.6)


class TestOccupancy:
    def test_trivial(self):
        assert occupancy(0, 0.5, 10) == (1.0, 0.0)
        assert occupancy(5, 0.0, 10) == (1.0, 0.0)

    def test_example(self):
        u, v = occupancy(10, 1.0, 10)
        assert u == pytest.approx(0.9 ** 10)
        assert v == pytest.approx(0.9 ** 9)

    def test_against_binomial_enumeration(self):
        n, p, ell = 10, 0.7, 4
        q = p / ell
        u_enum = sum(math.comb(n, k) * q ** k * (1 - q) ** (n - k)
                     for k in [0])
        v_enum = math.comb(n, 1) * q * (1 - q) ** (n - 1)
        u, v = occupancy(n, p, ell)
        assert u == pytest.approx(u_enum)
        assert v == pytest.approx(v_enum)

    def test_monotone_and_bounded(self):
        prev_u = 1.1
        for n in (0, 1, 5, 50, 500):
            u, v = occupancy(n, 0.8, 100)
            assert 0 <= u <= 1 and 0 <= v and u + v <= 1
            assert u < prev_u or n == 0
            prev_u = u

    def test_geometric_tail(self):
        u_t, _ = occupancy_geometric(10, 5, 5)
        u_tm1, _ = occupancy_geometric(10, 4, 5)
        assert u_t == pytest.approx(u_tm1)  # tail block shares 2^-(t-1)


class TestQProbs:
    def test_empty(self):
        assert q_probs((0, 0, 0), (1, 1, 1), 100, 3) == (0.0, 0.0, 0.0)

    def test_large_n1_limit(self):
        n1 = 10 ** 7
        q1, _q2, _q3 = q_probs((n1, 0, 0), (n1, 10 ** 9, 10 ** 9), 3009, 3)
        assert q1 == pytest.approx(1 - EXP16 - 1.6 * EXP16, abs=1e-3)

    def test_sum_in_unit_interval(self):
        q1, q2, q3 = q_probs((1000,) * 4, (1000,) * 4, 3009, 4)
        assert 0 <= q1 + q2 + q3 <= 1

    def test_flagged_frequency_monte_carlo(self):
        n = (1000,) * 4
        pop = PopulationSpec.fixed(n, n_all=(2000,) * 4)
        cfg = derive_config(0.03, 0.2, pop.n_all)
        qsum = sum(q_probs(n, n, cfg.ell, 4))
        ks = [run_3ss_bb(pop, dict(enumerate(n, 1)), cfg,
                         RngBank(seed)).ledger.stage2
              for seed in range(30)]
        mean_k = np.mean(ks)
        se = np.std(ks, ddof=1) / math.sqrt(len(ks))
        assert abs(mean_k - cfg.ell * qsum) < 3 * se + 1e-9


class TestExpectedKR:
    def test_empty(self):
        assert expected_K_R((0, 0, 0), (1, 1, 1), 100, 3) == (0.0, 0.0)

    def test_er_le_ek(self):
        for n1 in (10, 500, 3000, 8000):
            ek, er = expected_K_R((n1, 800, 1200), (n1, 800, 1200), 3009, 3)
            assert er <= ek


class TestLambdas:
    def test_lambda_i_example(self):
        assert lambda_I(3, 7, 6, 0.0, 0.0) == 16

    def test_lambda_i_monotone_in_ek(self):
        assert lambda_I(3, 7, 6, 5.0, 1.0) < lambda_I(3, 7, 6, 9.0, 1.0)

    def test_lambda_ii_empty(self):
        assert lambda_II((0, 0, 0), (1, 1, 1), 3009, 3, 6) == 6520

    def test_lambda_ii_floor(self):
        lam = lambda_II((500,) * 3, (500,) * 3, 3009, 3, 6)
        assert lam >= 2 * 3009 + 502

    def test_crossover_around_trep(self):
        big = 2 * 3009
        lam_lo = lambda_II((1500, big, big), (1500, big, big), 3009, 3, 6)
        lam_hi = lambda_II((4000, big, big), (4000, big, big), 3009, 3, 6)
        assert lam_lo < 9027 < lam_hi


class TestThresholds:
    # Published threshold series for T = 2..8.
    ZETA1 = [0.4932, 0.6286, 0.6213, 0.5897, 0.5548, 0.5220, 0.4926]
    ZETA2 = [0.5384, 0.6622, 0.6510, 0.6173, 0.5812, 0.5475, 0.5174]

    def test_zeta_values(self):
        for T, (z1, z2) in enumerate(zip(self.ZETA1, self.ZETA2), start=2):
            assert zeta(T, 1) == pytest.approx(z1, abs=5e-3)
            assert zeta(T, 2) == pytest.approx(z2, abs=5e-3)

    def test_zeta_ordering(self):
        for T in range(2, 9):
            assert zeta(T, 1) < zeta(T, 2)

    def test_memoised_values_equal_the_bisection(self):
        # zeta is memoised; its values are those of the plain bisection.
        for T in range(2, 11):
            for which in (1, 2):
                assert zeta(T, which) == zeta.__wrapped__(T, which)
                hits = zeta.cache_info().hits
                zeta(T, which)
                assert zeta.cache_info().hits == hits + 1

    def test_invalid_which(self):
        with pytest.raises(ValueError):
            zeta(3, 5)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            zeta(1, 1)

    def test_f_f1_decreasing_and_ordered(self):
        xs = np.linspace(0.05, 5.0, 60)
        for T in range(2, 51):
            fv = [f(x, T) for x in xs]
            f1v = [f1(x, T) for x in xs]
            assert all(a > b for a, b in zip(fv, fv[1:]))
            assert all(a > b for a, b in zip(f1v, f1v[1:]))
            assert all(a <= b for a, b in zip(fv, f1v))

    def test_large_population_condition_fails(self):
        # With n1 >= 1.6*ell the comparison falls below the 6T-4 level.
        for n1 in (160, 1600, 10 ** 6):
            a, b = case2_condition_lhs(n1)
            for T in range(2, 9):
                assert G1(T) * a + G2(T) * b < 6 * T - 4

    @pytest.mark.parametrize("T", [2, 3, 8])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_n1_star_short_trial_has_no_bracket(self, T, ell):
        with pytest.raises(NoBracket):
            n1_star(T, ell)

    def test_n1_star_bracketed_by_zetas(self):
        for T in range(2, 9):
            ratio = n1_star(T, 3009) / 3009
            assert zeta(T, 1) <= ratio <= zeta(T, 2)


class TestSelectPhase2:
    def test_examples(self):
        assert select_phase2({1: 1500, 2: 6018, 3: 6018}, 3009, 3) == (
            "SSBB", "zeta1")
        assert select_phase2({1: 4000, 2: 6018, 3: 6018}, 3009, 3) == (
            "TRepBB", "zeta2")
        assert select_phase2({1: 6000, 2: 6018, 3: 6018}, 3009, 3) == (
            "TRepBB", "load")

    def test_indeterminate_band(self):
        n1 = 0.645 * 3009
        method, zone = select_phase2({1: n1, 2: 6018, 3: 6018}, 3009, 3)
        assert zone == "indeterminate"
        lam = lambda_II({1: n1, 2: 6018, 3: 6018},
                        {1: n1, 2: 6018, 3: 6018}, 3009, 3, 6)
        assert method == ("SSBB" if lam <= 3 * 3009 else "TRepBB")


class TestEnergy:
    def test_trepbb_examples(self):
        full = expected_energy_trepbb(0, 100, (1.0, 1.0, 0.0))
        assert full["energy"] == pytest.approx(1.0)  # p=1, idle free
        equal = expected_energy_trepbb(500, 100, (2.0, 2.0, 2.0))
        assert equal["energy"] == pytest.approx(200.0)
        res = expected_energy_trepbb(2 * 100, 100, (1.0, 1.0, 0.5))
        assert res["tx_slots"] == pytest.approx(0.8)
        assert res["rx_slots"] == 0.0
        assert res["energy"] == pytest.approx(0.8 + 0.5 * (100 - 0.8))

    def test_bb_equal_gamma_conservation(self):
        n = (800, 600, 400)
        cfg = derive_config(0.03, 0.2, (1000,) * 3)
        comps = expected_energy_3ss(n, cfg, "bb", rough=n)
        lam = lambda_II(n, n, cfg.ell, 3, cfg.s_w)
        for b in (1, 2, 3):
            c = comps[b]
            assert c["tx_slots"] + c["rx_slots"] + c["idle_slots"] == (
                pytest.approx(lam))
            assert c["energy"] == pytest.approx(lam)  # all gammas equal 1

    def test_trial_mode_needs_moments(self):
        cfg = derive_config(0.03, 0.2, (1000,) * 3)
        with pytest.raises(ValueError):
            expected_energy_3ss((10, 10, 10), cfg, "trial")
        comps = expected_energy_3ss((10, 10, 10), cfg, "trial",
                                    moments=(0.5, 0.1))
        assert set(comps) == {1, 2, 3}

    def test_hsrc1_linearity_in_m_prime(self):
        n = (500, 700, 300)
        cfg1 = derive_config(0.03, 0.2, (1000,) * 3, m_prime=1)
        cfg2 = derive_config(0.03, 0.2, (1000,) * 3, m_prime=2)
        frame = 40.0
        e1 = expected_energy_hsrc1(n, n, cfg1, "TRepBB", frame)
        e2 = expected_energy_hsrc1(n, n, cfg2, "TRepBB", frame)
        phase1 = expected_energy_3ss(n, cfg1, "trial", frame_slots=frame)
        for b in (1, 2, 3):
            assert e2[b] - e1[b] == pytest.approx(phase1[b]["energy"])

    def test_hsrc1_reduces_to_phase2_plus_phase1(self):
        n = (500, 700, 300)
        cfg = derive_config(0.03, 0.2, (1000,) * 3, m_prime=1)
        frame = 40.0
        total = expected_energy_hsrc1(n, n, cfg, "TRepBB", frame,
                                      boundary_slots=5)
        phase1 = expected_energy_3ss(n, cfg, "trial", frame_slots=frame)
        for b in (1, 2, 3):
            p2 = expected_energy_trepbb(n[b - 1], cfg.ell, cfg.gammas)
            assert total[b] == pytest.approx(
                phase1[b]["energy"] + 5 * cfg.gamma_rho + p2["energy"])


def _analysis_outputs():
    """Closed-form outputs over a fixed grid of T, s_w, epsilon and loads:
    n1*, the stage-2/3 moments, lambda_I, lambda_II, the phase-2 choice and
    the expected energy in both modes."""
    out = []
    for T in range(2, 9):
        for s_w, eps in ((6, 0.03), (4, 0.05)):
            cfg = derive_config(eps, 0.2, (1 << 20,) * T, s_w=s_w)
            ell = cfg.ell
            out.append(n1_star(T, ell, s_w))
            for scale in (0.05, 0.4, 1.2):
                n = tuple(int(scale * ell * (1 + 0.3 * b)) for b in range(T))
                rough = {b: 0.9 * x + 7 for b, x in enumerate(n, 1)}
                ek, er = expected_K_R(n, rough, ell, T)
                out.append((ek, er, lambda_II(n, rough, ell, T, s_w),
                            select_phase2(rough, ell, T, s_w)))
                out.append(expected_energy_3ss(n, cfg, "bb", rough=rough))
                small = tuple(max(1, x // 100) for x in n)
                out.append(expected_energy_3ss(small, cfg, "trial",
                                               moments=(ek / ell, er / ell)))
                out.append(lambda_I(T, cfg.t_T, s_w, ek / ell, er / ell))
    return out


def test_outputs_bit_identical_on_grid():
    """Every float is pinned through its repr, so a change in the order of
    any floating-point operation in the formulas moves the digest."""
    digest = hashlib.sha256(repr(_analysis_outputs()).encode()).hexdigest()
    assert digest == ("94861397fdf729c7c5b97fe134f8521b"
                      "ca795e97e04544cea22a8b3a896d290d")
