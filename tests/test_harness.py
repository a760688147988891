"""Experiment driver, presets, CSV emission, accuracy validation,
trial-length calibration, and the CLI."""

import dataclasses
import gc
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetcount
from hetcount import cli, core, harness, homogeneous
from hetcount.core import EnergyLedger, PopulationSpec, RngBank, derive_config
from hetcount.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentSpec,
    _rep_seed,
    calibrate_ell,
    crossover_rows,
    figure_preset,
    run_experiment,
    threshold_rows,
    validate_accuracy,
    write_csv,
)
from hetcount.hsrc import run_hsrc


def _small_spec(out=None):
    return ExperimentSpec(
        schemes=["hsrc1", "txsrcs"], sweep_var="none", sweep_values=[0],
        fixed={"T": 3, "epsilon": 0.03, "delta": 0.2, "n": (300, 500, 200)},
        replicates=3, seed=42, out=out)


class TestSpecValidation:
    def test_bad_replicates(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(["hsrc1"], "none", [0], {}, replicates=0)

    def test_empty_sweep(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(["hsrc1"], "none", [], {})

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(["nope"], "none", [0], {})

    def test_scheme_listed_twice(self):
        # A bank shares a result among as many runs as the spec lists.
        with pytest.raises(ConfigError, match="twice"):
            ExperimentSpec(["3ss-rep", "hsrc1", "3ss-rep"], "none", [0], {})

    def test_unknown_sweep_variable(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentSpec(["hsrc1"], "bogus", [0], {})

    @pytest.mark.parametrize("scheme", harness.PHASE2_ONLY)
    def test_phase2_only_needs_rough(self, scheme):
        fixed = {"T": 3, "epsilon": 0.03, "n": (50, 50, 50)}
        with pytest.raises(ConfigError, match="rough"):
            ExperimentSpec([scheme], "none", [0], fixed)
        ExperimentSpec([scheme], "n2_value", [60], fixed)
        ExperimentSpec([scheme], "none", [0], dict(fixed, rough=(50,) * 3))

    def test_api_default_n_all_sets_phase1_depth(self):
        # Without n_all or D the harness takes the CLI's default, 2^20
        # manufactured nodes per type: 20 one-slot blocks per trial at T = 2.
        spec = ExperimentSpec(["3ss-rep"], "none", [0],
                              {"epsilon": 0.03, "delta": 0.2, "n": (40, 40)},
                              replicates=1)
        row, = run_experiment(spec)
        assert row.stage1 == 20 * 1136
        population = harness._build_population(spec.fixed, RngBank(0))
        assert population.n_all == (harness.PRESET_N_ALL,) * 2
        assert cli._n_all is harness.default_n_all

    def test_zero_n_all_or_d_is_used(self):
        bank = RngBank(0)
        for key in ("n_all", "D"):
            with pytest.raises(ValueError, match="n_all_b"):
                harness._build_population({"n": (5, 5), key: 0}, bank)
            pop = harness._build_population({"n": (0, 0), key: 0}, bank)
            assert pop.n_all == (0, 0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            figure_preset("fig99")

    def test_preset_zero_replicates(self):
        with pytest.raises(ConfigError, match="replicates"):
            figure_preset("fig10", replicates=0)


class TestRunExperiment:
    def test_rows_and_schema(self):
        rows = run_experiment(_small_spec())
        assert [r.scheme for r in rows] == ["hsrc1", "txsrcs"]
        for r in rows:
            assert r.replicates == 3
            assert r.se_slots >= 0
            assert 0 <= r.acc_rate_min <= 1
            assert r.mean_slots > 0

    def test_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_experiment(_small_spec(str(out1)))
        run_experiment(_small_spec(str(out2)))
        data1, data2 = out1.read_bytes(), out2.read_bytes()
        assert data1 == data2
        header = data1.split(b"\n")[0].decode()
        assert header == ",".join(CSV_COLUMNS)
        assert b"\r" not in data1

    def test_write_csv_roundtrip(self, tmp_path):
        rows = threshold_rows([2, 3])
        out = tmp_path / "t.csv"
        data = write_csv(str(out), rows)
        assert data.startswith(",".join(CSV_COLUMNS))
        assert len(data.strip().split("\n")) == 1 + len(rows)


# Preset CSVs at 3 replicates, seed 0.  fig11a, fig8b and fig10 were written
# before the replicate streams were shared across schemes, the other six
# before the presets became one table.  Neither change may move a byte.
PRESET_DIGESTS = {
    "fig7a": "9717c4515d9408764f2d53c140e277f59df6a3d051bed970edcba3f2b8f994bc",
    "fig7b": "718a194678f2cc65c9b7bf422e6a9390a1a72fbd50ac1fd43fe130857aac3c70",
    "fig8a": "33176d9ab14ade39225b52def64fa027d5628e234b56e15356d452e0f29a0f56",
    "fig8b": "36054a9fdaf780fd914e5bb1e146d7111d0a559ee42e3433605c12140f91ee22",
    "fig9a": "acb9547ac8eaf6cc2eb47957cb73bd0ed88bb9c63c8054929f09f40c503cd18f",
    "fig9b": "56e054d53e30e4fb0699b130a087784f75b3990ebdfdfc8f83c2c44ee293ffce",
    "fig10": "6f7c228286c3c13acbf021ec6e9362586f1a0ee99b8456c35aa05a4ad8eff8d6",
    "fig11a": "6bef476d7c94075a4123795cfb736810e4848f730c05419e299d333e03337a53",
    "fig11b": "759ae6e6d2183ee65e503f14b87428d9681c74aceeb9f805626e9a896dd1d439",
}


class TestSharedReplicates:
    @pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
    def test_preset_csv_digest(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        figure_preset(name, replicates=3, seed=0, out=str(out))
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PRESET_DIGESTS[name]

    def test_dispatch_order(self, monkeypatch):
        calls = []
        for scheme, fn in list(harness.SCHEMES.items()):
            def recorded(pop, cfg, bank, prm, scheme=scheme, fn=fn):
                calls.append((pop.D, scheme, bank.seed))
                return fn(pop, cfg, bank, prm)
            monkeypatch.setitem(harness.SCHEMES, scheme, recorded)
        schemes = ["hsrc1", "txsrcs", "3ss-rep"]
        spec = ExperimentSpec(schemes, "D", [40, 60],
                              {"T": 3, "epsilon": 0.03, "q": 0.2,
                               "n_all": 1 << 10}, replicates=3, seed=5)
        run_experiment(spec)
        assert calls == [(D, scheme, _rep_seed(5, "D", D, rep))
                         for D in (40, 60) for scheme in schemes
                         for rep in range(3)]

    @pytest.mark.parametrize("schemes", [
        ["3ss-rep", "2ss-rep"], ["2ss-rep", "hsrc1", "3ss-rep"], ["3ss-rep"]])
    def test_repeated_trials_drawn_once(self, schemes, monkeypatch):
        opened = []
        streams = RngBank.streams

        def counted(bank, keys):
            opened.extend((bank.seed, key) for key in keys)
            return streams(bank, keys)
        monkeypatch.setattr(RngBank, "streams", counted)
        run_experiment(ExperimentSpec(
            schemes, "none", [0], {"T": 4, "epsilon": 0.03,
                                   "n": (20, 0, 30, 10), "n_all": 1 << 10},
            replicates=3, seed=2))
        # Once per replicate and type with nodes.
        rep = [(seed, key) for seed, key in opened if key[0] == "rep"]
        assert len(rep) == len(set(rep)) == 3 * 3

    def test_phase1_drawn_once_for_all_readers(self, monkeypatch):
        # The seven phase-1 readers (and both repeated baselines) in one
        # spec: each ("p1", m, b) stream is drawn once per replicate, and
        # every row equals the one its scheme gives run alone.
        origin, drawn = {}, []
        streams, draw = RngBank.streams, homogeneous.draw_trials

        def opened(bank, keys):
            rngs = streams(bank, keys)
            origin.update((id(rng), (rng, bank.seed, key))
                          for rng, key in zip(rngs, keys))
            return rngs

        def spy(rngs, n, t, out, kernel):
            drawn.extend(origin[id(rng)][1:] for trials in rngs
                         for rng in trials)
            return draw(rngs, n, t, out, kernel)
        monkeypatch.setattr(RngBank, "streams", opened)
        monkeypatch.setattr(homogeneous, "draw_trials", spy)
        readers = [s for s in harness.SCHEMES if harness.READS.get(s) == "p1"]
        schemes = ["3ss-rep", *readers, "2ss-rep"]
        assert len(readers) == 7

        def spec(schemes):
            return ExperimentSpec(schemes, "D", [40, 80],
                                  {"T": 4, "epsilon": 0.03, "q": 0.5,
                                   "n_all": 1 << 10}, replicates=3, seed=6)
        rows = run_experiment(spec(schemes))
        cfg = derive_config(0.03, 0.2, (1 << 10,) * 4)
        assert len(drawn) == len(set(drawn)) == 2 * 3 * 4 * cfg.m_prime
        assert {key[0] for _seed, key in drawn} == {"p1"}
        alone = [row for s in schemes for row in run_experiment(spec([s]))]
        by_cell = {(r.sweep_value, r.scheme): r for r in alone}
        assert rows == [by_cell[r.sweep_value, r.scheme] for r in rows]

    def test_phase2_drawn_once_for_the_phase2_only_schemes(self,
                                                           monkeypatch):
        # fig8b's three schemes in one spec: each ("p2", b) stream is
        # opened once per replicate, and every row equals the one its
        # scheme gives run alone.
        opened = []
        streams = RngBank.streams

        def counted(bank, keys):
            opened.extend((bank.seed, key) for key in keys if key[0] == "p2")
            return streams(bank, keys)
        monkeypatch.setattr(RngBank, "streams", counted)
        schemes, sweep_var, _values, fixed, _reps = harness.PRESETS["fig8b"]

        def spec(schemes):
            return ExperimentSpec(list(schemes), sweep_var, [500, 1500],
                                  fixed, replicates=3, seed=4)
        rows = run_experiment(spec(schemes))
        assert len(opened) == len(set(opened)) == 2 * 3 * fixed["T"]
        alone = [row for s in schemes for row in run_experiment(spec([s]))]
        by_cell = {(r.sweep_value, r.scheme): r for r in alone}
        assert rows == [by_cell[r.sweep_value, r.scheme] for r in rows]

    def test_cell_derives_and_configures_once(self, monkeypatch):
        # A cell's banks are opened together: each key set is derived in one
        # pass for all its replicates, and its config is derived once.
        passes, configs = [], []
        spawned, build = core._spawned_words, harness.build_config

        def counted(pools, width, spawn):
            passes.append((len(pools), len(spawn)))
            return spawned(pools, width, spawn)

        def configured(prm, n_all):
            configs.append(n_all)
            return build(prm, n_all)
        monkeypatch.setattr(core, "_spawned_words", counted)
        monkeypatch.setattr(harness, "build_config", configured)
        schemes, sweep_var, _values, fixed, _reps = harness.PRESETS["fig8b"]
        run_experiment(ExperimentSpec(list(schemes), sweep_var, [500, 1500],
                                      fixed, replicates=3, seed=4))
        # The five ("p2", b) keys, once per cell.
        assert passes == [(3, 5)] * 2
        assert configs == [(harness.PRESET_N_ALL,) * 5] * 2
        # fig11a draws its populations, from ("pop",) first: its cells of
        # three replicates take the passes of cells of one.
        schemes, sweep_var, _values, fixed, _reps = harness.PRESETS["fig11a"]
        sizes = []
        for replicates in (1, 3):
            passes.clear()
            run_experiment(ExperimentSpec(list(schemes), sweep_var, [3, 4],
                                          fixed, replicates, seed=4))
            assert passes[0] == (replicates, 1)
            assert {r for r, _k in passes} == {replicates}
            sizes.append([k for _r, k in passes])
        assert sizes[0] == sizes[1]

    def test_mixed_spec_keeps_no_phase2_result(self, monkeypatch):
        # hsrc1 draws phase 2 at its own rough estimates, so beside it the
        # phase-2-only schemes draw alone and no bank keeps a result.
        banks = []
        replicates = harness._replicates

        def recorded(prm, seeds, readers=None):
            contexts = replicates(prm, seeds, readers)
            banks.extend(bank for bank, _pop, _cfg in contexts)
            return contexts
        monkeypatch.setattr(harness, "_replicates", recorded)
        run_experiment(ExperimentSpec(
            ["p2-3ssbb", "hsrc1", "p2-2ssbb", "p2-trepbb"], "n2_value", [60],
            {"T": 4, "epsilon": 0.03, "n": (40,) * 4, "n_all": 1 << 10},
            replicates=3, seed=3))
        assert len(banks) == 3
        assert not any(bank._kept for bank in banks)

    def test_fig11a_derives_each_key_once_in_few_passes(self, monkeypatch):
        # Every stream key is derived once per bank, and no scheme-run
        # derives its keys in more than two passes.
        names, run_passes, current = {}, [], []
        derive = RngBank._derive

        def spy(bank, new):
            # Keyed by seed: a bank's id() may be reused by a later bank.
            names.setdefault(bank.seed, []).extend(new)
            if current:
                run_passes[-1] += 1
            return derive(bank, new)
        monkeypatch.setattr(RngBank, "_derive", spy)
        for scheme, fn in list(harness.SCHEMES.items()):
            def recorded(pop, cfg, bank, prm, fn=fn):
                current.append(bank)
                run_passes.append(0)
                try:
                    return fn(pop, cfg, bank, prm)
                finally:
                    current.pop()
            monkeypatch.setitem(harness.SCHEMES, scheme, recorded)
        figure_preset("fig11a", replicates=1)
        assert len(run_passes) == 30 and max(run_passes) <= 2
        assert len(names) == 6
        for derived in names.values():
            assert len(derived) == len(set(derived))
        # At least the phase-1 keys: m' x T per bank, T = 3..8.
        assert sum(map(len, names.values())) >= 10 * 33

    def test_schemes_share_populations(self, monkeypatch):
        seen = {}
        for scheme, fn in list(harness.SCHEMES.items()):
            def recorded(pop, cfg, bank, prm, scheme=scheme, fn=fn):
                seen.setdefault(bank.seed, []).append((pop, cfg))
                return fn(pop, cfg, bank, prm)
            monkeypatch.setitem(harness.SCHEMES, scheme, recorded)
        run_experiment(ExperimentSpec(
            ["hsrc1", "hsrc2"], "none", [0],
            {"T": 3, "epsilon": 0.03, "D": 100, "q": 0.3, "n_all": 1 << 10},
            replicates=4, seed=2))
        assert len(seen) == 4
        for (pop1, cfg1), (pop2, cfg2) in seen.values():
            assert pop1 is pop2 and cfg1 is cfg2

    def test_integral_float_sweep_value_same_seed(self):
        assert _rep_seed(0, "T", 3, 1) == _rep_seed(0, "T", 3.0, 1)
        assert _rep_seed(0, "T", 3, 1) == _rep_seed(0, "T", np.float64(3), 1)
        assert _rep_seed(0, "q", 0.5, 0) != _rep_seed(0, "q", 0.25, 0)

        def run(value):
            return harness.format_csv(run_experiment(ExperimentSpec(
                ["txsrcs"], "D", [value], {"T": 3, "epsilon": 0.03,
                                           "q": 0.3}, replicates=2, seed=4)))
        assert run(50) == run(50.0)

    def test_numpy_sweep_value_same_seed(self):
        assert _rep_seed(0, "T", 3, 1) == _rep_seed(0, "T", np.int64(3), 1)
        assert _rep_seed(0, "q", 0.5, 0) == _rep_seed(0, "q", np.float64(0.5),
                                                      0)

        def run(value):
            return harness.format_csv(run_experiment(ExperimentSpec(
                ["hsrc1"], "T", [value], {"epsilon": 0.03, "D": 100,
                                          "q": 0.15, "n_all": 1 << 20},
                replicates=3, seed=0)))
        assert run(np.int64(3)) == run(3)


class TestSchemeInvariants:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(harness.SCHEMES)), st.integers(0, 2 ** 32),
           st.lists(st.integers(0, 40), min_size=2, max_size=5))
    def test_ledger_and_energy(self, scheme, seed, n):
        """Every scheme on a random small population: the slot total is
        the sum of its stages, and no node of any type has negative idle
        time or is awake longer than the frame."""
        pop = PopulationSpec.fixed(n, n_all=(1024,) * len(n))
        cfg = derive_config(0.05, 0.2, pop.n_all)
        prm = {"rough": dict(enumerate(n, 1))}
        report = harness.SCHEMES[scheme](pop, cfg, RngBank(seed), prm)
        led = report.ledger
        assert min(led.stage1, led.stage2, led.stage3, led.bp) >= 0
        assert led.total == led.stage1 + led.stage2 + led.stage3 + led.bp
        assert 0 <= report.comparable_total <= led.total
        if report.energy is None:
            return
        for b in range(1, pop.T + 1):
            assert report.energy.tx[b].shape == (n[b - 1],)
            assert (report.energy.idle(b) >= 0).all()
            assert (report.energy.accounted[b] <= led.total).all()


# Schemes whose reports carry no energy ledger.
NO_ENERGY = ("3ss-rep", "2ss-rep")
GAMMAS = ("gamma_tau", "gamma_rho", "gamma_iota")


class TestEnergySums:
    """mean_energy reads each type's sums; the per-node arrays it no longer
    needs are built from the same charges when read."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(set(harness.SCHEMES) - set(NO_ENERGY))),
           st.integers(0, 2 ** 32), st.integers(1, 64),
           st.lists(st.integers(0, 40), min_size=2, max_size=5),
           st.tuples(*[st.integers(0, 5)] * 3),
           st.tuples(*[st.floats(0, 10)] * 3))
    def test_mean_energy_equals_per_node_mean(self, scheme, seed, ell, n,
                                              whole, real):
        """On a random small population (a short ell sets participation
        below 1, so bb frames have idle nodes): mean_energy equals the mean
        of the per-node energy exactly at integer costs and to rounding at
        real ones, and the sums are those of the per-node arrays."""
        pop = PopulationSpec.fixed(n, n_all=(1024,) * len(n))
        prm = {"rough": dict(enumerate(n, 1))}
        cfg = derive_config(0.05, 0.2, pop.n_all, ell=ell)
        energy = harness.SCHEMES[scheme](pop, cfg, RngBank(seed), prm).energy
        costs = [(dataclasses.replace(cfg, **dict(zip(GAMMAS, gammas))),
                  exact) for gammas, exact in ((whole, True), (real, False))]
        # Every mean is taken before the per-node arrays are first read.
        means = [[energy.mean_energy(b, c) for b in range(1, pop.T + 1)]
                 for c, _exact in costs]
        for b in range(1, pop.T + 1):
            arrays = (energy.tx[b], energy.rx[b], energy.accounted[b])
            assert energy.sums[b - 1].tolist() == [a.sum() for a in arrays]
            for (c, exact), mean in zip(costs, means):
                per_node = energy.energy(b, c)
                want = per_node.mean() if per_node.size else 0.0
                assert mean[b - 1] == (
                    want if exact else pytest.approx(want, rel=1e-12))

    def test_harness_never_builds_per_node_arrays(self, monkeypatch):
        def no_arrays(ledger, b):
            raise AssertionError("per-node energy arrays built")
        monkeypatch.setattr(EnergyLedger, "_per_node", no_arrays)
        assert figure_preset("fig11a", replicates=1)
        rows = run_experiment(ExperimentSpec(
            ["hsrc1", "hsrc2", "txsrcs", "p2-3ssbb", "p2-2ssbb", "p2-trepbb"],
            "n2_value", [30], {"epsilon": 0.05, "ell": 16,
                               "n": (20, 30, 40, 50)}, replicates=2))
        assert all(row.energy_mean_per_type for row in rows)


ENERGY_SCHEMES = sorted(set(harness.SCHEMES) - set(NO_ENERGY))
RECORDS = ("tx", "rx", "accounted")


def _all_types(energy):
    """Reference: every type's per-node (tx, rx, accounted) arrays built at
    once from the ledger's charges, in charge order, by record name."""
    arrays = tuple({b: np.zeros(nb) for b, nb in enumerate(energy.n, 1)}
                   for _ in RECORDS)
    for b, amounts in energy._charges:
        mine = [per_type[b] for per_type in arrays]
        if callable(amounts):
            amounts(*mine)
        else:
            for array, a in zip(mine, amounts):
                array += a
    return dict(zip(RECORDS, arrays))


class TestPerNodeOneTypeAtATime:
    """A per-node read builds the one type it asks for, and the ledger
    holds one type's arrays at a time."""

    @staticmethod
    def _report(scheme, n, seed, **config):
        pop = PopulationSpec.fixed(n, n_all=(max(1024, *n),) * len(n))
        cfg = derive_config(0.05, 0.2, pop.n_all, **config)
        return harness.SCHEMES[scheme](pop, cfg, RngBank(seed),
                                       {"rough": dict(enumerate(n, 1))})

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ENERGY_SCHEMES), st.integers(0, 2 ** 32),
           st.integers(1, 64),
           st.lists(st.integers(0, 40), min_size=2, max_size=5), st.data())
    def test_reads_in_any_order_equal_all_types_at_once(self, scheme, seed,
                                                        ell, n, data):
        """Reads of any type and record, in any order and repeated (idle
        among them), equal in value and dtype the arrays built for all types
        at once from a second report of the same seed."""
        want = _all_types(self._report(scheme, n, seed, ell=ell).energy)
        energy = self._report(scheme, n, seed, ell=ell).energy
        reads = data.draw(st.lists(
            st.tuples(st.integers(1, len(n)),
                      st.sampled_from(RECORDS + ("idle",))),
            min_size=1, max_size=12))
        for b, record in reads:
            if record == "idle":
                have = energy.idle(b)
                ref = want["accounted"][b] - want["tx"][b] - want["rx"][b]
            else:
                have, ref = getattr(energy, record)[b], want[record][b]
            assert have.dtype == ref.dtype == np.float64
            assert np.array_equal(have, ref)

    @pytest.mark.parametrize("scheme", ENERGY_SCHEMES)
    def test_idle_loop_peak_memory(self, scheme):
        """Bound fixed from array sizes, with A = 8n bytes (one float64 per
        node) at n = 5e4 nodes of each of T = 4 types.  Held while type b is
        read: its three records (3A) and the previous type's idle result
        (A).  On top, the larger of idle's two temporaries (2A) and one
        frame's re-draw (uniforms or slots, blocks and one table lookup,
        3A).  That is 7A; the bound is 8A plus the frames' count-level
        (tx, rx) energy tables of every type, 2 x 8 T (ell + 1 + m' (t_T +
        1)) bytes.  Building every type's records at once holds 12A."""
        n = 50_000
        report = self._report(scheme, (n,) * 4, 3)
        cfg = derive_config(0.05, 0.2, (max(1024, n),) * 4)
        tables = 2 * 8 * 4 * (cfg.ell + 1 + cfg.m_prime * (cfg.t_T + 1))
        gc.collect()
        tracemalloc.start()
        try:
            for b in range(1, 5):
                idle = report.energy.idle(b)
                assert idle.shape == (n,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * n + tables, peak

    @pytest.mark.parametrize("scheme", ENERGY_SCHEMES)
    def test_idle_loop_peak_memory_at_large_n(self, scheme):
        """The bench checker's loop at T = 4 and n = 2e5 nodes per type,
        with A = 8n bytes (1.6 MB) and P = core._NODE_PIECE nodes.  Held
        while type b is read: its three records (3A) and the previous type's
        idle result (A).  While the records are built, a replay's scratch
        comes on top: a piece's uniforms, blocks in place, one table lookup,
        and for slots a piece of integers and a mask, under 4 x 8P.  Then
        idle(b) adds one array (A), subtracting in place.  So the peak is at
        most max(4A + 32P, 5A), plus type b's count-level (tx, rx) tables,
        2 x 8 (ell + 1 + m' (t_T + 1)) bytes, and 64 KB for streams and
        small objects.  Redrawing whole frames holds 2A to 3A more."""
        n = 200_000
        report = self._report(scheme, (n,) * 4, 4)
        cfg = derive_config(0.05, 0.2, (n,) * 4)
        tables = 2 * 8 * (cfg.ell + 1 + cfg.m_prime * (cfg.t_T + 1))
        bound = (max(4 * 8 * n + 4 * 8 * core._NODE_PIECE, 5 * 8 * n)
                 + tables + (64 << 10))
        gc.collect()
        tracemalloc.start()
        try:
            for b in range(1, 5):
                idle = report.energy.idle(b)
                assert idle.shape == (n,) and not (idle < 0).any()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("scheme", ENERGY_SCHEMES)
    def test_arrays_freed_with_the_report(self, scheme):
        """With the cycle collector off, a report's per-node arrays die with
        its last reference: the ledger and its read-only records form no
        reference cycle."""
        gc.disable()
        try:
            report = self._report(scheme, (30, 0, 12), 5)
            records = report.energy.tx
            first = weakref.ref(records[1])
            records[2]
            assert first() is None          # one type's arrays at a time
            arrays = [weakref.ref(records[3])]
            arrays.append(weakref.ref(report.energy.idle(3)))
            arrays.append(weakref.ref(report.energy.rx[3]))
            ledger = weakref.ref(report.energy)
            del report
            assert ledger() is not None     # the records hold the ledger
            del records
            assert ledger() is None
            assert all(array() is None for array in arrays)
        finally:
            gc.enable()

    @pytest.mark.parametrize("scheme", ENERGY_SCHEMES)
    def test_types_outside_one_to_t_raise_key_error(self, scheme):
        energy = self._report(scheme, (4, 7, 2), 1).energy
        cfg = derive_config(0.05, 0.2, (1024,) * 3)
        for record in RECORDS:
            assert list(getattr(energy, record)) == [1, 2, 3]
            assert len(getattr(energy, record)) == 3
        for b in (0, 4):
            for read in [lambda b: energy.idle(b),
                         lambda b: energy.energy(b, cfg)] + [
                    lambda b, r=r: getattr(energy, r)[b] for r in RECORDS]:
                with pytest.raises(KeyError):
                    read(b)
        assert energy.tx[3].shape == (2,)


class TestPhase2Schemes:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["HSRC1", "HSRC2"]),
           st.sampled_from(["SSBB", "TRepBB"]), st.integers(2, 7),
           st.integers(1, 64), st.data())
    def test_p2_scheme_reproduces_hsrc_phase2(self, seed, variant, method, T,
                                              ell, data):
        """On run_hsrc's rough estimates and seed, the p2-* scheme of the
        same code and method is run_hsrc's phase 2."""
        n = data.draw(st.lists(st.integers(0, 200), min_size=T, max_size=T))
        pop = PopulationSpec.fixed(n, n_all=(1 << 10,) * T)
        cfg = derive_config(0.05, 0.2, pop.n_all, ell=ell)
        full = run_hsrc(variant, pop, cfg, RngBank(seed),
                        phase2_override=method)
        scheme = ("p2-trepbb" if method == "TRepBB" else
                  "p2-3ssbb" if variant == "HSRC1" else "p2-2ssbb")
        alone = harness.SCHEMES[scheme](pop, cfg, RngBank(seed),
                                        {"rough": full.rough})
        assert alone.final == full.final
        assert alone.flags == full.flags
        assert alone.phase2_ledger == full.phase2_ledger
        assert alone.phase2_method == full.phase2_method == method


class TestPresets:
    def test_fig9a_thresholds(self):
        rows = figure_preset("fig9a")
        by_scheme = {}
        for r in rows:
            by_scheme.setdefault(r.scheme, []).append(r)
        assert sorted(by_scheme) == ["n1_star_over_ell", "zeta1", "zeta2"]
        assert [r.sweep_value for r in by_scheme["zeta1"]] == list(range(2, 9))
        for z1, z2, star in zip(by_scheme["zeta1"], by_scheme["zeta2"],
                                by_scheme["n1_star_over_ell"]):
            assert z1.mean_slots <= star.mean_slots <= z2.mean_slots

    def test_fig9b_crossover(self):
        rows = figure_preset("fig9b")
        assert [r.sweep_value for r in rows] == [6638, 3009, 1674, 1075]
        for r in rows:
            assert 0.5 < r.mean_slots < 0.8

    def test_fig10_crossover_direction(self):
        rows = figure_preset("fig10", replicates=30)
        lo = next(r for r in rows if r.sweep_value == 1500)
        hi = next(r for r in rows if r.sweep_value == 4000)
        assert lo.mean_slots < 9027 < hi.mean_slots

    def test_fig8a_parameters_and_monotonicity(self):
        rows = figure_preset("fig8a", replicates=5)
        n2_values = sorted({r.sweep_value for r in rows})
        assert n2_values == [500, 1000, 1500, 2000, 2500, 3000]
        trep = [r.mean_slots for r in rows if r.scheme == "p2-trepbb"]
        # The per-type repetition baseline is flat in n2: always T*ell.
        assert all(v == trep[0] for v in trep)
        assert trep[0] == 4 * 3009

    def test_fig7a_schemes(self):
        rows = figure_preset("fig7a", replicates=1)
        assert {r.scheme for r in rows} == {"hsrc1-trepbb", "hsrc1-ssbb",
                                            "hsrc2-trepbb", "hsrc2-ssbb"}
        assert sorted({r.sweep_value for r in rows}) == [
            pytest.approx(0.1 * k) for k in range(1, 10)]


class TestValidateAccuracy:
    def test_empty_population_rate_one(self):
        rates = validate_accuracy(
            "hsrc1", [(0, 0, 0)],
            {"T": 3, "epsilon": 0.03, "delta": 0.2}, replicates=5)
        for rate, (lo, hi) in rates.values():
            assert rate == 1.0
            assert 0 <= lo <= hi <= 1

    def test_realistic_rate(self):
        rates = validate_accuracy(
            "txsrcs", [(500, 500, 500)],
            {"T": 3, "epsilon": 0.05, "delta": 0.2, "n_all": 4096},
            replicates=60)
        for rate, _ in rates.values():
            assert rate >= 0.7


class TestCalibrateEll:
    def test_within_band_of_published(self):
        ell = calibrate_ell(0.05, 0.2, (1000, 5000), replicates=200, seed=1)
        assert abs(ell - 1075) <= 0.15 * 1075

    def test_monotone_in_epsilon(self):
        tight = calibrate_ell(0.03, 0.2, (1000,), replicates=120, seed=2)
        loose = calibrate_ell(0.05, 0.2, (1000,), replicates=120, seed=2)
        assert tight > loose

    def test_insufficient_range(self):
        with pytest.raises(ConfigError):
            calibrate_ell(0.01, 0.2, (50000,), replicates=30, hi=60)


class TestCli:
    def _capture(self, argv):
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            rc = cli.main(argv)
        finally:
            sys.stdout = old
        assert rc == 0
        return buf.getvalue()

    def test_zeta_table(self):
        out = self._capture(["zeta", "--t-min", "2", "--t-max", "3"])
        lines = out.strip().split("\n")
        assert lines[0] == "T,zeta1,zeta2,n1_star_over_ell"
        assert lines[1].startswith("2,0.4932")
        assert lines[2].startswith("3,0.6286")

    def test_simulate_smoke(self):
        out = self._capture([
            "simulate", "--schemes", "hsrc1", "--T", "3",
            "--n", "100,200,150", "--replicates", "2", "--seed", "1"])
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_energy_column_with_no_nodes(self):
        # A scheme that reports energy prints it even when every type is
        # empty; only the repeated baselines, which report none, leave it
        # empty.
        out = self._capture([
            "simulate", "--schemes", "hsrc1,3ss-rep", "--n", "0,0",
            "--replicates", "2", "--seed", "1"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(r[2], r[-1]) for r in rows] == [("hsrc1", "0;0"),
                                                 ("3ss-rep", "")]

    def test_n_parsing_forms(self):
        assert cli._parse_n("1=500,2=1000") == (500, 1000)
        assert cli._parse_n("2=1000,1=500") == (500, 1000)
        assert cli._parse_n("500,1000") == (500, 1000)

    def test_analyze_smoke(self):
        out = self._capture(["analyze", "--T", "3", "--n", "500,500,500"])
        assert "lambda_II=" in out and "phase2=" in out

    def test_analyze_untabulated_eps_with_ell(self):
        # The error for an untabulated epsilon says to pass ell; analyze
        # takes it.
        out = self._capture(["analyze", "--eps", "0.07", "--ell", "1400",
                             "--n", "5,5,5"])
        assert out.startswith("ell=1400 ")

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T=3\nn=100,100,100\nreplicates=2\n")
        out = self._capture(["simulate", "--schemes", "txsrcs",
                             "--config", str(cfg)])
        assert "txsrcs" in out

    def test_figure_analytic(self):
        out = self._capture(["figure", "fig9b"])
        assert "n1_star_over_ell" in out

    def test_sweep_integer_variable(self):
        out = self._capture([
            "simulate", "--schemes", "hsrc2", "--sweep-var", "T",
            "--sweep-values", "4,5.0", "--D", "100", "--q", "0.15",
            "--replicates", "1", "--seed", "3"])
        lines = out.strip().split("\n")
        assert [line.split(",")[1] for line in lines[1:]] == ["4", "5"]
        assert lines[2].count(";") == 4    # five per-type energies at T=5

    def test_integer_sweep_values_typed_as_float_agree(self):
        argv = ["simulate", "--schemes", "txsrcs", "--sweep-var", "D",
                "--q", "0.3", "--T", "3", "--replicates", "2", "--seed", "4",
                "--sweep-values"]
        assert self._capture(argv + ["50"]) == self._capture(argv + ["50.0"])

    def test_types_inferred_from_n(self):
        out = self._capture(["simulate", "--schemes", "hsrc1", "--n",
                             "100,100,100,100", "--replicates", "1"])
        assert out.strip().split("\n")[1].count(";") == 3

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--T", "3", "--n", "5,5"], "--n gives 2 types"),
        (["simulate", "--sweep-var", "T", "--sweep-values", "4",
          "--n", "20,20,20"], "--n gives 3 types but T is 4"),
        (["simulate", "--T", "1", "--D", "10", "--q", "0.5"],
         "at least 2"),
        (["simulate", "--T", "3"], "needs --n, or --D and --q"),
        (["simulate", "--sweep-var", "D", "--sweep-values", "50", "--T", "3"],
         "missing --q"),
        (["simulate", "--n", "5,5,5", "--eps", "0.07"], "epsilon=0.07"),
        (["simulate", "--n", "5,5", "--sweep-var", "epsilon",
          "--sweep-values", "0.05,0.07"], "epsilon=0.07"),
        (["simulate", "--sweep-var", "T", "--sweep-values", "4.5",
          "--D", "10", "--q", "0.5"], "whole numbers"),
        (["validate", "--eps", "0.07"], "epsilon=0.07"),
        (["analyze", "--delta", "0.1"], "delta=0.1"),
        (["analyze", "--T", "4", "--n", "5,5,5"], "--n gives 3 types"),
        (["simulate", "--sweep-var", "n2_value", "--sweep-values", "10",
          "--D", "10", "--q", "0.5"], "n2_value needs --n"),
        (["simulate", "--n", "5,5,5", "--schemes", "p2-trepbb"],
         "p2-trepbb runs phase 2 alone"),
        (["simulate", "--n", "5,5,5", "--schemes", "hsrc1,bogus"],
         "unknown scheme 'bogus'"),
        (["simulate", "--n", "100,100,100", "--sweep-var", "n_all",
          "--sweep-values", "50"], "n_all (else D) is 50"),
        (["simulate", "--n", "5,80,5", "--D", "60"],
         "up to 80 active nodes"),
        (["simulate", "--D", "100", "--q", "0.5", "--sweep-var", "n_all",
          "--sweep-values", "50"], "n_all (else D) is 50"),
        (["simulate", "--n", "5,5,5", "--replicates", "0"],
         "--replicates must be at least 1, got 0"),
        (["validate", "--replicates", "0"], "--replicates must be at least 1"),
        (["calibrate-ell", "--replicates", "0"],
         "--replicates must be at least 1"),
        (["simulate", "--D", "10", "--q", "1.5", "--T", "3"],
         "q must be in [0, 1], got 1.5"),
        (["simulate", "--n", "5,-5,5"], "node counts (--n, D) must be >= 0"),
        (["simulate", "--D", "-5", "--q", "0.5"], "must be >= 0"),
        (["simulate", "--n", "5,5,5", "--sweep-var", "ell",
          "--sweep-values", "0"], "ell, m_prime, s_w, t_T must all be >= 1"),
        (["simulate", "--n", "5,5,5", "--sweep-var", "gamma_rho",
          "--sweep-values", "-1"], "energy costs must be >= 0"),
        (["simulate", "--n", ",".join(["5"] * 11), "--schemes",
          "hsrc1,2ss-rep,txsrcs"],
         "2ss-rep: 2SS decoder tables are built for T <= 10, got T = 11"),
        (["simulate", "--T", "12", "--D", "10", "--q", "0.5", "--schemes",
          "hsrc2,hsrc2-ssbb"], "hsrc2, hsrc2-ssbb: 2SS decoder tables"),
        (["simulate", "--sweep-var", "T", "--sweep-values", "10,11", "--D",
          "10", "--q", "0.5", "--schemes", "hsrc2-trepbb"], "got T = 11"),
        (["simulate", "--n", ",".join(["5"] * 11), "--sweep-var", "n2_value",
          "--sweep-values", "5", "--schemes", "p2-2ssbb"],
         "p2-2ssbb: 2SS decoder tables are built for T <= 10"),
        (["validate", "--scheme", "2ss-rep", "--T", "11"], "got T = 11"),
        (["analyze", "--n", "5,-5,5"], "node counts (--n, D) must be >= 0"),
        (["analyze", "--n", "5,5,5", "--rough", "5,-1,5"],
         "rough estimates (--rough) must be >= 0"),
        (["validate", "--n", "5,-5,5"], "node counts (--n, D) must be >= 0"),
        (["simulate", "--n", "5,5,5", "--sweep-var", "n_all",
          "--sweep-values", "0"], "n_all (else D) is 0"),
        (["simulate", "--n", "5,5,5", "--D", "0"], "n_all (else D) is 0"),
        (["validate", "--n", "1000,1000,1000", "--D", "999"],
         "n_all (else D) is 999"),
        (["simulate", "--n", "5,5,5", "--ell", "0"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["simulate", "--n", "5,5,5", "--m-prime", "0"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["validate", "--n", "5,5,5", "--ell", "-3"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["validate", "--m-prime", "0"],
         "ell, m_prime, s_w, t_T must all be >= 1"),
        (["simulate", "--n", "5,5,5", "--config"],
         "argument --config: expected one argument"),
        (["simulate", "--config", "no/such/run.cfg"],
         "--config no/such/run.cfg: No such file or directory"),
        (["simulate", "--config", "."], "--config .: Is a directory"),
        (["analyze", "--n", "5,5,5", "--rough", "5,5"],
         "--rough gives 2 types but T is 3"),
        (["analyze", "--n", "5,5,5", "--rough", "5,5,5,5"],
         "--rough gives 4 types but T is 3"),
        (["zeta", "--t-min", "1"], "--t-min must be at least 2, got 1"),
        (["zeta", "--ell", "0"], "--ell must be at least 1, got 0"),
        (["zeta", "--ell", "-5"], "--ell must be at least 1, got -5"),
        (["zeta", "--ell", "2"], "no n1* crossover at T = 2, ell = 2"),
        # Each subcommand takes only the flags it reads.
        (["figure", "fig9b", "--eps", "0.05"],
         "unrecognized arguments: --eps 0.05"),
        (["analyze", "--replicates", "5"],
         "unrecognized arguments: --replicates 5"),
        (["calibrate-ell", "--T", "3"], "unrecognized arguments: --T 3"),
        (["validate", "--include-overhead"],
         "unrecognized arguments: --include-overhead"),
        # No flag is matched by a prefix of its name.
        (["calibrate-ell", "--n", "5,5,5"],
         "unrecognized arguments: --n 5,5,5"),
        (["analyze", "--r", "5,5,5"], "unrecognized arguments: --r 5,5,5"),
        # epsilon and delta lie in (0, 1), also where ell or m' is given.
        (["simulate", "--n", "5,5,5", "--eps", "0", "--ell", "100"],
         "epsilon must be in (0, 1), got 0.0"),
        (["validate", "--eps", "0", "--ell", "100"],
         "epsilon must be in (0, 1), got 0.0"),
        (["simulate", "--n", "5,5,5", "--eps", "-0.1", "--ell", "100"],
         "epsilon must be in (0, 1), got -0.1"),
        (["simulate", "--n", "5,5,5", "--eps", "1.5", "--ell", "100"],
         "epsilon must be in (0, 1), got 1.5"),
        (["simulate", "--n", "5,5,5", "--delta", "1", "--m-prime", "5",
          "--schemes", "3ss-rep"], "delta must be in (0, 1), got 1.0"),
        (["simulate", "--n", "5,5,5", "--m-prime", "5", "--sweep-var",
          "delta", "--sweep-values", "0.2,0"],
         "delta must be in (0, 1), got 0.0"),
        (["analyze", "--eps", "0"], "epsilon must be in (0, 1), got 0.0"),
        (["calibrate-ell", "--n-grid", "-5"],
         "node counts (--n-grid) must be >= 0"),
        (["calibrate-ell", "--delta", "0.1"], "delta=0.1"),
        (["calibrate-ell", "--eps", "0"],
         "epsilon must be in (0, 1), got 0.0"),
        (["analyze", "--ell", "0"], "ell, m_prime, s_w, t_T must all be"),
        # Appended last so the other cases keep their ids.
        (["zeta", "--t-min", "5", "--t-max", "3"],
         "--t-max 3 is below --t-min 5"),
        (["calibrate-ell", "--eps", "0.001", "--replicates", "3",
          "--n-grid", "50000"],
         "upper bound of the search range (ell = 16384) is insufficient"),
        (["calibrate-ell", "--n-grid", "0,0"],
         "--n-grid needs a node count >= 1"),
        (["simulate", "--schemes", "hsrc1", "--n", "5,5", "--sweep-var",
          "gamma_rho", "--sweep-values", "nan"],
         "energy costs must be finite and >= 0"),
        (["simulate", "--schemes", "hsrc1", "--n", "5,5", "--sweep-var",
          "gamma_iota", "--sweep-values", "inf"],
         "energy costs must be finite and >= 0"),
        (["simulate", "--schemes", "hsrc1", "--n", "5,5", "--sweep-var", "q",
          "--sweep-values", "0.1,0.9"], "--q samples the active nodes"),
        (["simulate", "--schemes", "hsrc1", "--n", "5,5", "--q", "0.9"],
         "--q samples the active nodes"),
        # Block counts are int32: more nodes per type than 2^31 - 1 would
        # wrap them.
        (["simulate", "--schemes", "hsrc1", "--n", "5,5", "--sweep-var",
          "n2_value", "--sweep-values", "1e30"],
         "node counts (--n, D) must be at most 2147483647"),
        (["simulate", "--schemes", "hsrc1", "--n", "5,2147483648"],
         "node counts (--n, D) must be at most 2147483647"),
        (["simulate", "--schemes", "hsrc1", "--D", "2147483648", "--q",
          "0.1"], "node counts (--n, D) must be at most 2147483647"),
        (["simulate", "--schemes", "hsrc1", "--q", "0.1", "--sweep-var", "D",
          "--sweep-values", "5,3e9"],
         "node counts (--n, D) must be at most 2147483647"),
        (["validate", "--n", "5,2147483648"],
         "node counts (--n, D) must be at most 2147483647"),
        # An --out whose directory is missing fails before the run, not
        # after it.
        (["figure", "fig11a", "--replicates", "1", "--out",
          "/nonexistent/dir/x.csv"],
         "--out /nonexistent/dir/x.csv: no such directory"),
        (["simulate", "--n", "5,5", "--out", "/nonexistent/dir/x.csv"],
         "--out /nonexistent/dir/x.csv: no such directory"),
        (["figure", "fig9a", "--out", "/"], "--out /: is a directory"),
        # --sweep-values without a sweep variable would only reseed.
        (["simulate", "--n", "5,5", "--sweep-values", "1,2"],
         "--sweep-values gives values of --sweep-var"),
        (["simulate", "--n", "5,5", "--sweep-values", "nan"],
         "--sweep-values gives values of --sweep-var"),
        (["simulate", "--n", "5,5", "--sweep-var", "none", "--sweep-values",
          "0"], "--sweep-values gives values of --sweep-var"),
    ])
    def test_bad_input_one_line_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("hetcount: error: ")
        assert message in err[-1]

    @pytest.mark.parametrize("detail", [
        "Unable to allocate 745. GiB for an array with shape "
        "(100000000000,) and data type int64", ""])
    def test_out_of_memory_one_line_error(self, capsys, monkeypatch, detail):
        # A stand-in raises the error: a real allocation that large may
        # succeed under overcommit and be killed when touched.
        def run_experiment(spec):
            raise MemoryError(detail)
        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--schemes", "hsrc1", "--n", "5,5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1] == ("hetcount: error: out of memory"
                           + (f": {detail}" if detail else ""))

    def test_analyze_takes_counts_above_the_drawn_bound(self, capsys):
        # analyze draws no nodes, so its closed forms take any count.
        assert cli.main(["analyze", "--n", "3000000000,5"]) == 0
        assert "phase2=" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", ","], "--n: need at least one count"),
        (["calibrate-ell", "--n-grid", ","],
         "--n-grid: need at least one count"),
        (["simulate", "--n", "1=5,3=5"], "keys must be the types 1..2"),
        (["simulate", "--n", "1=5,1=6"], "keys must be the types 1..2"),
    ])
    def test_bad_count_list_one_line_error(self, capsys, argv, message):
        # A count list is parsed by the subcommand's own parser.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith(f"hetcount {argv[0]}: error: argument ")
        assert message in err[-1]

    def test_config_keys_are_subcommand_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps=0.05\n")
        with pytest.raises(SystemExit):
            cli.main(["figure", "fig9b", "--config", str(cfg)])
        assert "unrecognized arguments: --eps=0.05" in capsys.readouterr().err

    @pytest.mark.parametrize("var", ["rough1", "bogus"])
    def test_unknown_sweep_variable_rejected(self, capsys, var):
        # rough1 needs rough estimates, which simulate does not take.
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--n", "5,5,5", "--sweep-var", var,
                      "--sweep-values", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("hetcount simulate: error: argument "
                                  f"--sweep-var: invalid choice: '{var}'")

    @pytest.mark.parametrize("scheme", ["bogus", "p2-trepbb"])
    def test_validate_rejects_schemes_it_cannot_run(self, capsys, scheme):
        # Phase-2-only schemes need rough estimates, which validate lacks.
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--scheme", scheme, "--replicates", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].startswith("hetcount validate: error: argument "
                                  f"--scheme: invalid choice: '{scheme}'")

    def test_replicates_default_only_when_absent(self):
        argv = ["simulate", "--schemes", "txsrcs", "--n", "5,5,5"]
        assert self._capture(argv).split("\n")[1].startswith(
            "none,0,txsrcs,100,")
        assert self._capture(argv + ["--replicates", "1"]).split(
            "\n")[1].startswith("none,0,txsrcs,1,")

    def test_table_bound_spares_other_schemes(self):
        out = self._capture(["simulate", "--n", ",".join(["5"] * 11),
                             "--schemes", "hsrc1,txsrcs,3ss-rep",
                             "--replicates", "1"])
        assert [line.split(",")[2] for line in out.strip().split("\n")[1:]] \
            == ["hsrc1", "txsrcs", "3ss-rep"]

    def test_stdout_equals_out_file(self, tmp_path):
        out = tmp_path / "o.csv"
        text = self._capture(["simulate", "--n", "5,5,5", "--replicates",
                              "2", "--out", str(out)])
        assert text.encode() == out.read_bytes()
        assert text.split("\n")[1].startswith("none,0,hsrc1,2,")

    def test_sweep_n2_value(self):
        out = self._capture(["simulate", "--schemes", "p2-trepbb", "--n",
                             "50,50,50", "--sweep-var", "n2_value",
                             "--sweep-values", "60,70.0", "--replicates", "1"])
        assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] \
            == ["60", "70"]

    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(hetcount.__file__))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-m", "hetcount", "zeta", "--t-min", "2",
             "--t-max", "2"], capture_output=True, text=True, env=env,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[1].startswith("2,0.4932")

    def test_validate_default_depth_not_ruled_out(self):
        # With n_all = n, phase 1 stopped at ceil(log2 1000) = 10 blocks and
        # 3ss-rep estimated about 0.58 n, so no replicate was within epsilon.
        out = self._capture(["validate", "--scheme", "3ss-rep", "--n",
                             "1000,1000,1000", "--replicates", "100",
                             "--seed", "7"])
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            hi = float(line.split("wilson95=(")[1].split(",")[1].rstrip(")"))
            assert hi >= 0.8                  # 1 - delta is not ruled out

    def test_default_n_all(self):
        assert cli._n_all(None, (5, 40)) == harness.PRESET_N_ALL
        assert cli._n_all(None, (3_000_000, 5, 5)) == 3_000_000
        assert cli._n_all(60, (5, 40)) == 60

    @pytest.mark.parametrize("flags, stage1", [
        ([], 10 * 2 * 20 + 3 * 500),
        (["--m-prime", "3"], 3 * 2 * 20 + 3 * 500),
    ])
    def test_ell_and_m_prime_flags(self, flags, stage1):
        # An untabulated epsilon runs once --ell is given; phase 1 is m'
        # trials of 20 two-slot blocks, TRepBB phase 2 one ell-slot trial
        # per type.
        out = self._capture(["simulate", "--n", "5,5,5", "--eps", "0.07",
                             "--ell", "500", "--schemes", "hsrc1-trepbb",
                             "--replicates", "1", *flags])
        assert out.split("\n")[1].split(",")[6] == str(stage1)
        out = self._capture(["validate", "--n", "50,50", "--eps", "0.07",
                             "--ell", "800", "--replicates", "2", *flags])
        assert [line.split(":")[0] for line in out.strip().split("\n")] \
            == ["type 1", "type 2"]

    def test_default_n_all_sets_phase1_depth(self):
        argv = ["simulate", "--schemes", "3ss-rep", "--n", "40,40",
                "--replicates", "1"]
        preset = self._capture(argv)
        assert self._capture(argv + ["--D", str(1 << 20)]) == preset
        # 20 blocks of one slot per trial at T = 2, against 6 at D = 40.
        assert preset.split("\n")[1].split(",")[6] == str(20 * 1136)
        assert self._capture(argv + ["--D", "40"]).split(
            "\n")[1].split(",")[6] == str(6 * 1136)
