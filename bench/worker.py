"""One benchmark process: set up, check and time one workload.

bench/run.py starts this in a fresh interpreter for every sample, because
the 2SS decoder tables and the decoders' lru_caches are process-global:

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace

Set-up is the time to import hetcount (numpy is already loaded) and fill
every decoder table the workload can touch.  ``setup`` stops there;
``run`` goes on with the untimed correctness passes and the timed warm
phase; ``trace`` installs the tracing spans and reports per-layer figures.
The last line of standard output is one JSON object.
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import tracing
from workloads import GOLDEN_SEED, WORKLOADS, check_seed, round_seed

# Set-up is timed from here: numpy, the one third-party dependency, is
# already imported, so the figure is this package's import and tables.
# Importing numpy takes about 0.08 s and varies more than everything else a
# small workload's set-up does.
T0 = time.perf_counter()

from hetcount import harness  # noqa: E402
from hetcount.two_stage import resolver_lut  # noqa: E402

EQUAL_SCHEMES = ("hsrc1", "hsrc2", "txsrcs")
OUT_DIR = Path(".bench_build")


def fill_tables(wl):
    """Bring every 2SS decoder table the workload uses to all 3^T codes."""
    for T in wl.tables:
        resolver_lut(T).ensure(range(3 ** T))


def filled_codes(wl):
    return sum(int(resolver_lut(T).filled.sum()) for T in wl.tables)


class Checker:
    """Per-replicate checks on the reports one harness pass produces.

    ``cells`` accumulates, per (sweep value, scheme) cell, how many per-type
    estimates fell within epsilon of the truth; replicates of a cell run
    consecutively, so the cell of a run is its index divided by the
    replicate count.
    """

    def __init__(self, reps, equality):
        self.reps = reps
        self.equality = equality
        self.runs = 0
        self.failed = 0
        self.problems = []
        self.finals = defaultdict(dict)   # replicate seed -> scheme -> final
        self.cells = defaultdict(lambda: [0, 0])
        self.equality_groups = 0

    def check(self, scheme, population, config, bank, report):
        cell = self.runs // self.reps
        bad = []
        led = report.ledger
        if led.total != led.stage1 + led.stage2 + led.stage3 + led.bp:
            bad.append("ledger total != sum of stages")
        for b in range(1, population.T + 1):
            final = report.final[b]
            if not math.isfinite(final):
                bad.append(f"type {b} final estimate {final} not finite")
            if report.energy is not None:
                idle = report.energy.idle(b)
                if idle.shape != (population.n[b - 1],) or (idle < 0).any():
                    bad.append(f"type {b} idle slots negative or misshapen")
            nb = population.n[b - 1]
            hits = self.cells[cell]
            hits[0] += abs(final - nb) <= config.epsilon * nb
            hits[1] += 1
        if bad:
            self.fail(1, f"{scheme} seed {bank.seed}: " + "; ".join(bad))
        if self.equality and scheme in EQUAL_SCHEMES:
            self.finals[bank.seed][scheme] = dict(report.final)
        self.runs += 1

    def fail(self, runs, problem):
        self.failed += runs
        self.problems.append(problem)

    def finish(self):
        """Estimator equality: hsrc1, hsrc2 and txsrcs replicates that share
        a seed must give identical final estimates."""
        for seed, by_scheme in self.finals.items():
            if len(by_scheme) < len(EQUAL_SCHEMES):
                continue
            self.equality_groups += 1
            first = by_scheme[EQUAL_SCHEMES[0]]
            if any(by_scheme[s] != first for s in EQUAL_SCHEMES[1:]):
                self.fail(len(by_scheme), f"estimates differ at seed {seed}")
        if self.equality and self.runs and not self.equality_groups:
            self.problems.append("no replicate checked for estimator equality")

    def share_min(self):
        return min(hit / n for hit, n in self.cells.values())


@contextmanager
def recording(checker):
    """Route every harness scheme dispatch through ``checker``; restored on
    exit, so timed phases run the harness unmodified."""
    schemes = harness.SCHEMES
    originals = dict(schemes)

    def recorded(scheme, fn):
        def run(population, config, bank, prm):
            report = fn(population, config, bank, prm)
            checker.check(scheme, population, config, bank, report)
            return report
        return run

    for scheme, fn in originals.items():
        schemes[scheme] = recorded(scheme, fn)
    try:
        yield
    finally:
        schemes.update(originals)


def check_rows(wl, rows, reps):
    """Problems with the harness rows of one call at ``reps`` replicates."""
    if len(rows) != wl.cells:
        return [f"{len(rows)} result rows, expected {wl.cells}"]
    return [f"row {r.sweep_value}/{r.scheme} malformed" for r in rows
            if r.replicates != reps or not math.isfinite(r.mean_slots)
            or not 0.0 <= r.acc_rate_min <= 1.0]


def checked_pass(wl, seed, reps):
    """Run the workload once at ``seed`` with every replicate checked.
    Returns (rows or None, checker); an exception fails the pass's
    remaining replicates."""
    checker = Checker(reps, wl.equality)
    rows = None
    try:
        with recording(checker):
            rows = wl.run(seed, reps)
    except Exception:
        traceback.print_exc()
        checker.fail(wl.cells * reps - checker.runs,
                     f"exception in pass at seed {seed}")
    else:
        checker.problems += check_rows(wl, rows, reps)
    checker.finish()
    return rows, checker


def timed_round(wl, seed, k):
    """Warm round k at a seed derived from ``seed``: (scheme-runs, seconds)."""
    t = time.perf_counter()
    rows = wl.run(round_seed(seed, k), wl.round_reps)
    dt = time.perf_counter() - t
    problems = check_rows(wl, rows, wl.round_reps)
    if problems:
        raise RuntimeError("; ".join(problems))
    return sum(r.replicates for r in rows), dt


def timed_rounds(wl, seed, seconds):
    """Warm rounds, as many as fit in ``seconds`` (at least one): the next
    round starts only if, at the last round's duration, it ends in time.
    Returns per-round scheme-runs per second and the total scheme-runs."""
    rates, runs, k = [], 0, 0
    start = time.perf_counter()
    while True:
        n, dt = timed_round(wl, seed, k)
        rates.append(n / dt)
        runs += n
        k += 1
        if time.perf_counter() - start + dt > seconds:
            return rates, runs


def fastest(rates):
    """Throughput of the run: the rate of its fastest round.

    A shared virtual machine switches between speed regimes about 1.3x
    apart, each lasting seconds to minutes, so slower rounds measure the
    neighbours as much as the program.  As with ``timeit``, the best round
    is the stable figure: over five 12-second runs it spread 2-3% between
    quartiles, against 5-7% for the median round and up to 12% for the
    90th percentile.
    """
    return max(rates) if rates else 0.0


def golden(wl, rows):
    """SHA-256 of the golden pass's CSV; the CSV is kept in OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    data = harness.write_csv(OUT_DIR / f"{wl.name}-golden.csv", rows)
    return hashlib.sha256(data.encode()).hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_mode(wl, seed, seconds, setup_s):
    attempted, failed, problems = 0, 0, []

    def tally(checker, runs):
        nonlocal attempted, failed
        attempted += runs
        failed += checker.failed
        problems.extend(checker.problems)

    gold_rows, gold = checked_pass(wl, GOLDEN_SEED, wl.golden_reps)
    tally(gold, wl.cells * wl.golden_reps)
    _rows, check = checked_pass(wl, check_seed(seed), wl.check_reps)
    tally(check, wl.cells * wl.check_reps)

    before = filled_codes(wl)
    try:
        rates, runs = timed_rounds(wl, seed, seconds)
    except Exception:
        traceback.print_exc()
        rates, runs = [], 0
        attempted += wl.cells * wl.round_reps
        failed += wl.cells * wl.round_reps
        problems.append("exception in the timed phase")
    attempted += runs
    warm_fills = filled_codes(wl) - before
    if warm_fills:
        problems.append(f"{warm_fills} decoder-table fills in the warm phase")

    ok_rows = gold_rows is not None
    return {
        "setup_s": setup_s,
        "reps_per_s": fastest(rates),
        "peak_rss_mb": peak_rss_mb(),
        "slots_per_rep": (
            sum(r.mean_slots * r.replicates for r in gold_rows)
            / sum(r.replicates for r in gold_rows) if ok_rows else 0.0),
        "acc_share_min": gold.share_min() if gold.cells else 0.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(rates),
        "warm_table_fills": warm_fills,
        "equality_groups": gold.equality_groups + check.equality_groups,
        "csv_sha256": golden(wl, gold_rows) if ok_rows else None,
    }


def trace_mode(wl, seed, tracer, table_build_ms, table_fills):
    """Per-layer figures of the warm phase; the set-up figures are passed
    in.  Each round runs twice, untraced and then traced, so that the
    overhead compares identical work under the same machine conditions; the
    per-layer figures cover the traced copies only."""
    tracer.uninstall()
    tracer.reset()
    runs, untraced_s, traced_s, problems = 0, 0.0, 0.0, []
    try:
        for k in range(wl.trace_rounds):
            n, dt = timed_round(wl, seed, k)
            untraced_s += dt
            tracing.install_all(tracer)
            try:
                traced_s += timed_round(wl, seed, k)[1]
            finally:
                tracer.uninstall()
            runs += n
    except Exception:
        traceback.print_exc()
        problems.append("exception in the traced phase")
    metrics, absent = tracing.layer_metrics(tracer, table_build_ms,
                                            table_fills)
    metrics["trace.overhead"] = (
        traced_s / untraced_s if runs else 0.0, "ratio")

    _rows, check = checked_pass(wl, check_seed(seed), wl.check_reps)
    problems += check.problems
    warm_fills = tracer.counts["table_fills"]
    if warm_fills:
        problems.append(f"{warm_fills} decoder-table fills in the warm phase")
    return {
        "layers": {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()},
        "absent": absent,
        "crosschecks": {k: {"traced": t, "expected": e}
                        for k, (t, e) in tracing.crosschecks(tracer).items()},
        "reps_per_s_untraced": runs / untraced_s if runs else 0.0,
        "reps_per_s_traced": runs / traced_s if runs else 0.0,
        "attempted": 2 * wl.cells * wl.round_reps * wl.trace_rounds
        + wl.cells * wl.check_reps,
        "failed": 2 * (wl.cells * wl.round_reps * wl.trace_rounds - runs)
        + check.failed,
        "problems": problems,
        "equality_groups": check.equality_groups,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
    fill_tables(wl)
    setup_s = time.perf_counter() - T0

    if args.mode == "setup":
        out = {"setup_s": setup_s}
    elif args.mode == "run":
        out = run_mode(wl, args.seed, args.seconds, setup_s)
    else:
        out = trace_mode(wl, args.seed, tracer,
                         tracer.span("two_stage.table").incl * 1e3,
                         tracer.counts["table_fills"])
    out["numpy"] = np.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
