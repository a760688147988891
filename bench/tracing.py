"""Per-layer tracing from outside the package.

Spans are recorded by wrapping public entry points of each ``hetcount``
module.  Modules import each other's functions by name (``from .x import
f``), so a function is replaced at every place it is bound, not only in its
defining module.  A target that no longer exists is reported absent with a
warning; it never fails the run.

Each span keeps calls, inclusive time and self time (inclusive minus the
time of its child spans).  A call made while a span of the same name is
already open (recursion, or ``EnergyLedger`` methods called from a per-node
energy function) belongs to the open span and is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "hetcount"


class SpanStats:
    __slots__ = ("calls", "incl", "self")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.installed = []        # (owner, attribute, original) to restore
        self.absent = {}           # target -> reason
        self.reset()

    def reset(self):
        self.spans = defaultdict(SpanStats)
        self.parents = Counter()   # (span, parent span) -> calls
        self.counts = Counter()    # named counters set by hooks
        self.scheme_runs = []      # (scheme, population, config) per run
        self._stack = []           # open frames: [name, child seconds]
        self._open = Counter()

    def span(self, name):
        """Figures of span ``name``; zeros if it never ran."""
        return self.spans.get(name, SpanStats())

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recorded as span ``name``; ``hook(tracer, args,
        result)`` runs after each outermost call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            tracer._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._open[name] -= 1
                tracer._stack.pop()
                stats = tracer.spans[name]
                stats.calls += 1
                stats.incl += elapsed
                stats.self += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                tracer.parents[(name, parent[0] if parent else None)] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self, targets):
        """Install spans for (``module:attribute``, span name, hook, around)
        targets; ``around(tracer, fn)``, when given, adapts ``fn`` before it
        is wrapped."""
        for target, name, hook, around in targets:
            module_name, _, attr = target.rpartition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self._absent(target, f"module not importable ({exc})")
                continue
            owner_name, _, member = attr.partition(".")
            if member:
                self._install_member(target, module, owner_name, member,
                                     name, hook, around)
            else:
                self._install_function(target, module, attr, name, hook)

    def _install_member(self, target, module, owner_name, member, name, hook,
                        around):
        owner = getattr(module, owner_name, None)
        raw = vars(owner).get(member) if owner is not None else None
        if raw is None:
            self._absent(target, "no such class member")
            return
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if around is not None:
            fn = around(self, fn)
        new = self.wrap(name, fn, hook)
        setattr(owner, member, staticmethod(new) if static else new)
        self.installed.append((owner, member, raw))

    def _install_function(self, target, module, attr, name, hook):
        original = getattr(module, attr, None)
        if original is None:
            self._absent(target, "no such function")
            return
        wrapped = self.wrap(name, original, hook)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self.installed.append((mod, key, original))

    def wrap_schemes(self, schemes):
        """Record every harness scheme dispatch as span ``harness.scheme``."""
        for scheme, fn in list(schemes.items()):
            schemes[scheme] = self.wrap("harness.scheme", fn,
                                        _scheme_hook(scheme))
            self.installed.append((schemes, scheme, fn))

    def uninstall(self):
        for owner, key, original in reversed(self.installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.installed.clear()

    def _absent(self, target, reason):
        if target not in self.absent:
            print(f"warning: trace target {target} absent: {reason}",
                  file=sys.stderr)
        self.absent[target] = reason


def _scheme_hook(scheme):
    def hook(tracer, args, report):
        population, config = args[0], args[1]
        tracer.scheme_runs.append((scheme, population, config))
        tracer.counts["busy_fallbacks"] += sum(
            1 for flag in report.flags.values() if flag == "all_slots_busy")
    return hook


def _draw_hook(tracer, args, result):
    tracer.counts["draw_nodes"] += int(args[1])


def _followup_hook(tracer, args, frame):
    tracer.counts["flagged_blocks"] += len(frame.flagged)
    tracer.counts["stage3_blocks"] += len(frame.r_list)


def _hsrc_hook(tracer, args, report):
    tracer.counts["hsrc_runs"] += 1
    tracer.counts["hsrc_ssbb"] += report.phase2_method == "SSBB"


def _counted_ensure(tracer, ensure):
    """The decoder-table fill, counting codes looked up and codes filled."""
    def counted(lut, codes):
        before = int(lut.filled.sum())
        ensure(lut, codes)
        tracer.counts["table_lookups"] += len(codes)
        tracer.counts["table_fills"] += int(lut.filled.sum()) - before
    return counted


ENERGY_METHODS = ("zeros", "idle", "energy", "mean_energy", "add",
                  "charge_all")

# (module:attribute, span name, hook, around) for every traced entry point.
TARGETS = (
    [("hetcount.core:RngBank.stream", "core.stream", None, None),
     ("hetcount.core:geometric_block_choices", "core.draw", _draw_hook, None),
     ("hetcount.core:uniform_block_choices", "core.draw", _draw_hook, None)]
    + [(f"hetcount.core:EnergyLedger.{m}", "core.energy", None, None)
       for m in ENERGY_METHODS]
    + [("hetcount.three_stage:_energy_3ss", "core.energy", None, None),
       ("hetcount.two_stage:_energy_2ss", "core.energy", None, None),
       ("hetcount.core:derive_config", "harness.derive_config", None, None),
       ("hetcount.homogeneous:run_srcs", "homogeneous.srcs", None, None),
       ("hetcount.three_stage:run_3ss_stage1", "three_stage.stage1", None,
        None),
       ("hetcount.three_stage:run_3ss_followup", "three_stage.followup",
        _followup_hook, None),
       ("hetcount.three_stage:run_3ss_trial", "three_stage.trial", None,
        None),
       ("hetcount.three_stage:run_3ss_bb", "three_stage.bb", None, None),
       ("hetcount.two_stage:run_2ss_trial", "two_stage.trial", None, None),
       ("hetcount.two_stage:run_2ss_bb", "two_stage.bb", None, None),
       ("hetcount.two_stage:_ResolverLUT.ensure", "two_stage.table", None,
        _counted_ensure),
       ("hetcount.hsrc:run_hsrc", "hsrc.run_hsrc", _hsrc_hook, None),
       ("hetcount.hsrc:run_baseline", "hsrc.run_baseline", None, None),
       ("hetcount.analysis:select_phase2", "analysis.select_phase2", None,
        None),
       ("hetcount.harness:run_experiment", "harness.run_experiment", None,
        None)])


def install_all(tracer):
    """Install every span, including the harness scheme dispatch."""
    from hetcount import harness
    tracer.install(TARGETS)
    tracer.wrap_schemes(harness.SCHEMES)


def absent_spans(tracer):
    """Span names none of whose targets could be installed."""
    names = {}
    for target, name, _hook, _around in TARGETS:
        names.setdefault(name, []).append(target)
    return {name: "; ".join(f"{t}: {tracer.absent[t]}" for t in ts)
            for name, ts in names.items()
            if all(t in tracer.absent for t in ts)}


def layer_metrics(tracer, table_build_ms, table_fills):
    """Per-layer metrics of one traced pass, as (metrics, absent).

    ``metrics`` maps name -> (value, unit); ``absent`` maps each span none
    of whose targets exist to the reason, and its metrics are left out.
    ``table_build_ms`` and ``table_fills`` come from the traced set-up; all
    other figures from the traced warm pass held by ``tracer``.
    """
    def ms(name):
        return tracer.span(name).incl * 1e3

    def self_ms(name):
        return tracer.span(name).self * 1e3

    def calls(name):
        return tracer.span(name).calls

    counts = tracer.counts
    lookups = counts["table_lookups"]
    hsrc_runs = counts["hsrc_runs"]
    rows = [  # (metric, span it comes from, value, unit)
        ("core.stream.calls", "core.stream", calls("core.stream"), "count"),
        ("core.stream.ms", "core.stream", ms("core.stream"), "ms"),
        ("core.draw.nodes", "core.draw", counts["draw_nodes"], "count"),
        ("core.draw.ms", "core.draw", ms("core.draw"), "ms"),
        ("core.energy.ms", "core.energy", ms("core.energy"), "ms"),
        ("homogeneous.srcs.calls", "homogeneous.srcs",
         calls("homogeneous.srcs"), "count"),
        ("homogeneous.srcs.ms", "homogeneous.srcs", ms("homogeneous.srcs"),
         "ms"),
        ("homogeneous.srcs.self_ms", "homogeneous.srcs",
         self_ms("homogeneous.srcs"), "ms"),
        ("three_stage.stage1.ms", "three_stage.stage1",
         ms("three_stage.stage1"), "ms"),
        ("three_stage.stage1.self_ms", "three_stage.stage1",
         self_ms("three_stage.stage1"), "ms"),
        ("three_stage.followup.ms", "three_stage.followup",
         ms("three_stage.followup"), "ms"),
        ("three_stage.flagged_blocks", "three_stage.followup",
         counts["flagged_blocks"], "count"),
        ("three_stage.stage3_blocks", "three_stage.followup",
         counts["stage3_blocks"], "count"),
        ("two_stage.table_build.ms", "two_stage.table", table_build_ms, "ms"),
        ("two_stage.table_fills", "two_stage.table", table_fills, "count"),
        ("two_stage.table_lookups", "two_stage.table", lookups, "count"),
        ("two_stage.table_hit_ratio", "two_stage.table",
         (lookups - counts["table_fills"]) / lookups if lookups else 0.0,
         "ratio"),
        ("two_stage.trial.ms", "two_stage.trial", ms("two_stage.trial"),
         "ms"),
        ("two_stage.trial.self_ms", "two_stage.trial",
         self_ms("two_stage.trial"), "ms"),
        ("two_stage.bb.ms", "two_stage.bb", ms("two_stage.bb"), "ms"),
        ("two_stage.bb.self_ms", "two_stage.bb", self_ms("two_stage.bb"),
         "ms"),
        ("hsrc.run_hsrc.ms", "hsrc.run_hsrc", ms("hsrc.run_hsrc"), "ms"),
        ("hsrc.run_hsrc.self_ms", "hsrc.run_hsrc", self_ms("hsrc.run_hsrc"),
         "ms"),
        ("hsrc.ssbb_share", "hsrc.run_hsrc",
         counts["hsrc_ssbb"] / hsrc_runs if hsrc_runs else 0.0, "ratio"),
        ("hsrc.ssbb_share.base", "hsrc.run_hsrc", hsrc_runs, "count"),
        ("hsrc.busy_fallbacks", "harness.scheme", counts["busy_fallbacks"],
         "count"),
        ("hsrc.run_baseline.ms", "hsrc.run_baseline",
         ms("hsrc.run_baseline"), "ms"),
        ("hsrc.run_baseline.self_ms", "hsrc.run_baseline",
         self_ms("hsrc.run_baseline"), "ms"),
        ("analysis.select_phase2.calls", "analysis.select_phase2",
         calls("analysis.select_phase2"), "count"),
        ("analysis.select_phase2.ms", "analysis.select_phase2",
         ms("analysis.select_phase2"), "ms"),
        # Time in run_experiment outside the scheme calls: population and
        # config building, plus aggregation.
        ("harness.self_ms", "harness.run_experiment",
         ms("harness.run_experiment") - ms("harness.scheme"), "ms"),
        ("harness.derive_config.ms", "harness.derive_config",
         ms("harness.derive_config"), "ms"),
        ("trace.reps", "harness.scheme", calls("harness.scheme"), "count"),
    ]
    absent = absent_spans(tracer)
    metrics = {name: (value, unit) for name, span, value, unit in rows
               if span not in absent}
    return metrics, absent


def crosschecks(tracer):
    """Traced counts against the same counts derived from the scheme runs
    the harness dispatched: name -> (traced, expected)."""
    runs = tracer.scheme_runs
    hsrc = [(p, c) for s, p, c in runs if s.startswith("hsrc")]
    trials = sum(tracer.parents[(name, "hsrc.run_hsrc")]
                 for name in ("three_stage.trial", "two_stage.trial"))
    draws = 0
    for scheme, population, config in runs:
        nodes = sum(population.n)
        if scheme.startswith("hsrc") or scheme == "txsrcs":
            draws += (config.m_prime + 1) * nodes
        elif scheme.startswith("p2-"):
            draws += nodes
    return {
        "trial-mode calls == m' x HSRC runs": (
            trials, sum(c.m_prime for _p, c in hsrc)),
        "run_hsrc calls == hsrc scheme runs": (
            tracer.span("hsrc.run_hsrc").calls, len(hsrc)),
        "select_phase2 calls == hsrc1/hsrc2 runs": (
            tracer.span("analysis.select_phase2").calls,
            sum(1 for s, _p, _c in runs if s in ("hsrc1", "hsrc2"))),
        "run_srcs calls == T x txsrcs runs": (
            tracer.span("homogeneous.srcs").calls,
            sum(p.T for s, p, _c in runs if s == "txsrcs")),
        "drawn nodes == nodes x draws per scheme": (
            tracer.counts["draw_nodes"], draws),
    }
