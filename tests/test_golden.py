"""The benchmark's golden passes reproduce the CSV digests committed in
bench/golden.json, so a change that moves any simulated number fails here
and not only in the benchmark report."""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from hetcount.harness import format_csv

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_pass_digest(name):
    wl = WORKLOADS.WORKLOADS[name]
    rows = wl.run(WORKLOADS.GOLDEN_SEED, wl.golden_reps)
    digest = hashlib.sha256(format_csv(rows).encode()).hexdigest()
    assert digest == GOLDEN[name]
