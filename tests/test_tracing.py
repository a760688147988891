"""The per-layer tracing targets of bench/tracing.py name live code, so a
renamed entry point fails here instead of silently dropping its span."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                       "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for target, _name, _hook, _around in module.TARGETS]


@pytest.mark.parametrize("target", _targets())
def test_target_resolves(target):
    module_name, _, attr = target.rpartition(":")
    module = importlib.import_module(module_name)
    owner, _, member = attr.partition(".")
    if member:
        assert member in vars(getattr(module, owner))
    else:
        assert callable(getattr(module, attr, None))
