"""The benchmark's default-seed outputs, pinned: one checked pass of each
perfbench workload must fail no case and hash to perfbench/digests.json.
Every library function the benchmark's tracer wraps must exist."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load("run")
WORKLOADS = _load("workloads").WORKLOADS
STORED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_pass_matches_the_stored_digest(name):
    wl = WORKLOADS[name]
    one_pass = RUN.Pass(wl, wl.build(random.Random(STORED["seed"])))
    one_pass.run()
    assert one_pass.failed == 0, one_pass.bad
    assert one_pass.digest() == STORED["digests"][name]


def test_every_traced_function_resolves_to_a_library_callable():
    # A traced function that was deleted or renamed fails here, not only in
    # a later traced benchmark run.
    for module, attr in _load("tracing").FUNCTIONS.values():
        assert module.startswith("polyaut.")
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
