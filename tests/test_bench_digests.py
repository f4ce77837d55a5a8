"""One benchmark unit per BLAS-heavy workload keeps its recorded digest.

``bench/expected.json`` records, per workload and seed, the sha256 of a unit's
log (train-mid, sweep-desk) or final parameters (shard-large). The preset
hashes checked in ``test_golden.py`` cover the default desk-size configs;
these units cover the large tall, wide and square matrices that
Newton-Schulz and ``step_all`` work on, and sweep-desk's 36 cells of 8x6
steps at another seed, where a step's layouts and call counts show.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["shard-large", "sweep-desk", "train-mid"])
def test_unit_digest_matches_expected(workloads, tmp_path, name):
    expected = json.loads((BENCH / "expected.json").read_text())["workload_log_sha256"]
    unit = workloads.WORKLOADS[name](1, str(tmp_path)).unit()
    assert unit.problems == []
    assert unit.digest == expected[name]["1"]


def test_train_mid_digest_through_the_metrics_worker(workloads, tmp_path, monkeypatch):
    # at two workers a forked child trains the steps and this process takes
    # them and computes the per-step metrics
    monkeypatch.setattr(workloads.optimizers, "_workers", lambda: 2)
    expected = json.loads((BENCH / "expected.json").read_text())["workload_log_sha256"]
    unit = workloads.WORKLOADS["train-mid"](1, str(tmp_path)).unit()
    assert unit.problems == []
    assert unit.digest == expected["train-mid"]["1"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
