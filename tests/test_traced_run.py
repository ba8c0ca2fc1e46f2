"""The benchmark's traced path runs end to end on the current library.

A traced benchmark run wraps the library's layers in every child
(``perfbench/tracer.py``) and merges the children's counts
(``perfbench/run.py`` ``layer_metrics``).  A library change that leaves a
wrapped layer uncalled, or makes a traced child fail, otherwise shows up
only in a full ``--trace 1`` benchmark run.  Here the cheapest context job
of the oracle-grid and high-order rounds runs traced, through the
benchmark's own runner, and its traces are merged."""

import importlib.util
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_context_jobs_merge(tmp_path, monkeypatch):
    # run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, workloads = _load("run"), _load("workloads")
    runner = run.Runner(time.monotonic() + 60, tmp_path)
    for round_ in (workloads.oracle_grid_round(1), workloads.high_order_round(1)):
        job = min(round_, key=lambda job: (job["d"], job["order"], job["w"], len(job["ns"])))
        results = runner.contexts(job)
        assert [r["n"] for r in results] == list(job["ns"])
        unclean = [r for r in results if r["error"] is not None or r["mismatches"] or not r["checks"]]
        assert not unclean, (job, unclean)
    assert len(runner.traces) == 2
    metrics, detail = run.layer_metrics(runner.traces)
    assert detail["processes"] == ["contexts", "contexts"]
    assert metrics["periods.closed_form.calls"] > 0
