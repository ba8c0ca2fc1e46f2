"""The benchmark's cold-queries round, run in-process.

Each request of a round (perfbench/workloads.py) goes through ``cli.main``
and its stdout is checked by the benchmark's independent oracle
(perfbench/oracles.py).  A change to the library API the oracle uses, or to
an output it reads, fails here rather than only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from heckeperiods import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cold_queries_round_passes_the_oracle(capsys, seed):
    workloads, oracles = _load("workloads"), _load("oracles")
    requests = workloads.cold_queries_round(seed)
    assert workloads.composition_matches("cold-queries", seed)
    oracle = oracles.Oracle(ROOT)
    oracle.prepare(requests)
    failures = []
    for request in requests:
        code = cli.main(request["argv"])
        out = capsys.readouterr().out
        reason = f"exit code {code}" if code else oracle.check(request, out)
        if reason:
            failures.append(f"{' '.join(request['argv'])}: {reason}")
    assert len(requests) == 20
    assert not failures, "\n".join(failures)
