"""Seeded faults: one-line changes to the package, each marked by what
must catch it.

Each fault is (name, file, exact old text, new text).  The old text must
occur once in its file under src/heckeperiods; the fault is applied to a
temporary copy of the package, and `crosscheck --grid small` (closed form
against the case-sum oracle, and both trace routes, on 90 contexts) runs on
it in a subprocess.

* "route" faults (FAULTS): the comparison must report a mismatch on its
  own, with no anchor value.
* "anchor" faults (ANCHORS): the comparison cannot see them, since they sit
  in code that both routes read or in case 6, whose class total is zero.
  The small crosscheck must still print ALL EQUAL, which records the blind
  spot, and the named tier-1 test must fail on the faulted copy.
"""

import contextlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckeperiods"

FAULTS = [
    # the symmetrized G_n without the chi(-1) rotation of G_n(-X)
    ("M5", "periods.py",
     "mirrors = [classes[(e - turn) % order] for e in range(order)]",
     "mirrors = [classes[e] for e in range(order)]"),
    # the symmetrized G_n's mirror with the wrong sign (-1)^(n+i)
    ("G_n mirror sign", "periods.py",
     "signs = [(-1) ** (n - 1 + i) for i in range(w + 1)]",
     "signs = [(-1) ** (n + i) for i in range(w + 1)]"),
    # k*b - ell*d as the oracle's Bezout residue
    ("M8", "periods.py",
     "(k * b0 + ell * d0) % modulus",
     "(k * b0 - ell * d0) % modulus"),
    # the closed form's eps3 term without chi(-1)
    ("M9", "periods.py",
     "terms.append((chi, n + 1, (d**nt, n + 1), chi.value_exponent(-1), (-1, d), True))",
     "terms.append((chi, n + 1, (d**nt, n + 1), 0, (-1, d), True))"),
    # the period route's trace scale with the wrong sign
    ("M11", "traces.py",
     "-(ctx.modulus ** (m + 1)) * scale",
     "(ctx.modulus ** (m + 1)) * scale"),
    # G~_n's term, which both closed forms read: k + cX for k - cX
    ("G~ term", "periods.py",
     "sums[e] += (a * x + ell) ** n * (k - c * x) ** nt",
     "sums[e] += (a * x + ell) ** n * (k + c * x) ** nt"),
    # the trace's double sum read from the symmetrized G~_n at +X, not -X
    ("trace (-1)^i", "traces.py",
     "sign = (-1) ** (m + 1) * (-1) ** mt * den",
     "sign = (-1) ** (m + 1) * den"),
    # the closed form's G_n coefficients all over D^w, not D^(w-i)
    ("closed form D^(w-i)", "periods.py",
     "    scales = [den // d ** (w - i) for i in range(w + 1)]",
     "    scales = [den // d**w for i in range(w + 1)]"),
    # case 5's coefficients all over D^w, not D^(w-i)
    ("case 5 D^(w-i)", "periods.py",
     "five_scales = [den // d ** (w - i) for i in range(w + 1)]",
     "five_scales = [den // d**w for i in range(w + 1)]"),
]

# (name, file, old text, new text, the tier-1 test that must fail on it)
ANCHORS = [
    # M4: the sign of case 6
    ("M4", "periods.py",
     "num = (-1) ** n * (w + 2) * top.denominator",
     "num = (-1) ** (n + 1) * (w + 2) * top.denominator",
     "tests/test_periods.py::test_case_six_and_prime_ratios_match_a_rational_reference"),
    # M12: p^(s+1) for p^s in case 6's prime ratio product
    ("M12", "periods.py",
     "num *= (p**s - 1) * p ** (w + 2 - s)",
     "num *= (p ** (s + 1) - 1) * p ** (w + 2 - s)",
     "tests/test_periods.py::test_case_six_and_prime_ratios_match_a_rational_reference"),
]


def _env(package: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")


def _crosscheck(package: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "heckeperiods.cli", "crosscheck", "--grid", "small"],
        capture_output=True, text=True, env=_env(package), timeout=120,
    )


def _tier1(package: Path, test: str) -> subprocess.Popen:
    """One tier-1 test of this checkout, started against the given package."""
    return subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(package), cwd=ROOT,
    )


def _faulted(tmp_path: Path, name: str, file: str, old: str, new: str) -> Path:
    package = _copy(tmp_path, name)
    path = package / file
    path.write_text(path.read_text().replace(old, new))
    return package


def _copy(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name / "heckeperiods"
    shutil.copytree(PACKAGE, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


@pytest.mark.parametrize("fault", FAULTS + ANCHORS, ids=[fault[0] for fault in FAULTS + ANCHORS])
def test_each_fault_changes_text_that_occurs_once(fault):
    _, file, old, new = fault[:4]
    assert old != new
    assert (PACKAGE / file).read_text().count(old) == 1


def test_the_unchanged_copy_passes_the_small_crosscheck(tmp_path):
    run = _crosscheck(_copy(tmp_path, "unchanged"))
    assert run.returncode == 0 and run.stdout.startswith("ALL EQUAL"), run.stdout + run.stderr


def test_the_small_crosscheck_flags_every_route_fault(tmp_path):
    missed = []
    for index, (name, file, old, new) in enumerate(FAULTS):
        run = _crosscheck(_faulted(tmp_path, str(index), file, old, new))
        if run.returncode != 1 or not run.stdout.startswith("MISMATCH"):
            missed.append((name, run.returncode, run.stdout[:200], run.stderr[-200:]))
    assert not missed, missed


def test_each_anchor_fault_passes_the_crosscheck_and_fails_its_test(tmp_path):
    # the named tests run while the crosschecks do: each is mostly start-up
    packages = [_faulted(tmp_path, f"anchor{index}", *fault[1:4]) for index, fault in enumerate(ANCHORS)]
    wrong = []
    with contextlib.ExitStack() as stack:
        tests = [stack.enter_context(_tier1(package, fault[4])) for package, fault in zip(packages, ANCHORS)]
        for (name, *_), package in zip(ANCHORS, packages):
            run = _crosscheck(package)
            if run.returncode != 0 or not run.stdout.startswith("ALL EQUAL"):
                wrong.append((name, "crosscheck", run.returncode, run.stdout[:200], run.stderr[-200:]))
        for (name, *_, test), process in zip(ANCHORS, tests):
            out, err = process.communicate(timeout=120)
            if process.returncode != 1 or " failed" not in out:
                wrong.append((name, test, process.returncode, out[-300:], err[-200:]))
    assert not wrong, wrong
