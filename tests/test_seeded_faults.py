"""Seeded faults: one-line changes to the package that the comparison of its
independent routes must catch on its own.

Each fault is (name, file, exact old text, new text).  The old text must
occur once in its file under src/heckeperiods; the fault is applied to a
temporary copy of the package, and `crosscheck --grid small` (closed form
against the case-sum oracle, and both trace routes, on 90 contexts) must
report a mismatch in a subprocess.  These are the "route" faults: the
comparison flags them with no anchor value.  Faults in code that both
routes read (the quadruple enumeration, the period and trace constants)
and in case 6, whose class total is zero, pass the comparison and are
caught by the anchored tests instead; they are not listed here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckeperiods"

FAULTS = [
    # the closed form without the chi(-1) rotation of G_n(-X)
    ("M5", "periods.py",
     "own, mirrored = quads[e], quads[(e - turn) % order]",
     "own, mirrored = quads[e], quads[e]"),
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
    # the trace's double sum read from G~_n at +X, not -X
    ("trace (-1)^i", "traces.py",
     "sign = (-1) ** (m + 1) * (-1) ** mt * den",
     "sign = (-1) ** (m + 1) * den"),
    # the closed form's G_n coefficients all over D^w, not D^(w-i)
    ("closed form D^(w-i)", "periods.py",
     "scales = [den // d ** (w - i) for i in range(w + 1)]\n    quads",
     "scales = [den // d**w for i in range(w + 1)]\n    quads"),
    # case 5's coefficients all over D^w, not D^(w-i)
    ("case 5 D^(w-i)", "periods.py",
     "five_scales = [den // d ** (w - i) for i in range(w + 1)]",
     "five_scales = [den // d**w for i in range(w + 1)]"),
]


def _crosscheck(package: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "heckeperiods.cli", "crosscheck", "--grid", "small"],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _copy(tmp_path: Path, name: str) -> Path:
    target = tmp_path / name / "heckeperiods"
    shutil.copytree(PACKAGE, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


@pytest.mark.parametrize("fault", FAULTS, ids=[fault[0] for fault in FAULTS])
def test_each_fault_changes_text_that_occurs_once(fault):
    _, file, old, new = fault
    assert old != new
    assert (PACKAGE / file).read_text().count(old) == 1


def test_the_unchanged_copy_passes_the_small_crosscheck(tmp_path):
    run = _crosscheck(_copy(tmp_path, "unchanged"))
    assert run.returncode == 0 and run.stdout.startswith("ALL EQUAL"), run.stdout + run.stderr


def test_the_small_crosscheck_flags_every_route_fault(tmp_path):
    missed = []
    for index, (name, file, old, new) in enumerate(FAULTS):
        package = _copy(tmp_path, str(index))
        path = package / file
        path.write_text(path.read_text().replace(old, new))
        run = _crosscheck(package)
        if run.returncode != 1 or not run.stdout.startswith("MISMATCH"):
            missed.append((name, run.returncode, run.stdout[:200], run.stderr[-200:]))
    assert not missed, missed
