"""Every layer the benchmark tracer wraps still exists under its name.

A renamed or deleted target otherwise shows up only when a traced benchmark
run reaches ``Tracer.install``, as an AttributeError.  A method target must
also be defined by its own class: ``Tracer.install`` patches only
``vars(owner)``, so an inherited method is never wrapped and its metric
silently reads 0."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for metric, (module_name, path) in tracer.TARGETS.items():
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{metric}: {module_name}.{path}")
    assert not missing, f"tracer targets that no longer resolve: {', '.join(missing)}"


def test_tracer_method_targets_are_defined_by_their_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    inherited = []
    for metric, (module_name, path) in tracer.TARGETS.items():
        *owner_path, name = path.split(".")
        if not owner_path:
            continue
        owner = importlib.import_module(module_name)
        for attr in owner_path:
            owner = getattr(owner, attr)
        if name not in vars(owner):
            inherited.append(f"{metric}: {module_name}.{path}")
    assert not inherited, f"method targets the tracer cannot patch: {', '.join(inherited)}"
