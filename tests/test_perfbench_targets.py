"""Every span target of the end-to-end benchmark still resolves.

``perfbench/tracer.py`` records per-layer spans by wrapping the program
entry points named in its ``SPANS`` table.  A target that no longer
exists patches zero sites without any error, so a rename would silently
drop that layer from the benchmark.  This test loads the tracer module
from its file (read-only: nothing is patched) and asserts that each
``"module:target"`` entry names a callable the program still has.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

TARGETS = [
    (name, target) for name, targets in tracer.SPANS.items() for target in targets
]

#: Targets the program removed on purpose while the tracer still lists
#: them (the tracer changes only together with the benchmark).  Each
#: must stay gone, and its layer must keep at least one live target.
RETIRED = {
    "repro.core.engine.stacked:StackedEngine.measure_positions": (
        "folded into StackedEngine.measure_placements"
    ),
}


@pytest.mark.parametrize(
    "name,target", TARGETS, ids=[target for _, target in TARGETS]
)
def test_span_target_resolves(name, target):
    if target in RETIRED:
        with pytest.raises(AssertionError):
            assert_resolves(name, target)
        live = [t for t in tracer.SPANS[name] if t not in RETIRED]
        assert live, f"{name}: every target is retired"
        for other in live:
            assert_resolves(name, other)
        return
    assert_resolves(name, target)


def assert_resolves(name, target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        assert callable(getattr(module, attr, None)), f"{name}: {target} is gone"
        return
    owner = getattr(module, owner_name, None)
    assert isinstance(owner, type), f"{name}: class of {target} is gone"
    # The tracer patches the class and every subclass that defines the
    # method itself, so one defining class is enough for a live span.
    defining = [k for k in tracer._subclasses(owner) if attr in vars(k)]
    assert defining, f"{name}: no class defines {target}"
    assert all(callable(getattr(k, attr)) for k in defining)
