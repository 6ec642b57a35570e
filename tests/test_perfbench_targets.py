"""The layer-timing benchmark's wrappers install on this tree.

``perfbench`` wraps public functions and methods by name, and a method
only where the class itself defines it.  Renaming one of them, or moving a
method to a base class, makes every traced benchmark run fail; this test
catches that in the unit suite.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_target_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        from layers import targets
        from tracing import Instrumentation, SpanStore

        inst = Instrumentation(SpanStore(), targets())
        try:
            inst.install()
        finally:
            inst.uninstall()
    finally:
        for name in ("layers", "tracing", "harness"):
            sys.modules.pop(name, None)
