"""The benchmark's span tracer still binds every name it wraps.

``perfbench/spans.py`` patches the public calls of each layer at the
names their callers bind (``repro.decomp.solver.solve_compiled_raw``,
``repro.service.broker.run_cycle``, ...).  A refactor that drops or
renames one of those names breaks the traced benchmark passes; this test
installs the tracer and uninstalls it again, so such a refactor fails
here rather than only in the benchmark smoke run.  The tracer is
imported read-only, with ``perfbench/`` on ``sys.path`` as its own
runner puts it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: The perfbench modules importing the tracer loads as top-level names.
_TOP_LEVEL = ("spans", "common")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    saved = {
        name: sys.modules.pop(name) for name in _TOP_LEVEL if name in sys.modules
    }
    try:
        yield importlib.import_module("spans")
    finally:
        for name in _TOP_LEVEL:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_install_wraps_and_uninstall_restores_every_name(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()  # a missing name raises here, mid-install
        patches = list(tracer._patches)  # (owner, attr, original)
        assert patches, "the tracer wrapped nothing"
        unwrapped = [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in patches
            if vars(owner)[attr] is original
        ]
        assert not unwrapped, f"install left {unwrapped} unwrapped"
    finally:
        tracer.uninstall()
    unrestored = [
        f"{owner.__name__}.{attr}"
        for owner, attr, original in patches
        if vars(owner)[attr] is not original
    ]
    assert not unrestored, f"uninstall left {unrestored} wrapped"
