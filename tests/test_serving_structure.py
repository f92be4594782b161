"""Structural guards on the serving stack.

One batch-decision kernel: in the serving packages no code calls
``solve_batch`` directly — every batch is decided by the degradation
ladder inside the cycle engine — and exactly one module commits batch
decisions.  The expression-layer oracle switch (``fast_path``) stays in
``repro.core``: no serving, resilience or durability function takes it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).parent
_SERVING = ("service", "gateway", "shard")
_NO_ORACLE_SWITCH = _SERVING + ("resilience", "state")


def _modules(packages):
    for package in packages:
        yield from sorted((_SRC / package).glob("*.py"))


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(path: Path, name: str) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == name
    ]


@pytest.mark.parametrize(
    "path", list(_modules(_NO_ORACLE_SWITCH)), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_function_takes_fast_path(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [
        f"{node.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
        if arg.arg == "fast_path"
    ]
    assert not offenders, f"{path.name} takes fast_path: {offenders}"


@pytest.mark.parametrize(
    "path", list(_modules(_SERVING)), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_serving_code_never_calls_solve_batch(path):
    assert not _calls(path, "solve_batch"), (
        f"{path.name} calls solve_batch; decide through CycleEngine's ladder"
    )


def test_one_engine_commits_batch_decisions():
    sites = {
        f"{path.parent.name}/{path.name}": lines
        for path in _modules(_SERVING)
        if (lines := _calls(path, "commit_decision"))
    }
    assert list(sites) == ["service/broker.py"]
    assert len(sites["service/broker.py"]) == 1
