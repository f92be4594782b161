"""Structural guards on the serving stack and the runtime's imports.

One batch-decision kernel: in the serving packages no code calls
``solve_batch`` directly — every batch is decided by the degradation
ladder inside the cycle engine — and exactly one module commits batch
decisions.  One model builder: no function anywhere under ``src/repro``
takes a ``fast_path`` switch, and no runtime module imports the
test-suite's oracles (``tests``) or ``networkx`` (a test-only oracle
dependency).  One durability design: exactly one function opens a
journal for writing, and the shard package never reaches into the
offline decomposition solver.  One broker shell: ``ShardedBroker``
is a ``Broker`` that overrides how cycles are served, not the run
around them, and pooled work enters worker processes through one
function.  One path enumerator: only
``Topology.candidate_paths`` (which memoizes per topology) runs Yen's
algorithm.  One solver path: no runtime module reaches scipy's
``linprog``/``milp`` wrappers; HiGHS is driven by ``repro.lp.solvers``
alone.  One exact rung: no LP screen and no strict mode reach
``solve_batch`` (no ``lp_screen`` or ``accept_feasible`` name in the
online core, MAA, TAA, Metis, the ladder, the broker or the CLI).  One
serving config: the serving packages name no dual-step knob and no
breaker factory (fleets are built from a ``ShardConfig``), and the
partition modes are checked by the partitioner, the decomposition
config and ``ShardConfig`` alone.  One SPM assembly: the online batch
MILP is a view over ``FormulationCompiler`` — ``core/online.py`` builds
no incidence and no COO model of its own, and an ``SPMInstance`` keeps
one compiler.  One price loop: the offline decomposition imports nothing
from the serving or resilience packages, ``DecompConfig`` has three
knobs, and ``CycleBudget`` splits no slice into shares.  One Metis solve
path: certified reuse is always on, so ``Metis``, ``solve_maa``,
``solve_taa`` and ``ResolveSession`` take no reuse switch and no
relaxation time limit.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.core.maa import solve_maa
from repro.core.metis import Metis
from repro.core.taa import solve_taa
from repro.lp.warmstart import ResolveSession

_SRC = Path(repro.__file__).parent
_SERVING = ("service", "gateway", "shard")
_ALL_MODULES = sorted(_SRC.rglob("*.py"))
_TEST_ONLY_IMPORTS = ("tests", "networkx")


def _modules(packages):
    for package in packages:
        yield from sorted((_SRC / package).glob("*.py"))


def _imported_roots(path: Path) -> set[str]:
    """Top-level package of every absolute import in ``path``."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def _imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports, and every ``module.name`` it imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    return imported


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
    "path", _ALL_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
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
    "path", _ALL_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_runtime_never_imports_test_only_code(path):
    found = _imported_roots(path) & set(_TEST_ONLY_IMPORTS)
    assert not found, f"{path.name} imports {sorted(found)}"


@pytest.mark.parametrize(
    "path", list(_modules(_SERVING)), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_serving_code_never_calls_solve_batch(path):
    assert not _calls(path, "solve_batch"), (
        f"{path.name} calls solve_batch; decide through CycleEngine's ladder"
    )


def _names(path: Path) -> list[tuple[str, int]]:
    """Every name, attribute, parameter and keyword in ``path``, with its line."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
        elif isinstance(node, ast.arg):
            names.append((node.arg, node.lineno))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.append((node.arg, node.value.lineno))
    return names


_EXACT_RUNG_MODULES = [
    _SRC / "core" / "online.py",
    _SRC / "core" / "maa.py",
    _SRC / "core" / "taa.py",
    _SRC / "core" / "metis.py",
    *_modules(("resilience", "service")),
    _SRC / "experiments" / "cli.py",
]
_RETIRED_NAMES = {"lp_screen", "accept_feasible"}


@pytest.mark.parametrize(
    "path", _EXACT_RUNG_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_exact_rung_has_one_path(path):
    offenders = [
        f"{name}:{line}" for name, line in _names(path) if name in _RETIRED_NAMES
    ]
    assert not offenders, (
        f"{path.name} uses {offenders}; solve_batch has one exact path"
    )


_RETIRED_SERVING_KNOBS = {"step0", "decay", "make_breaker"}


@pytest.mark.parametrize(
    "path", list(_modules(_SERVING)), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_serving_fleets_are_built_from_their_config(path):
    offenders = [
        f"{name}:{line}"
        for name, line in _names(path)
        if name in _RETIRED_SERVING_KNOBS
    ]
    assert not offenders, (
        f"{path.name} uses {offenders}; a fleet takes its ShardConfig whole"
    )


def test_partition_modes_are_checked_in_one_place_per_config():
    readers = sorted(
        str(path.relative_to(_SRC))
        for path in _ALL_MODULES
        if any(name == "PARTITION_MODES" for name, _ in _names(path))
    )
    assert readers == [
        "decomp/partition.py",
        "decomp/solver.py",
        "shard/broker.py",
    ]


def test_one_engine_commits_batch_decisions():
    sites = {
        f"{path.parent.name}/{path.name}": lines
        for path in _modules(_SERVING)
        if (lines := _calls(path, "commit_decision"))
    }
    assert list(sites) == ["service/broker.py"]
    assert len(sites["service/broker.py"]) == 1


def _journal_open_callers() -> list[str]:
    """Every ``src/`` function whose body calls ``Journal.open``."""
    callers = []
    for path in _ALL_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "open"
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "Journal"
                ):
                    callers.append(f"{path.parent.name}/{path.name}:{node.name}")
    return callers


def test_one_function_opens_the_journal():
    assert _journal_open_callers() == ["service/broker.py:open_state"]


def _class_def(path: Path, name: str) -> ast.ClassDef:
    tree = ast.parse(path.read_text(), filename=str(path))
    [node] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    return node


def test_sharded_broker_is_a_broker_shell():
    node = _class_def(_SRC / "shard" / "broker.py", "ShardedBroker")
    assert [ast.unparse(base) for base in node.bases] == ["Broker"]
    defined = {
        item.name
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    shell = {"__init__", "run", "request_stop", "stop_requested", "with_config"}
    assert not defined & shell, f"ShardedBroker redefines {sorted(defined & shell)}"


def test_one_pool_entry_point():
    handed = set()
    for path in _modules(("service", "shard")):
        if path.name == "pool.py":
            continue  # the pool forwards what it is handed
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("imap", "submit")
                and node.args
            ):
                handed.add(ast.unparse(node.args[0]))
    assert handed == {"serve_pooled_job"}


def test_only_candidate_paths_runs_yen():
    callers = []
    for path in _ALL_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and _called_name(call) == "k_shortest_paths"
                for call in ast.walk(node)
            ):
                callers.append(f"{path.parent.name}/{path.name}:{node.name}")
    assert callers == ["net/topology.py:candidate_paths"]


@pytest.mark.parametrize(
    "path", list(_modules(("shard",))), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_shard_never_imports_the_decomposition_solver(path):
    assert not {
        name
        for name in _imported_modules(path)
        if name.startswith("repro.decomp.solver")
    }, f"{path.name} imports repro.decomp.solver"


@pytest.mark.parametrize(
    "path", list(_modules(("decomp",))), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_decomposition_never_imports_serving_or_resilience(path):
    offenders = sorted(
        name
        for name in _imported_modules(path)
        if name.startswith(("repro.service", "repro.resilience"))
    )
    assert not offenders, f"{path.name} imports {offenders}"


def test_decomp_config_has_three_knobs():
    node = _class_def(_SRC / "decomp" / "solver.py", "DecompConfig")
    fields = [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert fields == ["num_shards", "mode", "max_rounds"]


@pytest.mark.parametrize(
    "function, parameters",
    [
        (
            Metis.__init__,
            ["self", "theta", "limiter", "maa_rounds", "local_search", "prune"],
        ),
        (solve_maa, ["instance", "rng"]),
        (solve_taa, ["instance", "capacities", "fallback_mu", "augment"]),
        (ResolveSession.__init__, ["self"]),
        (ResolveSession.solve, ["self", "compiled"]),
    ],
    ids=lambda value: value.__qualname__ if callable(value) else "",
)
def test_metis_solve_path_has_no_reuse_or_limit_knob(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def test_cycle_budget_splits_no_shares():
    offenders = [
        line
        for name, line in _names(_SRC / "resilience" / "budget.py")
        if name == "shares"
    ]
    assert not offenders, f"budget.py names shares on lines {offenders}"


_SCIPY_LP_WRAPPERS = ("linprog", "milp")


@pytest.mark.parametrize(
    "path", _ALL_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_runtime_never_reaches_scipys_lp_wrappers(path):
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in _SCIPY_LP_WRAPPERS:
            offenders.append(f"{node.attr}:{node.lineno}")
        elif isinstance(node, ast.Name) and node.id in _SCIPY_LP_WRAPPERS:
            offenders.append(f"{node.id}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "scipy.optimize"
        ):
            offenders += [
                f"import {alias.name}:{node.lineno}"
                for alias in node.names
                if alias.name in _SCIPY_LP_WRAPPERS
            ]
    assert not offenders, (
        f"{path.name} reaches scipy's LP wrappers {offenders}; "
        "solve through repro.lp.solvers"
    )


def test_only_the_driver_imports_the_highs_bindings():
    importers = sorted(
        str(path.relative_to(_SRC))
        for path in _ALL_MODULES
        if any(
            isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("scipy.optimize._highspy")
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert importers == ["lp/solvers.py"]


#: What an incidence layout or a COO assembly is built from.
_INCIDENCE_BUILDERS = {"compile_coo", "unique", "repeat", "tile", "argsort", "cumsum"}


def test_online_batch_milp_builds_no_incidence_of_its_own():
    online = _SRC / "core" / "online.py"
    assert "repro.lp.fastbuild" not in {
        node.module
        for node in ast.walk(ast.parse(online.read_text()))
        if isinstance(node, ast.ImportFrom)
    }, "online.py assembles a COO model of its own"
    node = _class_def(online, "IncrementalBatchCompiler")
    calls = {
        _called_name(call) for call in ast.walk(node) if isinstance(call, ast.Call)
    }
    assert not calls & _INCIDENCE_BUILDERS, sorted(calls & _INCIDENCE_BUILDERS)
    stored = {
        target.attr
        for item in ast.walk(node)
        if isinstance(item, ast.Assign)
        for target in item.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    }
    assert stored == {"_compiler"}


def test_an_instance_keeps_one_compiler():
    node = _class_def(_SRC / "core" / "instance.py", "SPMInstance")
    slots = {
        item.attr
        for item in ast.walk(node)
        if isinstance(item, ast.Attribute)
        and isinstance(item.ctx, ast.Store)
        and item.attr.startswith("_")
    }
    assert slots == {"_fastform"}
