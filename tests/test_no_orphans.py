"""Every public definition in ``src/repro`` has a caller outside the tests.

A definition is public when its name has no leading underscore: module-level
functions and classes, and the methods, properties and nested classes of
module-level classes.  It counts as used when its name appears as an
``ast.Name``, an ``ast.Attribute`` or an exact-match string constant anywhere
under ``src/``, ``perfbench/``, ``benchmarks/`` or ``examples/``, outside its
own definition.  Import lines and ``__all__`` lists are not uses.  Matching is
by bare name, so this errs towards keeping code: a method shares its name
with every other definition of that name.

Names only the tests use are listed in :data:`TEST_ONLY`, with the reason each
one stays.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path
from typing import Iterator, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCOPES = ("src", "perfbench", "benchmarks", "examples")

#: Public names that only tests reference, kept on purpose.
TEST_ONLY = {
    "JobTable.arrival_groups": "eager reference the lazy arrival iterator is tested against",
    "JobRecordsManager.events_for": "tests read one job's event log to check a serve run",
    "JobRecordsManager.record_for": "tests read one job's record to check a serve run",
    "StreamingRecordsManager.events_for": "the streaming manager's side of events_for",
    "StreamingRecordsManager.record_for": "the streaming manager's side of record_for",
    "trace_events": "one-event-per-step reference for the batched event loop",
    "Box.contains": "tests check observations and actions lie in their space",
    "line_graph": "small coupling maps for the region-tracker and calibration tests",
    "ring_graph": "small coupling maps for the region-tracker tests",
    "Module.num_parameters": "tests check the policy network's size",
    "ActorCriticPolicy.parameters_flat": "tests compare trained weights across PPO runs",
    "PPO.load_parameters": "tests load what training saved",
    "mixed_tenant_jobs": "a mixed workload for the end-to-end tests",
}


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every public definition in *tree*."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _uses(tree: ast.AST) -> Counter:
    """How often each name is used in *tree*, ``__all__`` lists excluded."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(child) for child in ast.walk(node))
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses[node.value] += 1
    return uses


@functools.lru_cache(maxsize=None)
def find_orphans() -> Tuple[str, ...]:
    """Public definitions under ``src/repro`` that nothing outside tests uses."""
    uses: Counter = Counter()
    definitions = []
    for scope in SCOPES:
        for path in sorted((ROOT / scope).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            uses.update(_uses(tree))
            if path.is_relative_to(ROOT / "src" / "repro"):
                definitions.extend(
                    (path.relative_to(ROOT), qualname, node)
                    for qualname, node in _definitions(tree)
                )
    orphans = []
    for path, qualname, node in definitions:
        name = qualname.rsplit(".", 1)[-1]
        own = _uses(node)[name]
        if uses[name] - own <= 0:
            orphans.append(f"{path}:{node.lineno} {qualname}")
    return tuple(orphans)


def test_every_public_definition_has_a_caller():
    orphans = [o for o in find_orphans() if o.split(" ", 1)[1] not in TEST_ONLY]
    assert not orphans, "public definitions nothing outside tests/ uses:\n" + "\n".join(orphans)


def test_allowlist_names_only_current_orphans():
    """An allowlisted name that gained a caller (or was deleted) leaves the list."""
    orphaned = {o.split(" ", 1)[1] for o in find_orphans()}
    assert sorted(set(TEST_ONLY) - orphaned) == []
