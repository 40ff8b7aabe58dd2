"""RL004 — import layering.

The package is a DAG of layers::

    errors → graph → fu/engine → io/assign → sched/retiming
           → sim/suite/synthesis → report/cli/verify/lintkit/checkkit/serve
           → __main__/root

An import from a lower layer into a higher one ("upward") couples the
substrate to its consumers — precisely how ``graph/analysis.py`` once
grew a hidden dependency on the scheduler.  Deferred (function-level)
imports count: they still create the coupling, just later.  Module
import cycles are reported as their own finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import resolve_import
from ..engine import ModuleInfo, Project
from ..findings import Finding
from ..registry import Rule, register

__all__ = ["ImportLayeringRule", "LAYERS", "segment", "layer_of"]

#: Layer index per top-level segment of the ``repro`` package.  Imports
#: must never target a strictly higher layer.
LAYERS: Dict[str, int] = {
    "errors": 0,
    "obs": 0,
    "graph": 1,
    "fu": 2,
    "engine": 2,
    "io": 3,
    "assign": 3,
    "sched": 4,
    "retiming": 4,
    "sim": 5,
    "suite": 5,
    "synthesis": 5,
    "verify": 6,
    "report": 6,
    "cli": 6,
    "lintkit": 6,
    "checkkit": 6,
    "serve": 6,
    "__main__": 7,
    "<root>": 7,
}

_ROOT_PACKAGE = "repro"


def segment(module: str) -> Optional[str]:
    """Layer segment of a dotted module name (``None`` if foreign)."""
    parts = module.split(".")
    if parts[0] != _ROOT_PACKAGE:
        return None
    if len(parts) == 1:
        return "<root>"
    return parts[1]


def layer_of(module: str) -> Optional[int]:
    """Layer index of a module, ``None`` when unmapped/foreign."""
    seg = segment(module)
    if seg is None:
        return None
    return LAYERS.get(seg)


def _import_edges(
    mod: ModuleInfo,
) -> Iterator[Tuple[str, ast.stmt]]:
    """Absolute in-package import targets of one module."""
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in resolve_import(mod.module, mod.is_package, node):
                if target.split(".")[0] == _ROOT_PACKAGE:
                    yield target, node


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan SCC (iterative); returns components of size > 1."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(graph.get(node, ()))
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                comp: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                if len(comp) > 1 or node in graph.get(node, ()):
                    components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


@register
class ImportLayeringRule(Rule):
    """Enforce the package layering DAG; report upward/cyclic imports."""

    code = "RL004"
    name = "import-layering"
    rationale = (
        "upward imports couple the substrate to its consumers; the "
        "layer DAG keeps graph/fu/assign reusable in isolation"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        scanned = set(project.by_name())
        module_graph: Dict[str, Set[str]] = {m.module: set() for m in project.modules}
        for mod in project.modules:
            my_layer = layer_of(mod.module)
            my_seg = segment(mod.module)
            for target, node in _import_edges(mod):
                # resolve to a scanned module for cycle detection
                resolved = target
                while resolved and resolved not in scanned:
                    resolved = resolved.rpartition(".")[0]
                if resolved and resolved != mod.module:
                    module_graph[mod.module].add(resolved)
                target_layer = layer_of(target)
                target_seg = segment(target)
                if target_seg is not None and target_layer is None:
                    yield mod.finding(
                        self.code,
                        node,
                        f"import of {target} hits segment "
                        f"{target_seg!r}, which is not mapped to a "
                        f"layer (update LAYERS in lintkit)",
                    )
                    continue
                if my_layer is None or target_layer is None:
                    continue
                if my_layer < target_layer:
                    yield mod.finding(
                        self.code,
                        node,
                        f"upward import: {my_seg} (layer {my_layer}) "
                        f"may not import {target_seg} (layer "
                        f"{target_layer})",
                    )
        by_name = project.by_name()
        for comp in _strongly_connected(module_graph):
            anchor = by_name[comp[0]]
            cycle = " -> ".join(comp + [comp[0]])
            yield anchor.finding(
                self.code,
                anchor.tree,
                f"import cycle: {cycle}",
            )
