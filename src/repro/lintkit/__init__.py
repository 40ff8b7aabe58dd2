"""lintkit — AST-based invariant linter for the :mod:`repro` package.

A self-contained static-analysis subsystem: every module under
``src/repro`` is parsed with :mod:`ast` and checked against a registry
of repo-specific rules, each grounded in a bug class this codebase has
actually hit (see ``docs/static-analysis.md`` for the catalog):

* **RL001** exception taxonomy — library ``raise`` sites must construct
  a :class:`~repro.errors.ReproError` subclass (or re-raise);
* **RL002** float equality — no ``==``/``!=`` against float literals or
  cost expressions in the numeric layers;
* **RL003** public-API sync — ``__all__`` entries resolve and package
  re-exports are listed;
* **RL004** import layering — the package DAG
  ``graph → fu → assign → sched/retiming → sim/suite → report/cli/verify``
  admits no upward or cyclic imports;
* **RL005** side-effect hygiene — no stdout writes and no
  assert-as-validation in library modules;
* **RL006** seeded-generator discipline — no stdlib ``random`` or
  global ``np.random.<fn>`` state in the numeric layers; stochastic
  code takes an explicit seeded ``numpy.random.Generator``.

Four rules run on the *whole tree* through the two-pass analysis core
(per-module symbol tables → conservative call graph; see
:mod:`repro.lintkit.project` and :mod:`repro.lintkit.callgraph`):

* **RL007** spawn-safety — callables shipped to ``engine.pmap`` (or a
  pool), including through helper forwarding, must be module-level
  functions; lambdas, closures, and methods bound to locals fail to
  pickle only on the parallel path;
* **RL008** shared-state race — no writes to module-level mutable
  state or class attributes in functions reachable from a pmap
  payload (lost under spawn, racy under fork/threads);
* **RL009** observability hygiene — span/metric names must be static
  literals matching ``repro.obs.OBS_NAME_PATTERN``, and ``span()``
  must be used as a context manager;
* **RL010** API-contract drift — root-facade functions take optional
  knobs keyword-only.

Findings can be suppressed inline (``# lint: ignore[RL002]``) or via a
committed ``lintkit-baseline.toml`` (``--check-baseline`` fails on
stale entries; ``--prune-baseline`` rewrites them away).  Run as
``python -m repro.lintkit [paths]`` or ``repro-hls lint [paths]``;
exit codes are 0 (clean), 1 (findings), 2 (usage error).  ``--format
json`` emits a machine-readable report.
"""

from .api import LintReport, lint_paths
from .baseline import (
    Baseline,
    BaselineEntry,
    format_baseline,
    format_baseline_entries,
    load_baseline,
)
from .callgraph import CallGraph, classify_payload
from .engine import (
    ModuleInfo,
    Project,
    discover,
    module_from_path,
    module_from_source,
    run_rules,
)
from .findings import Finding, render_json, render_text
from .project import FunctionId, FunctionInfo, ModuleSymbols, ProjectContext
from .registry import Rule, all_rules, register, resolve_rules

__all__ = [
    "LintReport",
    "lint_paths",
    "Finding",
    "render_text",
    "render_json",
    "ModuleInfo",
    "Project",
    "ProjectContext",
    "CallGraph",
    "classify_payload",
    "FunctionId",
    "FunctionInfo",
    "ModuleSymbols",
    "discover",
    "module_from_path",
    "module_from_source",
    "run_rules",
    "Rule",
    "register",
    "all_rules",
    "resolve_rules",
    "Baseline",
    "BaselineEntry",
    "load_baseline",
    "format_baseline",
    "format_baseline_entries",
]
