"""Module discovery, parsing, inline suppressions, and the rule runner.

The engine is import-free by design: modules are *parsed*, never
executed, so linting a broken tree (or one with heavy import-time side
effects) is always safe.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import LintError
from .findings import Finding
from .registry import Rule

__all__ = [
    "ModuleInfo",
    "Project",
    "module_from_source",
    "module_from_path",
    "discover",
    "run_rules",
]

#: ``# lint: ignore`` (all rules) or ``# lint: ignore[RL001, RL002]``.
_SUPPRESS_RE = re.compile(
    r"lint:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?"
)


def _extract_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number → suppressed rule codes (``None`` = all rules).

    Comments are located with :mod:`tokenize`, so a ``lint: ignore``
    inside a string literal is not mistaken for a directive.
    """
    out: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            codes = match.group("codes")
            if codes is None:
                out[tok.start[0]] = None
            else:
                parsed = {c.strip().upper() for c in codes.split(",") if c.strip()}
                existing = out.get(tok.start[0], set())
                if existing is None or not parsed:
                    out[tok.start[0]] = None
                else:
                    out[tok.start[0]] = existing | parsed
    except tokenize.TokenError:
        # Tolerate files the tokenizer chokes on; ast.parse already
        # vetted the syntax, so this is unreachable in practice.
        pass
    return out


_UNSET = object()


class ModuleInfo:
    """One parsed source module, ready for rules to inspect."""

    __slots__ = (
        "path",
        "module",
        "is_package",
        "source",
        "tree",
        "_lines",
        "_suppressions",
        "_effective_suppressions",
    )

    def __init__(
        self,
        path: str,
        module: str,
        is_package: bool,
        source: str,
        tree: ast.Module,
    ):
        #: display path (as discovered or as given by the caller)
        self.path = path
        #: dotted module name, e.g. ``repro.assign.frontier``
        self.module = module
        #: True for an ``__init__.py``
        self.is_package = is_package
        self.source = source
        self.tree = tree
        self._lines: Optional[List[str]] = None
        self._suppressions: object = _UNSET
        self._effective_suppressions: object = _UNSET

    @property
    def lines(self) -> List[str]:
        """Source split into lines (memoized)."""
        if self._lines is None:
            self._lines = self.source.splitlines()
        return self._lines

    @property
    def suppressions(self) -> Dict[int, Optional[Set[str]]]:
        """Raw ``# lint: ignore`` directives by comment line (memoized)."""
        if self._suppressions is _UNSET:
            self._suppressions = _extract_suppressions(self.source)
        return self._suppressions  # type: ignore[return-value]

    def line_at(self, lineno: int) -> str:
        """Stripped source text of a 1-based line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            module=self.module,
            path=self.path,
            line=line,
            col=col,
            code=code,
            message=message,
            snippet=self.line_at(line),
        )

    def _suppression_spans(self) -> Dict[int, Optional[Set[str]]]:
        """Directives expanded over multi-line statements.

        A trailing ``# lint: ignore[...]`` anywhere on a multi-line
        statement suppresses findings reported on any line of its
        *smallest* enclosing statement — rules anchor findings at inner
        nodes (a call argument, a comparison) whose ``lineno`` may be a
        different line than the one carrying the comment, and the
        directive should still win.  Using the smallest enclosing span
        keeps a directive inside a function body from silencing the
        whole function.
        """
        if self._effective_suppressions is not _UNSET:
            return self._effective_suppressions  # type: ignore[return-value]
        raw = self.suppressions
        expanded: Dict[int, Optional[Set[str]]] = {
            line: (None if codes is None else set(codes))
            for line, codes in raw.items()
        }
        if raw:
            # smallest statement span containing each directive line
            spans: Dict[int, Tuple[int, int]] = {}
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                start = getattr(node, "lineno", None)
                end = getattr(node, "end_lineno", None)
                if start is None or end is None:
                    continue
                for directive in raw:
                    if not start <= directive <= end:
                        continue
                    best = spans.get(directive)
                    if best is None or (end - start) < (best[1] - best[0]):
                        spans[directive] = (start, end)
            for directive, (start, end) in spans.items():
                codes = raw[directive]
                for line in range(start, end + 1):
                    existing = expanded.get(line, _MISSING)
                    if existing is _MISSING:
                        expanded[line] = None if codes is None else set(codes)
                    elif existing is None or codes is None:
                        expanded[line] = None
                    else:
                        expanded[line] = existing | codes  # type: ignore[operator]
        self._effective_suppressions = expanded
        return expanded

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an inline directive silences ``finding``."""
        codes = self._suppression_spans().get(finding.line, _MISSING)
        if codes is _MISSING:
            return False
        return codes is None or finding.code in codes


_MISSING: Set[str] = set()  # sentinel distinct from an explicit empty set


def module_from_source(
    source: str,
    *,
    module: str,
    path: str = "<memory>",
    is_package: bool = False,
) -> ModuleInfo:
    """Parse ``source`` into a :class:`ModuleInfo`."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from exc
    return ModuleInfo(
        path=path,
        module=module,
        is_package=is_package,
        source=source,
        tree=tree,
    )


def _dotted_name(path: Path) -> Tuple[str, bool]:
    """Infer the dotted module name by walking ``__init__.py`` ancestors."""
    path = path.resolve()
    is_package = path.name == "__init__.py"
    parts: List[str] = [] if is_package else [path.stem]
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    if not parts:
        parts = [path.stem]
    return ".".join(reversed(parts)), is_package


def module_from_path(path: Path, display: Optional[str] = None) -> ModuleInfo:
    """Load and parse one file from disk."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    module, is_package = _dotted_name(path)
    return module_from_source(
        source, module=module, path=display or str(path), is_package=is_package
    )


def discover(
    paths: Sequence[str],
    *,
    exclude: Sequence[str] = (),
) -> List[ModuleInfo]:
    """Collect every ``*.py`` under ``paths`` (files or directories).

    ``exclude`` lists files or directories to skip (compared by resolved
    path, so ``tests/lintkit/fixtures`` works from any cwd).
    """
    excluded: List[Path] = [Path(e).resolve() for e in exclude]

    def is_excluded(resolved: Path) -> bool:
        for ex in excluded:
            if resolved == ex or ex in resolved.parents:
                return True
        return False

    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append(p)
        else:
            raise LintError(f"no such file or directory: {raw}")
    seen: Set[Path] = set()
    modules: List[ModuleInfo] = []
    for f in files:
        key = f.resolve()
        if key in seen or is_excluded(key):
            continue
        seen.add(key)
        modules.append(module_from_path(f, display=str(f)))
    return modules


@dataclass
class Project:
    """The whole scanned tree, for cross-module rules.

    Project-wide rules that need symbol tables, the conservative call
    graph, or reachability queries get them through
    ``ProjectContext.of(project)`` (:mod:`repro.lintkit.project`),
    which builds the two-pass analysis core once per run and memoizes
    it on this object.  The memo lives here; the builder lives there —
    keeping this module free of upward imports into the analysis core.
    """

    modules: List[ModuleInfo]

    def __post_init__(self) -> None:
        self._context: Optional[object] = None

    def by_name(self) -> Dict[str, ModuleInfo]:
        """Index modules by dotted name."""
        return {m.module: m for m in self.modules}


def run_rules(
    modules: Iterable[ModuleInfo],
    rules: Sequence[Rule],
) -> Tuple[List[Finding], int]:
    """Run ``rules`` over ``modules``.

    Returns ``(findings, inline_suppressed_count)`` — findings already
    filtered through ``# lint: ignore`` directives, sorted.
    """
    project = Project(list(modules))
    by_name = project.by_name()
    raw = [
        f
        for mod in project.modules
        for rule in rules
        for f in rule.check_module(mod)
    ]
    raw.extend(f for rule in rules for f in rule.check_project(project))
    findings: List[Finding] = []
    suppressed = 0
    for finding in raw:
        mod = by_name.get(finding.module)
        if mod is not None and mod.is_suppressed(finding):
            suppressed += 1
        else:
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings, suppressed
