"""Programmatic entry point: lint a set of paths, get a report.

This is what both the CLI and the test suite call; it wires discovery,
rule resolution, inline suppressions, and the baseline together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from . import rules as _rules  # noqa: F401  (import registers the catalog)
from .baseline import Baseline, BaselineEntry, load_baseline
from .engine import discover, run_rules
from .findings import Finding
from .registry import resolve_rules

__all__ = ["LintReport", "lint_paths", "find_default_baseline"]

#: Filename probed for when no ``--baseline`` is given.
BASELINE_FILENAME = "lintkit-baseline.toml"


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed_inline: int = 0
    suppressed_baseline: int = 0
    unused_baseline: List[BaselineEntry] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def clean(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 clean, 1 findings."""
        return 0 if self.clean else 1


def find_default_baseline(start: Path) -> Optional[Path]:
    """Locate ``lintkit-baseline.toml`` in ``start`` or an ancestor.

    Walking up from the first scanned path makes the default work from
    any working directory; the search stops at the filesystem root.
    """
    current = start.resolve()
    if current.is_file():
        current = current.parent
    while True:
        candidate = current / BASELINE_FILENAME
        if candidate.is_file():
            return candidate
        if current.parent == current:
            return None
        current = current.parent


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
    use_baseline: bool = True,
    exclude: Sequence[str] = (),
) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    ``baseline`` overrides the auto-discovered baseline file; pass
    ``use_baseline=False`` to lint without any baseline at all.
    ``exclude`` skips files/directories during discovery.
    """
    rules = resolve_rules(select, ignore)
    modules = discover(paths, exclude=exclude)
    findings, suppressed_inline = run_rules(modules, rules)

    loaded: Optional[Baseline] = None
    if use_baseline:
        if baseline is not None:
            loaded = load_baseline(baseline)
        elif paths:
            found = find_default_baseline(Path(paths[0]))
            if found is not None:
                loaded = load_baseline(found)
    suppressed_baseline = 0
    unused: List[BaselineEntry] = []
    if loaded is not None:
        findings, suppressed_baseline, unused = loaded.filter(findings)
    return LintReport(
        findings=findings,
        suppressed_inline=suppressed_inline,
        suppressed_baseline=suppressed_baseline,
        unused_baseline=unused,
        modules_scanned=len(modules),
    )
