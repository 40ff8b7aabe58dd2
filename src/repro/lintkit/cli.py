"""lintkit CLI: ``python -m repro.lintkit`` / ``repro-hls lint``.

Exit codes follow the usual linter convention:

* **0** — clean (possibly via suppressions/baseline),
* **1** — findings (or, under ``--check-baseline``, stale entries),
* **2** — usage error (bad path, unknown rule code, bad baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import LintError
from .api import BASELINE_FILENAME, find_default_baseline, lint_paths
from .baseline import format_baseline, format_baseline_entries, load_baseline
from .findings import render_json, render_text
from .registry import all_rules

__all__ = ["build_parser", "main"]

_DEFAULT_PATHS = ["src/repro"]


def build_parser() -> argparse.ArgumentParser:
    """Argparse parser for the lintkit CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-lintkit",
        description="AST-based invariant linter for the repro package",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {_DEFAULT_PATHS[0]})",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--exclude",
        metavar="PATH",
        action="append",
        default=[],
        help="file or directory to skip (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=f"baseline file (default: nearest {BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather all current findings",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail (exit 1) when the baseline has stale entries",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "rewrite the baseline dropping entries that no longer match "
            "a finding (written reasons are preserved)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def _cmd_list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.code}  {rule.name}")
        print(f"       {rule.rationale}")
    return 0


def _baseline_target(args, paths: List[str]) -> Path:
    if args.baseline:
        return Path(args.baseline)
    found = find_default_baseline(Path(paths[0]))
    return found if found is not None else Path(BASELINE_FILENAME)


def _render(args, report) -> str:
    """Render ``report`` in the requested ``--format``."""
    if args.format == "json":
        return render_json(
            report.findings,
            suppressed_inline=report.suppressed_inline,
            suppressed_baseline=report.suppressed_baseline,
            unused_baseline=[e.describe() for e in report.unused_baseline],
        )
    text = render_text(report.findings)
    if report.suppressed_inline or report.suppressed_baseline:
        text += (
            f"\n(suppressed: {report.suppressed_inline} inline, "
            f"{report.suppressed_baseline} baselined)"
        )
    for entry in report.unused_baseline:
        text += f"\nwarning: unused baseline entry: {entry.describe()}"
    return text


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (0/1/2)."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _cmd_list_rules()
    paths = args.paths or list(_DEFAULT_PATHS)
    try:
        if args.update_baseline:
            report = lint_paths(
                paths,
                select=_split_codes(args.select),
                ignore=_split_codes(args.ignore),
                use_baseline=False,
                exclude=args.exclude,
            )
            target = _baseline_target(args, paths)
            target.write_text(
                format_baseline(report.findings), encoding="utf-8"
            )
            print(
                f"wrote {len(report.findings)} suppression(s) to {target}"
            )
            return 0
        report = lint_paths(
            paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            baseline=args.baseline,
            use_baseline=not args.no_baseline,
            exclude=args.exclude,
        )
        if args.prune_baseline:
            target = _baseline_target(args, paths)
            loaded = load_baseline(target)
            stale = {e.key() for e in report.unused_baseline}
            kept = [e for e in loaded.entries if e.key() not in stale]
            target.write_text(
                format_baseline_entries(kept), encoding="utf-8"
            )
            print(
                f"pruned {len(loaded.entries) - len(kept)} stale "
                f"entry(ies) from {target}; {len(kept)} kept"
            )
            return 0
        rendered = _render(args, report)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n", encoding="utf-8")
        n = len(report.findings)
        print(
            f"wrote {n} finding{'s' if n != 1 else ''} "
            f"({args.format}) to {out}"
        )
    else:
        print(rendered)
    exit_code = report.exit_code
    if args.check_baseline and report.unused_baseline:
        n = len(report.unused_baseline)
        print(
            f"error: {n} stale baseline entry(ies); run --prune-baseline",
            file=sys.stderr,
        )
        exit_code = max(exit_code, 1)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
