"""Finding record and the text/JSON renderers used by the CLI."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = ["Finding", "render_text", "render_json"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` holds the stripped source line; it doubles as the
    line-number-independent fingerprint the baseline matches against,
    so findings stay suppressed when unrelated edits shift code around.
    """

    module: str  #: dotted module name, e.g. ``repro.assign.frontier``
    path: str  #: file path as discovered (display + baseline matching)
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    code: str  #: rule code, e.g. ``RL002``
    message: str  #: human-readable explanation
    snippet: str = ""  #: stripped source line at ``line``

    def sort_key(self) -> tuple:
        """Stable ordering: by file, then position, then rule."""
        return (self.path, self.line, self.col, self.code, self.message)

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity hash of this finding.

        Derived from the same ``(code, module, snippet)`` triple the
        baseline matches on, so it survives unrelated edits that shift
        code around; exposed in the JSON report for external diffing
        tools.
        """
        digest = hashlib.sha256(
            f"{self.code}|{self.module}|{self.snippet}".encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (``--format json``)."""
        return {
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


def render_text(findings: Sequence[Finding]) -> str:
    """GCC-style one-line-per-finding report plus a summary line."""
    lines: List[str] = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.code} {f.message}"
        for f in sorted(findings, key=Finding.sort_key)
    ]
    n = len(findings)
    lines.append(f"{n} finding{'s' if n != 1 else ''}")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    *,
    suppressed_inline: int = 0,
    suppressed_baseline: int = 0,
    unused_baseline: Sequence[str] = (),
) -> str:
    """Machine-readable report for tooling (``--format json``)."""
    payload = {
        "findings": [
            f.to_dict() for f in sorted(findings, key=Finding.sort_key)
        ],
        "count": len(findings),
        "suppressed_inline": suppressed_inline,
        "suppressed_baseline": suppressed_baseline,
        "unused_baseline": list(unused_baseline),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
