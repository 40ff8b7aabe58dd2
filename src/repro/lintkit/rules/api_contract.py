"""RL010 — API-contract drift on the public facade.

Functions re-exported through the *root* package's ``__all__``
(``repro.synthesize``, ``repro.dfg_assign_repeat``, …) are the
documented entry points.  Their required parameters are the documented
positionals; every parameter *with a default* must be keyword-only, so
that inserting a new option can never silently re-map an existing
positional call site (the bug class keyword-only signatures exist to
kill).  The rule resolves each ``__all__`` entry through re-export
chains to the defining ``def`` and checks the declared signature.
"""

from __future__ import annotations

from typing import Iterator, List

from ..engine import Project
from ..findings import Finding
from ..project import FunctionInfo, ProjectContext
from ..registry import Rule, register

__all__ = ["ApiContractRule"]


def _defaulted_positionals(fn: FunctionInfo) -> List[str]:
    """Positional-capable parameter names that carry defaults."""
    args = fn.node.args
    pos = args.posonlyargs + args.args
    offset = len(pos) - len(args.defaults)
    return [a.arg for a in pos[offset:]]


@register
class ApiContractRule(Rule):
    """Facade functions keyword-only past their positionals."""

    code = "RL010"
    name = "api-contract"
    rationale = (
        "a defaulted positional on a facade function lets a new option "
        "silently re-map existing call sites"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        ctx = ProjectContext.of(project)
        by_name = project.by_name()
        yield from self._check_facades(ctx, by_name)

    def _check_facades(self, ctx: ProjectContext, by_name) -> Iterator[Finding]:
        for symbols in ctx.symbols.values():
            if "." in symbols.module:
                continue  # only the root package facade
            if not symbols.info.is_package or symbols.exports is None:
                continue
            for export in sorted(symbols.exports):
                resolved = ctx.resolve_name(symbols.module, export)
                if resolved is None or resolved[0] != "function":
                    continue
                fn = resolved[1]
                assert isinstance(fn, FunctionInfo)
                defaulted = _defaulted_positionals(fn)
                if not defaulted:
                    continue
                mod = by_name.get(fn.id.module)
                if mod is None:
                    continue
                listed = ", ".join(f"'{n}'" for n in defaulted)
                yield mod.finding(
                    self.code,
                    fn.node,
                    f"facade function '{export}' (re-exported in "
                    f"{symbols.module}.__all__) has defaulted parameters "
                    f"that are not keyword-only: {listed} — insert '*' "
                    "before them",
                )
