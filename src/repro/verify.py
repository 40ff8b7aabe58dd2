"""Cross-validation of an entire synthesis run.

:func:`certify` runs the full algorithm portfolio on one instance and
checks every internal consistency relation this reproduction relies
on — the machine version of "did everything agree where theory says it
must".  Used by the CLI's ``verify`` command and by the integration
tests as a single high-level oracle.

The relations themselves live in the :mod:`repro.checkkit.oracles`
registry (one named :class:`~repro.checkkit.oracles.Oracle` each);
this module is the thin historical facade over the certify chain:

* all results are feasible and `AssignResult.verify`-clean;
* ``exact == brute force`` (small graphs);
* ``tree/path DP == exact`` on forests/paths;
* ``once, repeat, greedy, downgrade ≥ exact``; ``repeat ≤ once``
  (shared expansion);
* the ILP model accepts every produced assignment at its own cost;
* both schedulers return valid schedules within the deadline, at or
  above `Lower_Bound_R`;
* replaying each schedule computes the reference simulation's values.

The fuzz runner (``repro-hls fuzz``) evaluates the same registry plus
the engine/batched/incremental differential oracles on thousands of
generated instances — see ``docs/testing.md``.
"""

from __future__ import annotations

from .checkkit.oracles import (
    BRUTE_FORCE_LIMIT,
    CERTIFY_CHAIN,
    Certificate,
    run_oracles,
)
from .fu.table import TimeCostTable
from .graph.dfg import DFG

__all__ = ["BRUTE_FORCE_LIMIT", "Certificate", "certify"]


def certify(dfg: DFG, table: TimeCostTable, deadline: int) -> Certificate:
    """Run the portfolio and verify every cross-algorithm relation.

    Raises :class:`~repro.errors.CheckError` (or the offending check's
    own error) on the first violated relation; returns a
    :class:`Certificate` otherwise.
    """
    return run_oracles(dfg, table, deadline, names=CERTIFY_CHAIN)
