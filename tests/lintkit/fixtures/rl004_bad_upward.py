"""RL004 fixture: loaded as ``repro.graph.badmod`` in the tests.

Both imports are upward (graph is layer 1): one at module level into
the scheduler, one deferred into the report layer — deferral does not
launder the dependency.
"""

from ..sched.phase2 import asap_list  # finding: graph -> sched


def sneaky():
    from repro.report.tables import format_percent  # finding: graph -> report

    return format_percent, asap_list
