"""RL010 fixture: keyword-only facade (no findings)."""


def run_flow(dfg, table, *, deadline=100, algorithm=None):
    return (dfg, table, deadline, algorithm)
