"""RL010 fixture: facade drift (loaded as ``repro.impl``)."""


def run_flow(dfg, table, deadline=100, algorithm=None):
    # defaulted positionals on a root-facade export
    return (dfg, table, deadline, algorithm)


def helper(a, b=0):
    # not re-exported through the root facade: out of RL010's scope
    return (a, b)
