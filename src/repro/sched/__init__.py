"""Phase 2 — minimum-resource scheduling and configuration synthesis."""

from .force_directed import force_directed_schedule
from .heft import heft_schedule, upward_ranks
from .ilp_model import SchedulingILP, build_schedule_ilp, check_schedule_solution
from .lower_bound import lower_bound_configuration
from .min_resource import list_schedule, min_resource_schedule
from .registers import (
    Lifetime,
    RegisterAllocation,
    allocate_registers,
    value_lifetimes,
)
from .schedule import Configuration, Schedule, ScheduledOp

__all__ = [
    "SchedulingILP",
    "build_schedule_ilp",
    "check_schedule_solution",
    "Lifetime",
    "RegisterAllocation",
    "allocate_registers",
    "value_lifetimes",
    "force_directed_schedule",
    "heft_schedule",
    "upward_ranks",
    "lower_bound_configuration",
    "min_resource_schedule",
    "list_schedule",
    "Configuration",
    "Schedule",
    "ScheduledOp",
]
