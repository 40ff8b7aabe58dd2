"""DSP benchmark DFGs: the paper's six graphs plus extras and generators."""

from .dct import dct8
from .diffeq import differential_equation_solver
from .elliptic import elliptic_filter
from .extras import fft_butterfly, fir_filter, iir_biquad_cascade
from .lattice import lattice_filter
from .paper_example import (
    PAPER_EXAMPLE_DEADLINE,
    paper_example_dfg,
    paper_example_table,
    paper_path_example,
    paper_tree_example,
)
from .registry import BENCHMARKS, PAPER_BENCHMARKS, benchmark_names, get_benchmark
from .rls_laguerre import rls_laguerre_filter
from .synthetic import layered_dag, random_dag, random_path, random_tree
from .volterra import volterra_filter

__all__ = [
    "dct8",
    "lattice_filter",
    "volterra_filter",
    "differential_equation_solver",
    "elliptic_filter",
    "rls_laguerre_filter",
    "fir_filter",
    "iir_biquad_cascade",
    "fft_butterfly",
    "random_dag",
    "random_tree",
    "random_path",
    "layered_dag",
    "paper_example_dfg",
    "paper_example_table",
    "paper_path_example",
    "paper_tree_example",
    "PAPER_EXAMPLE_DEADLINE",
    "BENCHMARKS",
    "PAPER_BENCHMARKS",
    "get_benchmark",
    "benchmark_names",
]
