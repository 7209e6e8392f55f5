"""Exact and approximate samplers for margin-constrained discrete structures.

The samplers build their output one binary digit at a time: nonnegative
integer tables with fixed row and column sums are peeled into bit levels,
0/1 tables are filled entry by entry under soft rejection, Latin squares
are assembled from a cascade of 0/1 tables, and integer partitions are
split recursively by part parity.  Small instances come with exact
counting and enumeration oracles so uniformity can be tested directly.
Only the exact table strategies and the partition samplers are uniform; the
approximate strategies and the Latin cascade are biased.
"""

from .binary_sampler import BinaryStrategy, sample_binary_table
from .counting import (
    CountOracle,
    count_binary_tables,
    count_integer_tables,
    enumerate_binary_tables,
    enumerate_integer_tables,
    iter_latin_squares,
    shared_oracle,
)
from .diagnostics import SamplerDiagnostics
from .errors import (
    BitTablesError,
    ConditioningError,
    ContradictionError,
    DeadStateError,
    InfeasibleError,
    OracleLimitError,
)
from .integer_sampler import BitSamplerStrategy, sample_contingency_table
from .latin import LatinSquare, RestartPolicy, enumerate_latin_squares, sample_latin_square
from .partitions import (
    Partition,
    distinct_partition_counts,
    enumerate_partitions,
    partition_counts,
    sample_distinct_partition,
    sample_partition,
)
from .pmf import poisson_binomial_pmf
from .seeding import batch_rng
from .stats import UniformityReport, chi_square_threshold, chi_square_uniformity
from .table import (
    MaskedTable,
    deterministic_fill,
    entries_from_csv,
    entries_to_csv,
    validate_table,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryStrategy",
    "BitSamplerStrategy",
    "BitTablesError",
    "ConditioningError",
    "ContradictionError",
    "CountOracle",
    "DeadStateError",
    "InfeasibleError",
    "LatinSquare",
    "MaskedTable",
    "OracleLimitError",
    "Partition",
    "RestartPolicy",
    "SamplerDiagnostics",
    "UniformityReport",
    "batch_rng",
    "chi_square_threshold",
    "chi_square_uniformity",
    "count_binary_tables",
    "count_integer_tables",
    "deterministic_fill",
    "distinct_partition_counts",
    "entries_from_csv",
    "entries_to_csv",
    "enumerate_binary_tables",
    "enumerate_integer_tables",
    "enumerate_latin_squares",
    "enumerate_partitions",
    "iter_latin_squares",
    "partition_counts",
    "poisson_binomial_pmf",
    "sample_binary_table",
    "sample_contingency_table",
    "sample_distinct_partition",
    "sample_latin_square",
    "sample_partition",
    "shared_oracle",
    "validate_table",
]
