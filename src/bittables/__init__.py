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

from .binary_sampler import BinaryStrategy, full_line_weight, sample_binary_table
from .counting import (
    CountOracle,
    count_binary_tables,
    count_integer_tables,
    enumerate_binary_tables,
    enumerate_integer_tables,
    enumerate_latin_squares,
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
from .integer_sampler import (
    BitSamplerStrategy,
    approx_bit_weight,
    exact_bit_distribution,
    sample_contingency_table,
)
from .latin import (
    LatinSquare,
    RestartPolicy,
    build_level_plan,
    level_class_targets,
    parity_levels,
    sample_latin_square,
)
from .partitions import (
    Partition,
    distinct_partition_counts,
    enumerate_partitions,
    partition_counts,
    sample_distinct_partition,
    sample_partition,
)
from .pmf import (
    ColumnParamScheme,
    DiscretePMF,
    column_parameters,
    conditioned_cell_pmf,
    geometric_dist,
    mixed_column_sum_pmf,
    negative_binomial_dist,
    poisson_binomial_pmf,
    poisson_binomial_point,
)
from .seeding import batch_rng
from .stats import UniformityReport, chi_square_threshold, chi_square_uniformity
from .table import (
    MaskedTable,
    deterministic_fill,
    entries_from_csv,
    entries_to_csv,
    table_from_json,
    table_to_json,
    validate_table,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryStrategy",
    "BitSamplerStrategy",
    "BitTablesError",
    "ColumnParamScheme",
    "ConditioningError",
    "ContradictionError",
    "CountOracle",
    "DeadStateError",
    "DiscretePMF",
    "InfeasibleError",
    "LatinSquare",
    "MaskedTable",
    "OracleLimitError",
    "Partition",
    "RestartPolicy",
    "SamplerDiagnostics",
    "UniformityReport",
    "approx_bit_weight",
    "batch_rng",
    "build_level_plan",
    "chi_square_threshold",
    "chi_square_uniformity",
    "column_parameters",
    "conditioned_cell_pmf",
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
    "exact_bit_distribution",
    "full_line_weight",
    "geometric_dist",
    "iter_latin_squares",
    "level_class_targets",
    "mixed_column_sum_pmf",
    "negative_binomial_dist",
    "parity_levels",
    "partition_counts",
    "poisson_binomial_pmf",
    "poisson_binomial_point",
    "sample_binary_table",
    "sample_contingency_table",
    "sample_distinct_partition",
    "sample_latin_square",
    "sample_partition",
    "shared_oracle",
    "table_from_json",
    "table_to_json",
    "validate_table",
]
