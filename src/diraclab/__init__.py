"""Numerical laboratory for the flat-model Dirac boundary operator.

Mode lattices of a circle or torus link, modified-Bessel radial solutions
of the separated Dirac system, Hardy-type boundary splittings with their
pairings and Green-identity check, and SVD-stabilized index computation
for the realified conjugate-linear boundary operator.
"""

import os

# OpenBLAS reads this once, when numpy loads it, so it must be set before the
# first submodule import. Each OpenBLAS worker busy-waits (sched_yield) for
# 2**OPENBLAS_THREAD_TIMEOUT cycles before it sleeps: 2**28, about 0.1 s of a
# core, by default. That spin runs after the pool starts inside `import numpy`
# and after every threaded call, and a short diraclab process pays it as CPU
# time. 4 is OpenBLAS's minimum. On 2 cores with OpenBLAS 0.3.31 a bare
# `import numpy` took 0.17 s by default and 0.10 s with it, and the benchmark's
# `ladders` pass fell from 2.77 s to 1.79 s of CPU (BENCH_25.json). The thread
# count and the split of work are unchanged, so threaded results stay bitwise
# and a 2178x2176 dense SVD still uses both cores. A value set by the user is
# kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .boundary import (
    BoundaryField,
    SubspaceTag,
    apply_e0,
    convention_probe,
    decaying_trace_field,
    field,
    field_add,
    field_from_json,
    field_scale,
    field_to_json,
    green_check,
    pairing_B,
    pairing_hermitian,
    pattern_second_weight,
    project,
    split,
)
from .engine import (
    IndexReport,
    LedgerInput,
    RealifiedOperator,
    SymbolData,
    apply_T,
    build_T,
    build_T_full,
    cokernel_correspondence,
    numerical_index,
    random_symbol,
    reconstruct_eta,
    stabilized_index,
    virtual_dimension_ledger,
    winding_number,
)
from .errors import ConfigError, DomainError, NumericError
from .lattice import (
    Mode,
    ModeLattice,
    ZeroModePolicy,
    dirac_eigensection,
    enumerate_modes,
    generalized_sign,
    ker_dsigma_dimension,
)
from .radial import (
    RadialMode,
    RegularityClass,
    assemble_solution,
    bessel_series,
    classify_regularity,
    decaying_solution,
    decaying_trace,
    modified_bessel_k_half,
    radial_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryField",
    "ConfigError",
    "DomainError",
    "IndexReport",
    "LedgerInput",
    "Mode",
    "ModeLattice",
    "NumericError",
    "RadialMode",
    "RealifiedOperator",
    "RegularityClass",
    "SubspaceTag",
    "SymbolData",
    "ZeroModePolicy",
    "apply_T",
    "apply_e0",
    "assemble_solution",
    "bessel_series",
    "build_T",
    "build_T_full",
    "classify_regularity",
    "cokernel_correspondence",
    "convention_probe",
    "decaying_solution",
    "decaying_trace",
    "decaying_trace_field",
    "dirac_eigensection",
    "enumerate_modes",
    "field",
    "field_add",
    "field_from_json",
    "field_scale",
    "field_to_json",
    "generalized_sign",
    "green_check",
    "ker_dsigma_dimension",
    "modified_bessel_k_half",
    "numerical_index",
    "pairing_B",
    "pairing_hermitian",
    "pattern_second_weight",
    "project",
    "radial_rhs",
    "random_symbol",
    "reconstruct_eta",
    "split",
    "stabilized_index",
    "virtual_dimension_ledger",
    "winding_number",
]
