"""torusq: quantization of the plane and the torus as phase spaces.

Exact symbolic operator algebra on a closed family of phase-space wave
functions, the two eigenbases of the plane, area quantization and chart
consistency on the torus, and the reduction to an N-dimensional physical
Hilbert space with clock/shift operators and a discrete Fourier basis
change.
"""

from .symbolic import (
    BilinearPhaseTerm,
    OperatorKind,
    OperatorRow,
    WaveFunction,
    apply_operator,
    commutator_apply,
    differentiate,
    exp_operator_apply,
    is_eigenstate,
)
from .plane import make_plane_P_basis, make_plane_Q_basis
from .torus import (
    GridShift,
    TorusGeometry,
    chart_consistency_check,
    grid_shift_operator,
    holonomy,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample,
    transition_function,
)
from .finite import (
    LABEL_ACTION,
    dft_basis_change,
    physical_grid_overlaps,
    table1_matrices,
    table1_verify,
    weyl_commutation_check,
)
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BilinearPhaseTerm",
    "CheckResult",
    "GridShift",
    "LABEL_ACTION",
    "OperatorKind",
    "OperatorRow",
    "TorusGeometry",
    "VerificationReport",
    "WaveFunction",
    "apply_operator",
    "chart_consistency_check",
    "commutator_apply",
    "dft_basis_change",
    "differentiate",
    "exp_operator_apply",
    "grid_shift_operator",
    "holonomy",
    "is_eigenstate",
    "make_geometry",
    "make_plane_P_basis",
    "make_plane_Q_basis",
    "make_torus_P_basis",
    "make_torus_Q_basis",
    "physical_grid_overlaps",
    "sample",
    "table1_matrices",
    "table1_verify",
    "transition_function",
    "weyl_commutation_check",
]
