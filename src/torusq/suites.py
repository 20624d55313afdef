"""Named verification suites over a torus geometry.

Each suite returns a list of CheckResult fragments; the CLI assembles them
into a VerificationReport.  Randomized suites draw from seeded generators
with dyadic-rational coefficients so that reports are reproducible and the
coefficient-exact contracts of the symbolic layer actually hold bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .finite import (
    DFT_KET_BLOCK,
    TABLE1_BLOCK,
    dft_basis_change,
    physical_grid_overlaps,
    table1_matrices,
    table1_verify,
    weyl_commutation_check,
)
from .report import DEFAULT_TOL, CheckResult
from .symbolic import OperatorKind, commutator_apply, random_wavefunction
from .torus import (
    GridShift,
    TorusGeometry,
    _require_quantized,
    chart_consistency_check,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample_bras,
)

_SUITE_SEED = 714025

# Each grid-overlap oracle entry is a sum of N^2 sampled phases whose roundoff
# grows with N, so the oracle keeps this fixed tolerance instead of --tolerance.
ORACLE_TOL = 1e-10

# The orthonormality Gram sums over bands of this many grid rows, so its
# memory is O(N^2 M) for the bras instead of O(N^2 M^2).
GRAM_BAND_ROWS = 16


def suite_commutators(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Heisenberg algebra on random family members, coefficient-exact.

    Both invariant pairs must return i*hbar times the input and all four
    mixed left/right pairs must annihilate it.  Runs at hbar = 1.
    """
    rng = np.random.default_rng(_SUITE_SEED)
    canonical = ((OperatorKind.Q_LEFT, OperatorKind.P_LEFT),
                 (OperatorKind.Q_RIGHT, OperatorKind.P_RIGHT))
    mixed = ((OperatorKind.Q_LEFT, OperatorKind.P_RIGHT),
             (OperatorKind.Q_RIGHT, OperatorKind.P_LEFT),
             (OperatorKind.Q_LEFT, OperatorKind.Q_RIGHT),
             (OperatorKind.P_RIGHT, OperatorKind.P_LEFT))
    worst_canonical = 0.0
    worst_mixed = 0.0
    count = 20
    for _ in range(count):
        wf = random_wavefunction(rng)
        target = wf.scale(1j * wf.hbar)
        for pair in canonical:
            resid = commutator_apply(*pair, wf).max_coeff_residual(target)
            worst_canonical = max(worst_canonical, resid)
        for pair in mixed:
            worst_mixed = max(worst_mixed, commutator_apply(*pair, wf).max_abs_coeff())
    params = {"count": count, "hbar": 1.0}
    return [
        CheckResult("commutators/canonical_pairs", params, worst_canonical, tol),
        CheckResult("commutators/mixed_pairs", params, worst_mixed, tol),
    ]


def _available_memory() -> int | None:
    """MemAvailable in bytes, or None where /proc/meminfo cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            fields = dict(line.split(":", 1) for line in meminfo)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return None


def _require_memory(suite: str, N: int, need: int) -> None:
    """Raise MemoryError, before the suite builds anything, when its estimated
    peak of `need` bytes exceeds the available memory; where that is unknown
    the suite runs."""
    available = _available_memory()
    if available is not None and need > available:
        raise MemoryError(f"{suite} at N={N} needs ~{need / 2**30:.3g} GiB, "
                          f"but {available / 2**30:.3g} GiB is available")


def _gram_residual(states, geometry: TorusGeometry, M: int) -> float:
    """max |G - I| for the Gram matrix G of `states` by quadrature on the
    M x M grid, summed over bands of GRAM_BAND_ROWS grid rows."""
    gram = np.zeros((len(states), len(states)), dtype=complex)
    for start in range(0, M, GRAM_BAND_ROWS):
        band = sample_bras(states, geometry, M, slice(start, start + GRAM_BAND_ROWS))
        gram += band @ band.conj().T
        del band  # the next band is sampled without this one alive
    gram /= M * M
    gram[np.diag_indices_from(gram)] -= 1.0  # in place: no N^4 identity or difference
    return float(np.abs(gram).max())


def suite_orthonormality(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Gram matrices of both N^2-member bases equal the identity, by
    quadrature on the M = 8N grid.

    One basis is held at a time, one band of GRAM_BAND_ROWS grid rows at a
    time: the band's (N^2, B M) array of bras (B = min(GRAM_BAND_ROWS, M))
    and that array's conjugate, next to the (N^2, N^2) Gram they are summed
    into and the (N^2, N^2) product of the band that is allocated before it
    is added.  A peak of those four arrays, 16 (2 N^2 B M + 2 N^4) bytes,
    above the available memory raises MemoryError before any state is built.
    """
    N = _require_quantized(geometry)
    M = 8 * N
    B = min(GRAM_BAND_ROWS, M)
    _require_memory("orthonormality", N, 16 * (2 * N**2 * B * M + 2 * N**4))
    labels = [(n, m) for n in range(N) for m in range(N)]
    rq = _gram_residual([make_torus_Q_basis(geometry, n, m, primed=True) for n, m in labels],
                        geometry, M)
    rp = _gram_residual([make_torus_P_basis(geometry, n, m) for n, m in labels], geometry, M)
    params = {**geometry.to_dict(), "M": M}
    return [
        CheckResult("orthonormality/q_basis_gram", params, rq, tol),
        CheckResult("orthonormality/p_basis_gram", params, rp, tol),
    ]


def suite_table1(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """All eight operator/basis cells as grid identities on the physical grid.

    When table1_verify's peak at M = N, 16 N^2 (4B + 3) bytes with
    B = min(TABLE1_BLOCK, N), exceeds the available memory the suite raises
    MemoryError before it builds any state."""
    N = _require_quantized(geometry)
    _require_memory("table1", N, 16 * N**2 * (4 * min(TABLE1_BLOCK, N) + 3))
    return table1_verify(geometry, tol=tol)


def suite_weyl(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Commutation phase and unitarity of the clock and shift, the Q-basis
    matrices of EXP_QLEFT and EXP_PLEFT read from the action table.

    The peak is inside weyl_commutation_check: its own clock and shift and
    their two products, next to this suite's C, S and float identity, and
    the float moduli of the products, fewer than eight complex N x N arrays.
    When 16 * 8 N^2 bytes exceed the available memory the suite raises
    MemoryError before it builds any matrix.
    """
    N = _require_quantized(geometry)
    _require_memory("weyl", N, 16 * 8 * N**2)
    C = table1_matrices(GridShift.EXP_QLEFT, N)[1]
    S = table1_matrices(GridShift.EXP_PLEFT, N)[1]
    eye = np.eye(N)
    omega = weyl_commutation_check(N)
    r_order = abs(omega**N - 1.0)
    # A primitive root keeps every power omega^k, 0 < k < N, at least
    # 2 sin(pi/N) away from 1; a non-primitive one returns to 1 at some k.
    # Half that separation tells the two apart at every N.
    separation = min((abs(omega**k - 1.0) for k in range(1, N)), default=2.0)
    threshold = math.sin(math.pi / N)
    r_primitive = max(0.0, threshold - separation)
    r_cu = float(np.abs(C.conj().T @ C - eye).max())
    r_su = float(np.abs(S.conj().T @ S - eye).max())
    SN = np.linalg.matrix_power(S, N)
    r_shift_order = float(np.abs(SN - eye).max())
    r_commute = float(np.abs(C @ SN - SN @ C).max())
    params = {"N": N, "omega": [omega.real, omega.imag]}
    return [
        CheckResult("weyl/scalar_phase_order", params, r_order, tol),
        CheckResult("weyl/phase_primitive",
                    {**params, "min_separation": separation, "threshold": threshold},
                    r_primitive, 0.0),
        CheckResult("weyl/clock_unitary", {"N": N}, r_cu, tol),
        CheckResult("weyl/shift_unitary", {"N": N}, r_su, tol),
        CheckResult("weyl/shift_nth_power_identity", {"N": N}, r_shift_order, 0.0),
        CheckResult("weyl/nth_power_commutes", {"N": N}, r_commute, tol),
    ]


def suite_dft(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Unitarity, intertwining, and grid-overlap oracle for the basis change.

    The peak is inside physical_grid_overlaps, 16 (2 N^3 + DFT_KET_BLOCK N^2)
    bytes, next to this suite's K.  When 16 (2 N^3 + (DFT_KET_BLOCK + 1) N^2)
    bytes exceed the available memory the suite raises MemoryError before
    it builds any matrix or state.
    """
    N = _require_quantized(geometry)
    _require_memory("dft", N, 16 * (2 * N**3 + (DFT_KET_BLOCK + 1) * N**2))
    K = dft_basis_change(N)
    r_unitary = float(np.abs(K.conj().T @ K - np.eye(N)).max())
    checks = [CheckResult("dft/unitary", {"N": N}, r_unitary, tol)]
    for which in GridShift:
        mp, mq = table1_matrices(which, N)
        resid = float(np.abs(K @ mp - mq @ K).max())
        checks.append(CheckResult(f"dft/intertwines_{which.name.lower()}", {"N": N}, resid, tol))
    overlaps = physical_grid_overlaps(geometry)
    expected = K / np.sqrt(N)  # overlap of unit grid states carries 1/sqrt(N)
    overlaps -= expected[:, None, :]  # in place: no second (N, N, N) array
    r_oracle = float(np.abs(overlaps).max())
    checks.append(
        CheckResult("dft/grid_overlap_oracle", {**geometry.to_dict(), "M": N},
                    r_oracle, ORACLE_TOL)
    )
    return checks


def suite_charts(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Two-chart gauge consistency, plus detection of an omitted transition."""
    N = _require_quantized(geometry)
    labels = [(0, 0)] if N == 1 else [(0, 0), (1, 1)]
    checks = [chart_consistency_check(geometry, n, m, tol=tol) for n, m in labels]
    # Negative control on a half-integer area: with the gauge factor omitted
    # the seam mismatch must be plainly visible.
    broken = make_geometry(geometry.a, geometry.b * (N + 0.5) / N, geometry.h)
    checks.append(chart_consistency_check(broken, 0, 0, apply_transition=False))
    return checks


SUITES = {
    "commutators": suite_commutators,
    "orthonormality": suite_orthonormality,
    "table1": suite_table1,
    "weyl": suite_weyl,
    "dft": suite_dft,
    "charts": suite_charts,
}


def run_suites(selector: str, geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run one named suite, or all of them in the order of SUITES."""
    if selector == "all":
        names = SUITES
    elif selector in SUITES:
        names = (selector,)
    else:
        raise ValueError(f"unknown suite {selector!r}; choose from {sorted(SUITES)} or 'all'")
    checks: list[CheckResult] = []
    for name in names:
        checks.extend(SUITES[name](geometry, tol))
    return checks
