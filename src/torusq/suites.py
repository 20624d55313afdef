"""Named verification suites over a torus geometry.

Each suite returns a list of CheckResult fragments; the CLI assembles them
into a VerificationReport.  Randomized suites draw from the standard
library's generator, random.Random seeded by a module constant, as the dft
oracle's sketch does; symbolic.random_wavefunction takes any draw(lo, hi),
e.g. random.Random.randrange or numpy's Generator.integers.  Coefficients
are dyadic rationals, so reports are reproducible and the coefficient-exact
contracts of the symbolic layer hold bit for bit.
A run too large for memory raises MemoryError before it allocates, checked
where the peak is: here, or in the torusq.finite call that table1 or dft makes.
"""

from __future__ import annotations

import random

import numpy as np

from .finite import (
    ORACLE_PROJECTIONS,
    ORACLE_SEED,
    _dft_exponents,
    _phases,
    _physical_action,
    _weyl_counts,
    dft_basis_change,
    physical_grid_overlaps,
    table1_verify,
    weyl_commutation_check,
)
from .memory import _require_memory
from .report import DEFAULT_TOL, CheckResult
from .symbolic import OperatorKind, commutator_apply, random_wavefunction
from .torus import (
    GridShift,
    TorusGeometry,
    _basis_key,
    _require_quantized,
    chart_consistency_check,
    grid_coordinates,
    make_geometry,
)

_SUITE_SEED = 714025

# Each entry of the grid-overlap oracle's sketch sums N^3 unit phases over N^2,
# so its roundoff grows about as N eps (8.0e-13 at N = 1024); the oracle keeps
# this fixed tolerance instead of --tolerance.
ORACLE_TOL = 1e-10


def suite_commutators(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Heisenberg algebra on random family members, coefficient-exact.

    Both invariant pairs must return i*hbar times the input and all four
    mixed left/right pairs must annihilate it.  Runs at hbar = 1.
    """
    draw = random.Random(_SUITE_SEED).randrange
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
        wf = random_wavefunction(draw)
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


def _factor_gram(rates: np.ndarray, coords: np.ndarray, hbar: float) -> np.ndarray:
    """(1/M) sum_i conj(f_a(x_i)) f_b(x_i) for f_a(x) = e^{i rates[a] x/hbar} at
    M coordinates x_i."""
    factors = _phases(rates, coords, 1 / hbar)
    return factors.conj() @ factors.T / len(coords)


def _gram_residual(geometry: TorusGeometry, basis: str, M: int) -> float:
    """max |G - I| of one basis on the M x M grid (see suite_orthonormality)."""
    labels = np.arange(geometry.N)
    _, cq, cp, _ = _basis_key(geometry, basis, labels, labels)
    q, p = grid_coordinates(geometry, M)
    A, B = _factor_gram(cp, p, geometry.hbar), _factor_gram(cq, q, geometry.hbar)
    diagonal = float(np.abs(np.outer(A.diagonal(), B.diagonal()) - 1.0).max())
    A, B = np.abs(A), np.abs(B)
    across, within = B.max(), A.diagonal().max()
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(B, 0.0)
    return max(diagonal, float(across * A.max()), float(within * B.max()))


def suite_orthonormality(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Gram matrices of both N^2-member bases equal the identity, by
    quadrature on the M = 8N grid, as G = D (A (x) B) D^H.

    State (n, m) is the one term e^{i (c0 + cq[m] q + cp[n] p + cqp q p)/hbar}
    with its basis's constant cqp (torus._basis_key).  The shared chirp
    cancels in conj(f_k) f_l: A and B are the N x N Grams of the
    e^{i cp[n] p/hbar} and e^{i cq[m] q/hbar} factors (a repeated cp is an
    off-diagonal 1 in A), and D holds the unit phases e^{i c0/hbar}, which
    change no modulus, so priming cannot change |G|.  max |G - I| is exactly
    the largest of |A_nn B_mm - 1|, offmax|A| max|B| and max|diag A|
    offmax|B|.

    Time is O(N^2 M) = O(N^3) for A and B.  One basis is held at a time,
    and the peak comes while its second Gram is taken: the first Gram, the
    (N, M) factors with their conjugate and the second Gram, beside q, p and
    the 1-D keys; the N x N temporaries of the residual stay below it.  When
    16 (3 N^2 + 2 N M + M) bytes, which bounds that peak (about 307 N^2 at
    M = 8N), exceeds the available memory the suite raises MemoryError
    before it reads any key.
    """
    N = _require_quantized(geometry)
    M = 8 * N
    _require_memory(f"orthonormality at N={N}", 16 * (3 * N**2 + 2 * N * M + M))
    rq = _gram_residual(geometry, "Q", M)
    rp = _gram_residual(geometry, "P", M)
    params = {**geometry.to_dict(), "M": M}
    return [
        CheckResult("orthonormality/q_basis_gram", params, rq, tol),
        CheckResult("orthonormality/p_basis_gram", params, rp, tol),
    ]


def suite_table1(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """All eight operator/basis cells as integer identities of the basis
    states' phase keys, each a count of mismatched labels against tolerance
    0, and table1/lattice, the keys' distance from the lattice against tol
    (table1_verify, which refuses a run too large for memory)."""
    return table1_verify(geometry, tol=tol)


def suite_weyl(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """The finite Weyl relation of the clock and shift as integer monomials:
    each check an exact count of mismatched labels (finite._weyl_counts)
    against tolerance 0, and omega from weyl_commutation_check."""
    N = _require_quantized(geometry)
    k, counts = _weyl_counts(N)
    omega = weyl_commutation_check(N)
    params = {"N": N, "omega": [omega.real, omega.imag], "exponent": k}
    return [CheckResult(f"weyl/{name}", params, float(count), 0.0)
            for name, count in counts.items()]


def suite_dft(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Unitarity, intertwining, and grid-overlap oracle for the basis change.

    The oracle (physical_grid_overlaps) runs first: it refuses a run too
    large for memory before anything is built, its peak is the suite's, and
    it returns its residual, max |Z - (sum_s x_s) K / sqrt(N)| for the sketch
    Z[n, r] = sum_s x_s O[n, s, r] of the grid overlaps over the shadow index,
    with the phases x_s seeded by ORACLE_SEED (both recorded in params).
    Each intertwining check counts the labels s where the exponents of K mp,
    E[n, s+kp] + ep[s], and of mq K, E[n-kq, s] + eq[n-kq], differ mod N
    (E = finite._dft_exponents, m e_s = w^{e[s]} e_{s+k}), against tolerance 0.
    """
    N = _require_quantized(geometry)
    r_oracle = physical_grid_overlaps(geometry)
    K = dft_basis_change(N)
    r_unitary = float(np.abs(K.conj().T @ K - np.eye(N)).max())
    checks = [CheckResult("dft/unitary", {"N": N}, r_unitary, tol)]
    E = _dft_exponents(N)
    for which in GridShift:
        (kp, ep), (kq, eq) = (_physical_action(which, basis, N) for basis in "PQ")
        diff = (np.roll(E, -kp, axis=1) + ep - np.roll(E + eq[:, None], kq, axis=0)) % N
        checks.append(CheckResult(f"dft/intertwines_{which.name.lower()}", {"N": N},
                                  float(np.count_nonzero(diff.any(axis=0))), 0.0))
    params = {**geometry.to_dict(), "M": N, "sketch_seed": ORACLE_SEED,
              "projections": ORACLE_PROJECTIONS}
    checks.append(CheckResult("dft/grid_overlap_oracle", params, r_oracle, ORACLE_TOL))
    return checks


def suite_charts(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Two-chart gauge consistency of the Q-basis keys (0, 0) and (1, 1), plus
    detection of an omitted transition; no state is built or evaluated."""
    N = _require_quantized(geometry)
    labels = [(0, 0)] if N == 1 else [(0, 0), (1, 1)]
    checks = [chart_consistency_check(geometry, n, m, tol=tol) for n, m in labels]
    # Negative control on a half-integer area: with the gauge factor omitted
    # the seam mismatch, a b/h = N + 1/2 turns, must be plainly visible.  The
    # ratio is taken first, since b (N + 1/2) can overflow where b N/h is
    # finite.  Above N = 1/(2 N_DETECT_REL_TOL) = 5e8 make_geometry counts
    # the stretched area as an integer, and from N = 2^52 on the stretch
    # rounds away and the control reads N turns.  An omitted transition
    # reads a b/h turns on any torus, so the control passes there too.
    broken = make_geometry(geometry.a, geometry.b * ((N + 0.5) / N), geometry.h)
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
