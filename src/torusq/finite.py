"""The N-dimensional physical Hilbert space of the quantized torus.

States with labels shifted by N, or differing only in the shadow index m, are
physically equivalent; fixing the canonical representatives (m = 0, n reduced
mod N) leaves an N-dimensional space on which the exponentiated physical
operators act as the clock and shift matrices.  Those matrices are read from
the action table LABEL_ACTION (table1_matrices), the same table that
table1_verify checks cell by cell against the grid operators, so every
finite matrix here carries the table's signs.  The unexponentiated
Heisenberg pair cannot survive the reduction: tr[A, B] = 0 for every finite
pair while [Q, P] = i hbar would need trace i hbar N.

The discrete Fourier matrix connecting the two bases is not normalized here
by fiat: its scale is fixed by unitarity and its phase orientation by two
oracles, the clock/shift intertwining relations and the inner products of
sampled basis states on the physical N x N grid.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .report import DEFAULT_TOL, CheckResult
from .torus import (
    GridShift,
    TorusGeometry,
    _require_memory,
    _require_quantized,
    _sample_stack,
    grid_coordinates,
    grid_shift_operator,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample_bras,
)

# table1_verify walks the labels in blocks of this many m values, and
# physical_grid_overlaps samples the P-basis kets in blocks of this many r
# values; each states the memory that follows and refuses a run above it.
TABLE1_BLOCK = 16
DFT_KET_BLOCK = 4


def _require_dimension(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")


def dft_basis_change(N: int) -> np.ndarray:
    """The unitary K mapping P-basis coefficient vectors to Q-basis ones.

    K[n][s] = e^{2 pi i n s / N} / sqrt(N), at the canonical m = 0
    representative, with the first Q-basis index pairing against the second
    (physical) P-basis index.  The 1/sqrt(N) scale is forced by unitarity and
    the exponent sign by the requirement that K intertwine the actions of the
    exponentiated operators in the two bases (table1_matrices); both choices are
    confirmed against inner products of sampled basis states on the physical
    grid (see physical_grid_overlaps).
    """
    _require_dimension(N)
    idx = np.arange(N)
    return _label_phase(+1, np.outer(idx, idx), N) / math.sqrt(N)


# The action table: how each exponentiated operator acts on the primed labels
# of both bases, label 0 being n (s in the P basis) and label 1 being m (r).
# An entry (label, sign) multiplies the state by e^{sign 2 pi i label / N};
# (label, RAISE) raises that label by one.  The basis factories are built
# independently of this table, so table1_verify compares it against them;
# table1_matrices reads the physical-space matrices from it.
RAISE = 0
LABEL_ACTION = {
    GridShift.EXP_PLEFT: {"P": (1, -1), "Q": (0, RAISE)},
    GridShift.EXP_QLEFT: {"P": (1, RAISE), "Q": (0, +1)},
    GridShift.EXP_PRIGHT: {"P": (0, RAISE), "Q": (1, -1)},
    GridShift.EXP_QRIGHT: {"P": (0, +1), "Q": (1, RAISE)},
}
# The label that survives the reduction to the physical space.
PHYSICAL_LABEL = {"P": 1, "Q": 0}
_FACTORIES = {"P": make_torus_P_basis, "Q": make_torus_Q_basis}


def _label_phase(sign: int, label, N: int):
    return np.exp(sign * 2j * np.pi * label / N)


def table1_matrices(which: GridShift, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(P-basis matrix, Q-basis matrix) of one exponentiated operator on the
    physical labels, read from LABEL_ACTION.

    An action on the physical label is the diagonal of its phase or the
    cyclic permutation sending index n to n+1 (mod N), whose entries are
    exactly 0 and 1; an action on the shadow label is the identity on the
    physical space.  The Q-basis matrices of EXP_QLEFT and EXP_PLEFT are the
    clock diag(e^{2 pi i n / N}) and the shift.
    """
    _require_dimension(N)
    out = []
    for basis, (label, sign) in LABEL_ACTION[which].items():
        if label != PHYSICAL_LABEL[basis]:
            out.append(np.eye(N, dtype=complex))
        elif sign == RAISE:
            out.append(np.roll(np.eye(N, dtype=complex), 1, axis=0))
        else:
            out.append(np.diag(_label_phase(sign, np.arange(N), N)))
    return tuple(out)


def weyl_commutation_check(N: int) -> complex:
    """The scalar omega with C @ S = omega * (S @ C), for the clock C and the
    shift S of the action table: the Q-basis matrices of EXP_QLEFT and
    EXP_PLEFT from table1_matrices.

    Determined by brute force from those two matrices: the two products
    have the same support and their entrywise ratio must be one constant.  A
    ratio spread above DEFAULT_TOL raises, since it would signal an
    implementation bug; the measured spread is at most 2.6e-15 for every
    N <= 256 and for N in {512, 1024, 2048}.
    omega is a primitive N-th root of unity for N > 1, and the N-th power of
    either operator commutes with the other.
    """
    C = table1_matrices(GridShift.EXP_QLEFT, N)[1]
    S = table1_matrices(GridShift.EXP_PLEFT, N)[1]
    left = C @ S
    right = S @ C
    mask = np.abs(right) > 0.5
    if not np.array_equal(mask, np.abs(left) > 0.5):
        raise RuntimeError("clock/shift products differ in support; commutator is not scalar")
    ratios = left[mask] / right[mask]
    omega = complex(ratios.flat[0])
    if np.abs(ratios - omega).max() > DEFAULT_TOL:
        raise RuntimeError("clock/shift commutator is not a scalar within tolerance")
    return omega


def table1_verify(geometry: TorusGeometry, M: int | None = None,
                  tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Verify all eight operator/basis action cells as grid identities.

    For every label pair (n, m) in [0, N)^2 and each exponentiated operator,
    the sampled primed basis state is pushed through grid_shift_operator and
    compared with the LABEL_ACTION phase times the sampled state with the
    shifted (unreduced) label.  Runs on the physical grid M = N by default,
    where the label equivalences hold exactly on samples.  Failures are
    reported, not raised.

    The labels are walked in blocks of B = min(TABLE1_BLOCK, N) values of m,
    n going down, as stacks of the B + 1 states (n, m..m+B): the block plus
    its boundary column.  Each state is sampled once per basis, apart from
    the boundary columns, which are sampled again as the first column of the
    next block: (N+1)(N + ceil(N/B)) samples per basis.  Each operator is
    applied to the whole block at once.  A phase cell compares with the
    source state itself, a raising cell with the separately sampled state at
    (n+1, m) or (n, m+1), never with a roll of the source.  The call holds
    the stacks of rows n and n+1, the operator's image of the block, one
    temporary of its size and one M x M chirp: 16 M^2 (4B + 3) bytes, plus
    numpy's ufunc buffers.  When that exceeds the available memory the call
    raises MemoryError before it samples anything.
    """
    N = _require_quantized(geometry)
    M = N if M is None else M
    grid_coordinates(geometry, M)  # a bad M raises its ValueError before the estimate
    _require_memory("table1", N, 16 * M**2 * (4 * min(TABLE1_BLOCK, N) + 3))
    params = {**geometry.to_dict(), "M": M}
    # Label by label, as scalars: a vectorized 2 pi label / N rounds differently,
    # and the residuals stay bit for bit those of a cell-by-cell check.
    phases = {sign: np.array([_label_phase(sign, label, N) for label in range(N)])
              for sign in (-1, +1)}

    def stack(factory, n, columns):
        return _sample_stack([factory(geometry, n, m, primed=True) for m in columns], geometry, M)

    worst = dict.fromkeys(itertools.product(LABEL_ACTION, _FACTORIES), 0.0)
    for basis, factory in _FACTORIES.items():
        for start in range(0, N, TABLE1_BLOCK):
            stop = min(start + TABLE1_BLOCK, N)
            ms, columns = np.arange(start, stop), range(start, stop + 1)
            below = stack(factory, 0, columns)
            for n in range(N):
                above = stack(factory, n + 1, columns)
                for which, cells in LABEL_ACTION.items():
                    label, sign = cells[basis]
                    moved = grid_shift_operator(which, below[:-1], geometry)
                    if sign == RAISE:
                        moved -= (above[:-1], below[1:])[label]
                    else:
                        labels = (np.full(len(ms), n), ms)[label]
                        moved -= phases[sign][labels][:, None, None] * below[:-1]
                    residual = float(np.abs(moved).max())
                    worst[which, basis] = max(worst[which, basis], residual)
                below = above
    return [CheckResult(f"table1/{which.name.lower()}/{basis}-basis", params,
                        worst[which, basis], tol)
            for which, cells in LABEL_ACTION.items() for basis in cells]


def physical_grid_overlaps(geometry: TorusGeometry) -> np.ndarray:
    """Inner products O[n, s, r] = <sampled Q-basis n, m=0 | sampled P-basis s, r>
    on the physical grid M = N, both bases in the primed convention.

    This is the independent oracle for dft_basis_change: the overlaps equal
    e^{2 pi i n r / N} / N for every shadow index s, i.e. K[n][r] / sqrt(N).
    It is confined to M = N because the two bases meet only on that grid: the
    P-basis states are periodic, but the Q-basis states are sections whose
    transition factors sample to one only there.  On M = 2N the overlaps miss
    K / sqrt(N) by 0.55 at N = 2, 0.35 at N = 3 and 0.21 at N = 5.
    The N^2 P-basis kets are sampled in blocks of DFT_KET_BLOCK values of r
    at one s, and each block gives its O[:, s, r] in one matrix-matrix
    product with the (N, N^2) array of Q-basis bras (sample_bras).  The call
    holds the bras, the (N, N, N) result and one block of kets: 16 (2 N^3 +
    DFT_KET_BLOCK N^2) bytes, plus numpy's ufunc buffers.  When that exceeds
    the available memory the call raises MemoryError before it samples anything.
    """
    N = _require_quantized(geometry)
    _require_memory("dft", N, 16 * (2 * N**3 + DFT_KET_BLOCK * N**2))
    bras = sample_bras([make_torus_Q_basis(geometry, n, 0, primed=True) for n in range(N)],
                       geometry, N)
    out = np.empty((N, N, N), dtype=complex)
    for s in range(N):
        for start in range(0, N, DFT_KET_BLOCK):
            stop = min(start + DFT_KET_BLOCK, N)
            kets = _sample_stack([make_torus_P_basis(geometry, s, r, primed=True)
                                  for r in range(start, stop)], geometry, N)
            out[:, s, start:stop] = bras @ kets.reshape(stop - start, N * N).T / (N * N)
            del kets  # freed before the next block is sampled
    return out
