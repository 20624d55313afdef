"""The N-dimensional physical Hilbert space of the quantized torus.

States with labels shifted by N, or differing only in the shadow index m, are
physically equivalent; fixing the canonical representatives (m = 0, n reduced
mod N) leaves an N-dimensional space on which the exponentiated physical
operators act as the clock and shift matrices.  Those matrices are read from
the action table LABEL_ACTION (table1_matrices), the same table that
table1_verify checks cell by cell, as integer identities of the basis
states' phase keys in lattice units, so every finite matrix here carries the
table's signs.  The unexponentiated
Heisenberg pair cannot survive the reduction: tr[A, B] = 0 for every finite
pair while [Q, P] = i hbar would need trace i hbar N.

The discrete Fourier matrix connecting the two bases is not normalized here
by fiat: its scale is fixed by unitarity and its phase orientation by two
oracles, the clock/shift intertwining relations and the inner products of
sampled basis states on the physical N x N grid.
"""

from __future__ import annotations

import math

import numpy as np

from .report import DEFAULT_TOL, CheckResult
from .symbolic import exp_key_map
from .torus import (
    GridShift,
    TorusGeometry,
    _basis_key,
    _require_memory,
    _require_quantized,
    grid_coordinates,
    grid_shift_coefficient,
    make_torus_Q_basis,
    sample_bras,
)

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
# (label, RAISE) raises that label by one.  The basis keys (torus._basis_key)
# are stated independently of this table, so table1_verify compares them;
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


def table1_verify(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Verify all eight operator/basis action cells as integer identities of
    the basis states' phase keys, plus the lattice check that licenses them.

    The phase keys of the primed basis states (n, m), 0 <= n, m <= N, are
    evaluated as arrays (torus._basis_key, the key each factory stores).  For
    each cell the key map of the operator (symbolic.exp_key_map, the map
    exp_operator_apply applies) takes the keys of the labels [0, N)^2 to their
    images.  Source, image and target keys are divided by the lattice units
    (h/N, h/b, h/a, 1) and rounded to integers.  A phase cell's target is the
    source with sign * label added to c0, a raising cell's the state at the
    raised, unreduced label; c0 is compared mod N, since e^{i c0/hbar} is 1 at
    c0 = N units.  Each cell reports the number of labels whose image differs
    from its target, against tolerance 0.

    table1/lattice carries all of the floating point: the largest distance of
    any source, image or target key from the lattice, as the phase error it
    makes on the fundamental domain, in turns: the distances of
    (c0, cq, cp, cqp) in lattice units times (1/N, 1, 1, N).  Its error model
    is about N eps, the roundoff of phase arguments up to 2 pi N.  In plain
    lattice units c0, up to N^2 + 2N units, would carry about N^2 eps:
    1.8e-12 at N = 100 on a = 1, b = 2.

    Time is O(N^2) array arithmetic; no state is built.  The call holds the
    labels and one basis's keys and lattice coordinates, beside one cell's
    image and the temporaries of its rounding, at most 16 * 12 (N+1)^2 bytes;
    when that exceeds the available memory it raises MemoryError before it
    evaluates any key.  Failures are reported, not raised.
    """
    N = _require_quantized(geometry)
    _require_memory("table1", N, 16 * 12 * (N + 1) ** 2)
    params = geometry.to_dict()
    unit = np.array([geometry.h / N, geometry.h / geometry.b, geometry.h / geometry.a, 1.0])
    turns = np.array([1.0 / N, 1.0, 1.0, N])  # phase error per lattice unit on the domain
    labels = np.indices((N + 1, N + 1))
    mismatched, distance = {}, 0.0

    def on_lattice(keys):
        # Integer lattice coordinates, and the distance of the keys from them.
        nonlocal distance
        units = keys / unit
        rounded = np.rint(units)
        units -= rounded
        np.abs(units, out=units)
        units *= turns
        distance = max(distance, float(units.max()))
        return rounded

    for basis in "PQ":
        # cqp comes back as a constant, broadcast to the labels' shape
        keys = np.stack(np.broadcast_arrays(
            *_basis_key(geometry, basis, *labels, primed=True)), axis=-1)
        lattice = on_lattice(keys)
        for which, cells in LABEL_ACTION.items():
            label, sign = cells[basis]
            key_map = exp_key_map(*grid_shift_coefficient(which, geometry))
            image = on_lattice(np.stack(key_map(*np.moveaxis(keys[:N, :N], -1, 0)), axis=-1))
            if sign == RAISE:
                image -= (lattice[1:, :N], lattice[:N, 1:])[label]
            else:
                image -= lattice[:N, :N]
                image[..., 0] -= sign * labels[label, :N, :N]
            image[..., 0] %= N
            mismatched[which, basis] = float(np.count_nonzero(image.any(axis=-1)))
            del image  # before the next cell's image is built
    return [CheckResult(f"table1/{which.name.lower()}/{basis}-basis", params,
                        mismatched[which, basis], 0.0)
            for which, cells in LABEL_ACTION.items() for basis in cells] + [
        CheckResult("table1/lattice", params, distance, tol)]


def physical_grid_overlaps(geometry: TorusGeometry) -> np.ndarray:
    """Inner products O[n, s, r] = <sampled Q-basis n, m=0 | sampled P-basis s, r>
    on the physical grid M = N, both bases in the primed convention.

    This is the independent oracle for dft_basis_change: the overlaps equal
    e^{2 pi i n r / N} / N for every shadow index s, i.e. K[n][r] / sqrt(N).
    It is confined to M = N because the two bases meet only on that grid: the
    P-basis states are periodic, but the Q-basis states are sections whose
    transition factors sample to one only there.  On M = 2N the overlaps miss
    K / sqrt(N) by 0.55 at N = 2, 0.35 at N = 3 and 0.21 at N = 5.

    The N Q-basis bras are sampled (sample_bras).  The P-basis kets are not:
    each state (s, r) is d_sr u_s(p) (x) v_r(q), read from its phase key
    (torus._basis_key), with u_s = e^{i cp[s] p/hbar}, v_r = e^{i cq[r] q/hbar}
    and d_sr = e^{i c0[s, r]/hbar}.  Then O[n, s, r] = d_sr sum_ij
    bras[n, i, j] u_s(p_i) v_r(q_j) / N^2 in two matrix products, 2 N^4
    multiply-adds.  The call holds the bras and the first product, then the
    first product and O, beside the N x N factors: 16 (2 N^3 + 4 N^2) bytes,
    plus numpy's ufunc buffers.  When that exceeds the available memory the
    call raises MemoryError before it builds any state.
    """
    N = _require_quantized(geometry)
    _require_memory("dft", N, 16 * (2 * N**3 + 4 * N**2))
    hbar = geometry.hbar
    c0 = _basis_key(geometry, "P", *np.indices((N, N)), primed=True)[0]
    _, cq, cp, _ = _basis_key(geometry, "P", np.arange(N), np.arange(N))
    q, p = grid_coordinates(geometry, N)
    U = np.exp(1j / hbar * np.multiply.outer(cp, p))
    V = np.exp(1j / hbar * np.multiply.outer(cq, q))
    d = np.exp(1j / hbar * c0) / (N * N)
    del c0
    bras = sample_bras([make_torus_Q_basis(geometry, n, 0, True) for n in range(N)],
                       geometry, N).reshape(N, N, N)
    first = U @ bras  # first[n, s, j] = sum_i u_s(p_i) bras[n, i, j]
    del bras
    out = first @ V.T
    del first
    out *= d
    return out
