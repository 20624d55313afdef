"""The N-dimensional physical Hilbert space of the quantized torus.

States with labels shifted by N, or differing only in the shadow label (m in
the Q basis, s in the P basis; see PHYSICAL_LABEL), are physically
equivalent.  Fixing the canonical representatives, (n mod N, 0) in the Q
basis and (0, r mod N) in the P basis, leaves an N-dimensional space on which
the exponentiated physical operators act as the clock and shift of the finite
Heisenberg-Weyl group over Z_N, monomials M e_n = w^{e[n]} e_{n+k}
(w = e^{2 pi i/N}) held as integers (k, e mod N).  _physical_action reads
them from the action table LABEL_ACTION, which table1_verify checks against
the basis states' phase keys, so every finite operator, and the basis change
K checked against them, carries the table's signs.  The Heisenberg pair
itself cannot survive the reduction: tr[A, B] = 0 for every finite pair
while [Q, P] = i hbar needs trace i hbar N.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .memory import _require_memory
from .report import DEFAULT_TOL, CheckResult
from .symbolic import exp_key_map
from .torus import (
    GridShift,
    TorusGeometry,
    _basis_key,
    _require_quantized,
    grid_coordinates,
    grid_shift_coefficient,
)

def _require_dimension(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")


def _dft_exponents(N: int) -> np.ndarray:
    """K's exponent table: K[n][s] = w^{n s} / sqrt(N), exponents mod N."""
    _require_dimension(N)
    return np.outer(np.arange(N), np.arange(N))


def dft_basis_change(N: int) -> np.ndarray:
    """The unitary K mapping P-basis coefficient vectors to Q-basis ones.

    K[n][s] = e^{2 pi i n s / N} / sqrt(N) (_dft_exponents), at the m = 0
    representative, with the first Q-basis index pairing against the second
    (physical) P-basis index.  The 1/sqrt(N) scale is forced by unitarity and
    the exponent sign by the requirement that K intertwine the actions of the
    exponentiated operators in the two bases (suite_dft); both choices are
    confirmed against inner products of sampled basis states on the physical
    grid (see physical_grid_overlaps).
    """
    return _root(_dft_exponents(N), N) / math.sqrt(N)


# The action table: how each exponentiated operator acts on the primed labels
# of both bases, label 0 being n (s in the P basis) and label 1 being m (r).
# An entry (label, sign) multiplies the state by e^{sign 2 pi i label / N};
# (label, RAISE) raises that label by one.  The basis keys (torus._basis_key)
# are stated independently of this table, so table1_verify compares them;
# _physical_action reads the physical-space operators from it.
RAISE = 0
LABEL_ACTION = {
    GridShift.EXP_PLEFT: {"P": (1, -1), "Q": (0, RAISE)},
    GridShift.EXP_QLEFT: {"P": (1, RAISE), "Q": (0, +1)},
    GridShift.EXP_PRIGHT: {"P": (0, RAISE), "Q": (1, -1)},
    GridShift.EXP_QRIGHT: {"P": (0, +1), "Q": (1, RAISE)},
}
# The label that survives the reduction to the physical space.
PHYSICAL_LABEL = {"P": 1, "Q": 0}


def _root(e, N: int):
    """w^e for w = e^{2 pi i/N}."""
    return np.exp(2j * np.pi * e / N)


def _physical_action(which: GridShift, basis: str, N: int) -> tuple[int, np.ndarray]:
    """One operator on the physical labels of one basis, read from
    LABEL_ACTION as the monomial (k, e mod N): M e_n = w^{e[n]} e_{n+k}.  An
    action on the shadow label is the identity (0, 0)."""
    _require_dimension(N)
    label, sign = LABEL_ACTION[which][basis]
    if label != PHYSICAL_LABEL[basis]:
        return 0, np.zeros(N, dtype=int)
    if sign == RAISE:
        return 1 % N, np.zeros(N, dtype=int)
    return 0, sign * np.arange(N) % N


def _compose(a, b, N: int) -> tuple[int, np.ndarray]:
    """The monomial a b (b acts first): (k1 + k2, e2 + roll(e1, -k2)) mod N."""
    (k1, e1), (k2, e2) = a, b
    return (k1 + k2) % N, (e2 + np.roll(e1, -k2)) % N


def _power(a, p: int, N: int) -> tuple[int, np.ndarray]:
    """The monomial a^p, p >= 0, by binary powering in O(N) memory."""
    out = (0, np.zeros(N, dtype=int))
    while p:
        if p & 1:
            out = _compose(out, a, N)
        a, p = _compose(a, a, N), p >> 1
    return out


def _commutator(N: int):
    """The clock C and the shift S (the Q-basis monomials of EXP_QLEFT and
    EXP_PLEFT), the exponent field of C S against S C, and the k most share."""
    C = _physical_action(GridShift.EXP_QLEFT, "Q", N)
    S = _physical_action(GridShift.EXP_PLEFT, "Q", N)
    field = (_compose(C, S, N)[1] - _compose(S, C, N)[1]) % N
    return C, S, field, int(np.bincount(field, minlength=N).argmax())


def _weyl_counts(N: int) -> tuple[int, dict[str, int]]:
    """k with C S = w^k S C, and each weyl check's count of mismatched labels:
    phase_primitive is gcd(k, N) - 1, the unitarity checks count the labels
    the label map hits other than once, and the others compare the sides of
    C S = w^k S C, S^N = I and C^N S = S C^N (shifts add in Z_N, so only
    exponents can differ).  O(N log N) time, O(N) memory."""
    C, S, field, k = _commutator(N)
    CN = _power(C, N, N)
    hits = [np.bincount((np.arange(N) + shift) % N, minlength=N) for shift, _ in (C, S)]
    return k, {
        "scalar_phase_order": np.count_nonzero(field != k),
        "phase_primitive": math.gcd(k, N) - 1,
        "clock_unitary": np.count_nonzero(hits[0] != 1),
        "shift_unitary": np.count_nonzero(hits[1] != 1),
        "shift_nth_power_identity": np.count_nonzero(_power(S, N, N)[1]),
        "nth_power_commutes": np.count_nonzero(_compose(CN, S, N)[1] != _compose(S, CN, N)[1]),
    }


def table1_matrices(which: GridShift, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(P-basis matrix, Q-basis matrix) of one exponentiated operator on the
    physical labels, the dense form of _physical_action: column n holds
    w^{e[n]} in row n + k.  The Q-basis matrices of EXP_QLEFT and EXP_PLEFT
    are the clock diag(e^{2 pi i n / N}) and the shift, of entries 0 and 1.
    """
    return tuple(np.roll(np.diag(_root(e, N)), k, axis=0)
                 for k, e in (_physical_action(which, basis, N) for basis in LABEL_ACTION[which]))


def weyl_commutation_check(N: int) -> complex:
    """The scalar omega with C S = omega S C for the clock C and the shift S
    of the action table (_commutator): e^{2 pi i k/N} from the group law of
    the monomials, with no assumed sign and no float tolerance.  omega is a
    primitive N-th root of unity for N > 1."""
    return complex(_root(_commutator(N)[3], N))


# A nan or inf key entry makes nan coordinates (inf - inf, 0 * inf), which
# count as mismatches and as half a unit off the lattice, not as warnings.
@np.errstate(invalid="ignore")
def table1_verify(geometry: TorusGeometry, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Verify all eight operator/basis action cells as integer identities of
    the basis states' phase keys, plus the lattice check that licenses them.

    The phase keys of the primed basis states (n, m), 0 <= n, m <= N, are
    evaluated on broadcast labels (torus._basis_key, the key each factory
    stores, on np.ogrid), so each entry keeps the shape of the labels it
    depends on: c0 is (N+1, N+1), cq (1, N+1), cp (N+1, 1) and cqp a
    constant.  For each cell the key map of the operator (symbolic.exp_key_map,
    the map exp_operator_apply applies) takes the keys of the labels [0, N)^2
    to their images, entry by entry as they broadcast.  Source, image and
    target keys are divided by the lattice units (h/N, h/b, h/a, 1) and
    rounded to integers, c0 to int64.  A phase cell's target is the source
    with sign * label added to c0, a raising cell's the state at the raised,
    unreduced label; c0 is compared mod N, since e^{i c0/hbar} is 1 at
    c0 = N units.  Each cell reports the number of labels at which any
    coordinate of the image differs from its target, against tolerance 0.

    table1/lattice carries all of the floating point: the largest distance of
    any source, image or target key from the lattice, as the phase error it
    makes on the fundamental domain, in turns: the distances of
    (c0, cq, cp, cqp) in lattice units times (1/N, 1, 1, N).  An entry that
    is nan or inf reads as half a unit off, the farthest a finite entry can
    be, so such a key fails the check with a finite residual.  Its error model
    is about N eps, the roundoff of phase arguments up to 2 pi N.  In plain
    lattice units c0, up to N^2 + 2N units, would carry about N^2 eps:
    1.8e-12 at N = 100 on a = 1, b = 2.

    Time is O(N^2) array arithmetic, all of it on c0, the one entry that
    depends on both labels; no state is built.  The call holds one basis's
    c0 and its lattice coordinates, (N+1)^2 numbers each, beside one cell's
    image c0 and the two temporaries of its rounding, N^2 numbers each; with
    the labels and the cq and cp of the source, the image and their lattice
    coordinates, 10 vectors of N+1 numbers, and 2^14 bytes of Python
    objects, at most 40 (N+1)^2 + 80 (N+1) + 2^14 bytes.
    When that exceeds the available memory it raises MemoryError before it
    evaluates any key.  Failures are reported, not raised.
    """
    N = _require_quantized(geometry)
    _require_memory(f"table1 at N={N}", 40 * (N + 1) ** 2 + 80 * (N + 1) + 2**14)
    params = geometry.to_dict()
    unit = (geometry.h / N, geometry.h / geometry.b, geometry.h / geometry.a, 1.0)
    turns = (1.0 / N, 1.0, 1.0, N)  # phase error per lattice unit on the domain
    labels = np.ogrid[:N + 1, :N + 1]
    mismatched, distance = {}, 0.0

    def on_lattice(key):
        # Integer lattice coordinates of each key entry, and the distance of
        # the key from them.  c0, the one coordinate reduced mod N, becomes
        # int64 when it is finite and within 2^51, where the float arithmetic
        # it replaces (the difference of two coordinates and a label, mod N)
        # is exact as well; otherwise it stays float, as nan or inf must.
        nonlocal distance
        coordinates, far = [], []
        for entry, u, t in zip(key, unit, turns):
            units = entry / u
            coordinates.append(np.rint(units))
            units -= coordinates[-1]
            off = max(units.max(), -units.min())  # nan if any entry is not finite
            far.append((0.5 if math.isnan(off) else off) * t)
            del units
        distance = max(distance, float(np.max(far)))
        c0 = coordinates[0]
        if -2.0**51 <= c0.min() and c0.max() <= 2.0**51:
            coordinates[0] = c0.astype(np.int64)
        return coordinates

    def raised(coordinate, label):
        # The coordinate at the labels [0, N)^2 with one label raised by one;
        # an axis the coordinate does not vary on (length 1) is kept whole.
        if coordinate.shape[label] == 1:
            return coordinate[:N, :N]
        return coordinate[1:, :N] if label == 0 else coordinate[:N, 1:]

    for basis in "PQ":
        # Each entry keeps its own shape: c0 (N+1, N+1), cq (1, N+1),
        # cp (N+1, 1) and the constant cqp (1, 1).  Slicing to [:N, :N]
        # keeps an axis of length 1.
        keys = [np.atleast_2d(k) for k in _basis_key(geometry, basis, *labels, primed=True)]
        lattice = on_lattice(keys)
        for which, cells in LABEL_ACTION.items():
            label, sign = cells[basis]
            key_map = exp_key_map(*grid_shift_coefficient(which, geometry))
            image = on_lattice(key_map(*(k[:N, :N] for k in keys)))
            differs = np.zeros((N, N), dtype=bool)
            for c, want in enumerate(lattice):
                got = image[c] - (raised(want, label) if sign == RAISE else want[:N, :N])
                if c == 0:
                    # c0 spans both labels, as every key that tells the
                    # labels apart does, so it holds the label in place.
                    if sign != RAISE:
                        got -= sign * labels[label][:N, :N]
                    got %= N
                differs |= got != 0
            mismatched[which, basis] = float(np.count_nonzero(differs))
            del image, got, differs  # before the next cell's image is built
    return [CheckResult(f"table1/{which.name.lower()}/{basis}-basis", params,
                        mismatched[which, basis], 0.0)
            for which, cells in LABEL_ACTION.items() for basis in cells] + [
        CheckResult("table1/lattice", params, distance, tol)]


# The dft oracle sketches the shadow index with one projection, a vector of
# unit phases x_s = e^{2 pi i theta_s} with theta_s drawn uniformly from
# [-1/6, 1/6] by a generator seeded with ORACLE_SEED.  Then Re x_s >= 1/2, so
# |sum_s x_s| >= N/2: a defect shared by every s cannot cancel in the sum.
# suite_dft records both constants in the check's params.
ORACLE_SEED = 1979
ORACLE_PROJECTIONS = 1


def _sketch_phases(N: int) -> np.ndarray:
    """The oracle's seeded unit phases x_s, s < N (see ORACLE_SEED).  They
    come from the standard library's generator, torusq's one seeded-draw
    policy (suite_commutators draws from it too): importing numpy.random
    alone adds about 6 MB to the resident set."""
    rng = random.Random(ORACLE_SEED)
    theta = np.array([rng.uniform(-1 / 6, 1 / 6) for _ in range(N)])
    return np.exp(2j * np.pi * theta)


def _phases(a, b, scale: float = 1.0) -> np.ndarray:
    """The (len(a), len(b)) grid of e^{i scale a_k b_l}, formed in place from
    the outer product taken as (n, 1) @ (1, M): a broadcast's ufunc buffers
    would outweigh the arrays at small N."""
    out = (a[:, None] @ b[None, :]).astype(complex)
    out *= 1j * scale
    return np.exp(out, out=out)


def physical_grid_overlaps(geometry: TorusGeometry) -> float:
    """max |Z[n, r] - (sum_s x_s) K[n][r] / sqrt(N)| for the sketch
    Z[n, r] = sum_s x_s O[n, s, r] of the grid inner products
    O[n, s, r] = <Q-basis n, m=0 | P-basis s, r> of the states' values on the
    physical grid M = N, both bases in the primed convention, with seeded
    unit phases x_s over the shadow index (_sketch_phases).

    This is the independent oracle for dft_basis_change: the overlaps equal
    e^{2 pi i n r / N} / N for every shadow index s, i.e. K[n][r] / sqrt(N).
    It is confined to M = N because the two bases meet only on that grid: the
    P-basis states are periodic, but the Q-basis states are sections whose
    transition factors sample to one only there.  On M = 2N the overlaps miss
    K / sqrt(N) by 0.55 at N = 2, 0.35 at N = 3 and 0.21 at N = 5.

    No state is built or sampled: both bases are read from their phase keys
    (torus._basis_key).  Each P-basis ket (s, r) is d_sr u_s(p) (x) v_r(q),
    with u_s = e^{i cp[s] p/hbar}, v_r = e^{i cq[r] q/hbar} and
    d_sr = e^{i c0[s, r]/hbar} / N^2, the grid's weight included.  Each
    Q-basis bra n, whose c0 and cq vanish at m = 0, is conj(B_Q[n]) times the
    conjugated chirp conj(e^{i cqp q p/hbar}), with
    B_Q[n, i] = e^{i cp_Q[n] p_i/hbar}: the state's values, conjugated, to
    roundoff in the phase.  So O[n, s, r] = sum_i conj(B_Q)[n, i] U[s, i]
    d[s, r] Y[i, r], with U[s, i] = u_s(p_i) and
    Y[i, r] = sum_j conj(chirp)[i, j] v_r(q_j).

    The claim is linear in s, so one seeded projection checks every s at
    once (Freivalds' technique): Z = conj(B_Q) (X * Y), elementwise in X * Y,
    with X[i, r] = sum_s U[s, i] x_s d[s, r].  That is three N x N products,
    3 N^3 multiply-adds in place of the 2 N^4 of all N^3 overlaps, and it
    still assumes none of the DFT structure it confirms.  Since |x_s| = 1, a
    defect at one shadow index reads at its full size; since Re x_s >= 1/2,
    a defect shared by every s, such as one in K, reads at N/2 times its size
    or more.  Roundoff shared by every s adds up the same way: Z has modulus
    |sum_s x_s| / N, about 0.8, N times an overlap's, and keeps the
    exhaustive form's relative roundoff, so the residual grows about as
    N eps: 4.6e-14 at N = 64 (where the max over all overlaps read 6.6e-16),
    2.0e-13 at N = 256 and 8.0e-13 at N = 1024.

    Arrays are freed as they go, so at most four N x N complex arrays live at
    once: X beside the chirp, V and their product Y, 16 * 4 N^2 bytes, plus
    O(N) vectors and numpy's ufunc buffers.  When that exceeds the available
    memory the call raises MemoryError before it evaluates any key.
    """
    N = _require_quantized(geometry)
    _require_memory(f"dft at N={N}", 16 * 4 * N**2)
    hbar = geometry.hbar
    labels = np.arange(N)
    x = _sketch_phases(N)
    d = _basis_key(geometry, "P", *np.ogrid[:N, :N], primed=True)[0] * (1j / hbar)
    np.exp(d, out=d)
    d *= x[:, None] / (N * N)
    _, cq, cp, _ = _basis_key(geometry, "P", labels, labels)
    _, _, cp_Q, cqp = _basis_key(geometry, "Q", labels, 0, primed=True)
    q, p = grid_coordinates(geometry, N)
    U = _phases(cp, p / hbar)
    X = U.T @ d  # X[i, r] = sum_s U[s, i] x_s d[s, r]
    del U, d
    chirp = _phases(p, -cqp / hbar * q)
    Y = chirp @ _phases(cq, q / hbar).T  # Y[i, r] = sum_j conj(chirp)[i, j] v_r(q_j)
    del chirp
    X *= Y
    del Y
    Z = _phases(cp_Q, -p / hbar) @ X
    del X
    Z -= x.sum() / math.sqrt(N) * dft_basis_change(N)
    return float(np.abs(Z).max())
