"""Exact operator algebra on polynomial-times-bilinear-phase functions of (q, p).

The closed family consists of finite sums of terms

    amplitude * prefactor(q, p) * exp(i (c0 + cq*q + cp*p + cqp*q*p) / hbar)

where the prefactor is a complex bivariate polynomial stored as a sparse map
from exponent pairs (dq, dp) to coefficients.  Four first-order operators act
inside the family:

    Q_LEFT  = q + i hbar d/dp      (left-invariant position)
    P_LEFT  = -i hbar d/dq         (left-invariant momentum)
    Q_RIGHT = i hbar d/dp          (right-invariant position)
    P_RIGHT = p + i hbar d/dq      (right-invariant momentum)

The left pair and the right pair each satisfy [Q, P] = i hbar, while every
mixed left/right commutator vanishes.  Exponentials of the four operators act
as coordinate translations combined with linear-phase multiplications, so the
family is closed under those as well.  All operations are pure functions over
immutable values; nothing here mutates shared state.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import Iterable, NamedTuple

import numpy as np

from .memory import _require_memory

# Width of the merge cells in units of the phase k / hbar: two phase tuples
# are merged when every entry rounds to the same multiple of it.  Inputs are
# exact small rationals in practice; the cells only absorb roundoff from
# arithmetic.
PHASE_MERGE_TOL = 1e-12

# Relative tolerance for the eigenvalue ratio test.  All in-scope
# eigenproblems are exact, so this only absorbs roundoff.
EIGEN_RATIO_TOL = 1e-10

_PHASE_NAMES = ("c0", "cq", "cp", "cqp")  # BilinearPhaseTerm.phase_key order


class OperatorRow(NamedTuple):
    """One operator X = [other coordinate] + sign * i hbar d/d(axis), as data.

    axis is the differentiated variable (0 for q, 1 for p), sign the sign of
    its i hbar derivative, and multiplies says whether X also multiplies by
    the other coordinate.  The exponential of X is exp(sign * i s X / hbar),
    which translates by +s along the axis.
    """

    axis: int
    sign: int
    multiplies: bool


class OperatorKind(Enum):
    """The four first-order operators acting on phase-space wave functions.

    Each member's value is its OperatorRow; apply_operator,
    exp_operator_apply and the grid maps of torusq.torus derive their
    actions from these rows alone.  Which way an exponential moves basis
    labels is fixed by torusq.torus.GridShift.
    """

    Q_LEFT = OperatorRow(axis=1, sign=+1, multiplies=True)    # q + i hbar d/dp
    P_LEFT = OperatorRow(axis=0, sign=-1, multiplies=False)   # -i hbar d/dq
    Q_RIGHT = OperatorRow(axis=1, sign=+1, multiplies=False)  # i hbar d/dp
    P_RIGHT = OperatorRow(axis=0, sign=+1, multiplies=True)   # p + i hbar d/dq


# The rows in OperatorKind order, each kind's place in that order, and the
# rows' signs as a (4, 1) column.
_ROWS = [kind.value for kind in OperatorKind]
_KIND_INDEX = {kind: k for k, kind in enumerate(OperatorKind)}
_SIGN = np.array([[row.sign] for row in _ROWS])
# The up and self factors of each row (see _row_image), (multiplies - sign cqp,
# -sign c_axis), as an affine map of the phase key (c0, cq, cp, cqp):
# key @ _FACTOR_MAP + _FACTOR_SHIFT, flat in (kind, factor) order.  The map's
# entries are 0 and -sign, so the product is exact, and adding the shift
# rounds as multiplies - sign * cqp does.
_FACTOR_MAP = np.array([[[-row.sign * (i == 3), -row.sign * (i == 1 + row.axis)] for row in _ROWS]
                        for i in range(4)], dtype=float).reshape(4, 8)
_FACTOR_SHIFT = np.array([[float(row.multiplies), 0.0] for row in _ROWS])


def _check_hbar(hbar) -> None:
    """Raise ValueError unless hbar is positive and finite."""
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


def _checked_key(keys, hbar: float) -> np.ndarray:
    """Phase keys (..., 4) as a float array, -0.0 as 0.0; ValueError for the
    first entry, in row-major order, whose merge cell is not finite."""
    keys = np.asarray(keys, dtype=float) + 0.0  # -0.0 becomes 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(keys / hbar / PHASE_MERGE_TOL).ravel()
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"phase coefficient {_PHASE_NAMES[i % 4]}={keys.flat[i].item()} has "
                         f"no finite merge cell at hbar={hbar}")
    return keys


@dataclass(frozen=True, slots=True)
class BilinearPhaseTerm:
    """A single term amplitude * prefactor(q, p) * exp(i*phase(q, p)/hbar).

    The phase polynomial is c0 + cq*q + cp*p + cqp*q*p with real coefficients
    carrying units of action (they are divided by hbar on evaluation).  The
    prefactor maps exponent pairs (dq, dp) to complex coefficients.  Phase
    coefficients k are stored as floats, -0.0 as 0.0; k / hbar /
    PHASE_MERGE_TOL must be finite, and so must the amplitude and every
    prefactor coefficient; prefactor exponents are ints in [0, 2^63).
    """

    amplitude: complex
    c0: float
    cq: float
    cp: float
    cqp: float
    prefactor: dict = field(default_factory=lambda: {(0, 0): 1.0 + 0.0j})
    hbar: float = 1.0

    def __post_init__(self):
        _check_hbar(self.hbar)
        key = [float(k) or 0.0 for k in self.phase_key]  # -0.0 becomes 0.0
        if not all(math.isfinite(k / self.hbar / PHASE_MERGE_TOL) for k in key):
            _checked_key(key, self.hbar)  # raises its message
        for set_key, k in zip((_set_c0, _set_cq, _set_cp, _set_cqp), key):
            set_key(self, k)
        amplitude = complex(self.amplitude)
        prefactor = {(int(dq), int(dp)): complex(c) for (dq, dp), c in self.prefactor.items()}
        # Finite in both parts: the merge's complex products would turn an
        # infinite part into a nan one.
        if not cmath.isfinite(amplitude):
            raise ValueError(f"amplitude={amplitude} is not finite")
        for (dq, dp), c in prefactor.items():
            if not cmath.isfinite(c):
                raise ValueError(f"prefactor[{(dq, dp)}]={c} is not finite")
            if dq < 0 or dp < 0:
                raise ValueError(f"prefactor[{(dq, dp)}] has a negative exponent")
            if max(dq, dp) >= 2**63:  # the merge and the pack index exponents as int64
                raise ValueError(f"prefactor[{(dq, dp)}] has an exponent of 2^63 or more")
        _set_amplitude(self, amplitude)
        _set_prefactor(self, prefactor)

    @property
    def phase_key(self) -> tuple[float, float, float, float]:
        return (self.c0, self.cq, self.cp, self.cqp)

    @classmethod
    def _canonical(cls, key: tuple, prefactor: dict, hbar: float) -> "BilinearPhaseTerm":
        """The unit-amplitude term of a key checked at a valid hbar (_checked_key)
        and a prefactor of int monomials and complex coefficients, built without
        __post_init__: the one constructor of canonical output terms."""
        term = object.__new__(cls)
        _set_amplitude(term, 1.0 + 0.0j)
        _set_c0(term, key[0])
        _set_cq(term, key[1])
        _set_cp(term, key[2])
        _set_cqp(term, key[3])
        _set_prefactor(term, prefactor)
        _set_hbar(term, hbar)
        return term

    def evaluate(self, q, p):
        """Evaluate at (q, p); accepts scalars or broadcastable numpy arrays.
        The phase (c0 + cq q + cp p) + cqp q p is built in the imaginary part
        of the one complex array returned, divided by hbar and exponentiated
        in place; a constant prefactor stays a scalar."""
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        values = np.empty(np.broadcast(q, p).shape, dtype=complex)
        prefactor = 0j
        for (dq, dp), c in self.prefactor.items():
            # The constant monomial needs no q**0 * p**0 arrays.
            prefactor = prefactor + (c if dq == dp == 0 else c * q**dq * p**dp)
        np.multiply(self.cqp * q, p, out=values.imag)
        np.add(self.c0 + self.cq * q, self.cp * p, out=values.real)
        values.imag += values.real
        values.real = 0.0
        values /= self.hbar
        np.exp(values, out=values)
        np.multiply(self.amplitude * prefactor, values, out=values)
        return complex(values) if values.ndim == 0 else values


# The slots' own setters, the one way a field is set after __init__: object.__setattr__ is slower.
(_set_amplitude, _set_c0, _set_cq, _set_cp, _set_cqp, _set_prefactor,
 _set_hbar) = (getattr(BilinearPhaseTerm, name).__set__ for name in BilinearPhaseTerm.__slots__)


def _flat(terms, coefficients) -> tuple:
    """The (T, 4) keys of terms and one row (entry, dq, dp, c) per monomial q^dq
    p^dp, by term and monomial, as _merge takes them: entry is the term's place
    and c the monomial's entry of coefficients."""
    keys = np.array([t.phase_key for t in terms], dtype=float).reshape(-1, 4)
    entry = np.arange(len(terms)).repeat([len(t.prefactor) for t in terms])
    mons = chain.from_iterable(chain.from_iterable(t.prefactor for t in terms))
    dq, dp = np.fromiter(mons, dtype=np.int64).reshape(-1, 2).T
    return keys, entry, dq, dp, np.array(coefficients, dtype=complex)


class _Pack(NamedTuple):
    """A wave function's T terms as dense arrays (WaveFunction._packed).

    coeffs[t, dq, dp] is the coefficient of q^dq p^dp in term t, zero where
    the term has none, for exponents below D; _turned(coeffs, axis == 1) has
    the differentiated axis of a row first.  factors[k, t] holds the up and
    self factors of term t under the row of the k-th OperatorKind,
    (multiplies - sign cqp, -sign c_axis), and down[k, d - 1] its down
    factor for degree d, sign i hbar d, for d = 1 .. D (see _row_image).
    images[k] is the image of coeffs under that row, axis first:
    apply_operator reads it, and commutator_apply applies the second
    operator to it."""

    keys: np.ndarray        # (T, 4) phase keys
    coeffs: np.ndarray      # (T, D, D) complex
    factors: np.ndarray     # (4, T, 2) float
    down: np.ndarray        # (4, D) complex
    images: np.ndarray      # (4, T, D, D + 1) complex


class WaveFunction:
    """A finite sum of BilinearPhaseTerm sharing one hbar.

    Instances are canonical: terms whose phase tuples share the merge cell
    round(k / hbar / PHASE_MERGE_TOL) in every entry k are merged by polynomial
    addition under the cell's smallest tuple, whatever the input order; zero
    coefficients are dropped, amplitudes are folded into the prefactor, and
    terms are sorted by (c0, cq, cp, cqp).  The zero wave function has no
    terms.  The state is arrays (_store): the sorted (K, 4) keys, and one
    row (term, dq, dp, coefficient) per nonzero monomial, sorted by (term,
    dq, dp), in the tuple _state = (keys, rows, dq, dp, coefficients).
    terms, one BilinearPhaseTerm per key, is built from them on first read
    and then cached.  The constructor (so single and from_json), +, - and
    the exponentials make keys or meet two operands: they merge flat arrays
    of rows (_merge), on a stable lexsort of the keys.  The transforms that
    keep every key map a dense pack of coefficients instead (_map_terms).
    Each key is checked once, where it is made: by the term constructor, or
    by one _checked_key call on all keys of an exponential.

    The form is not unique for equal functions: a constant phase can sit in
    c0 or in the coefficients, so single(1, 0.5, 0, 0, 0) and
    single(cmath.exp(0.5j), 0, 0, 0, 0) are equal pointwise but have
    max_coeff_residual 1.0.  Compare such functions pointwise.
    """

    __slots__ = ("hbar", "_state", "_terms", "_pack")

    def __init__(self, terms: Iterable[BilinearPhaseTerm], hbar: float | None = None):
        terms = list(terms)
        if hbar is None:
            if not terms:
                raise ValueError("hbar is required for the empty wave function")
            hbar = terms[0].hbar
        _check_hbar(hbar)
        for t in terms:
            if t.hbar != hbar:  # so every key below was checked at this hbar
                raise ValueError("all terms must share one hbar")
        live = [t for t in terms if t.amplitude != 0]  # a zero amplitude opens no cell
        self._merge(*_flat(live, [t.amplitude * c for t in live for c in t.prefactor.values()]),
                    hbar)

    def _merge(self, keys, entry, dq, dp, coefficients, hbar: float) -> "WaveFunction":
        """Make this the canonical sum of entries at a valid hbar and return it.
        Entry e has the key keys[e], checked at hbar (_checked_key), and the
        rows (e, dq, dp, c) of the flat arrays entry, dq, dp, coefficients:
        memory linear in entries and rows.  A stable lexsort puts the entries
        in key order.  Their cells rint(key / hbar / PHASE_MERGE_TOL), half to
        even as round, group them in order of first appearance, under each
        cell's first, least, key: a second lexsort brings equal cells together
        where other keys sit between them.  Per group and monomial, bincount
        sums the real and the imaginary parts from 0 in key, then row order:
        the running sum 0j + c1 + c2 + ... of complex addition, which sets no
        floating-point flag.  Zero sums are dropped (_store)."""
        self.hbar = hbar
        if not entry.size:  # no monomial at all
            return self._store(keys, entry, dq, dp, coefficients)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        cells = np.rint(keys / hbar / PHASE_MERGE_TOL)
        by_cell = np.lexsort(cells.T[::-1])  # in key order within a cell
        cells = cells[by_cell]
        new = np.concatenate(([True], (cells[1:] != cells[:-1]).any(1)))
        # Per row, its entry's place in cell order and the key-order place of
        # the first key of its cell.
        place = order[by_cell].argsort(kind="stable")[entry]
        first = by_cell[new][new.cumsum() - 1][place]
        rows = np.lexsort((place, dp, dq, first))
        cols = np.array([first, dq, dp])[:, rows]
        slot = np.concatenate(([True], (cols[:, 1:] != cols[:, :-1]).any(0)))
        index, parts = slot.cumsum() - 1, coefficients[rows]
        sums = np.empty(index[-1] + 1, dtype=complex)
        sums.real, sums.imag = np.bincount(index, parts.real), np.bincount(index, parts.imag)
        nonzero = sums != 0
        slot[slot] = nonzero
        return self._store(keys, *cols[:, slot], sums[nonzero])

    def _store(self, keys, rows, dq, dp, coefficients) -> "WaveFunction":
        """Make the nonzero coefficients sorted by (row, dq, dp), each of the key
        keys[row], the state of self and return it; keys with no row are left
        out.  ValueError for the first coefficient that is not finite."""
        finite = np.isfinite(coefficients)  # inf and nan are nonzero
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"prefactor[{int(dq[i]), int(dp[i])}]={coefficients[i].item()} of the "
                             f"term at phase key {tuple(keys[rows[i]].tolist())} is not finite")
        live = np.bincount(rows, minlength=len(keys)).nonzero()[0]  # keys with a row
        self._state = (keys[live], live.searchsorted(rows), dq, dp, coefficients)
        self._terms = self._pack = None
        return self

    @property
    def terms(self) -> tuple:
        """One BilinearPhaseTerm (_canonical) per key, built on first read and
        then cached; the prefactors share one tuple per distinct monomial."""
        if self._terms is None:
            keys, rows, dq, dp, coefficients = self._state
            counts = np.bincount(rows, minlength=len(keys)).tolist()
            shared = {}
            mons = [shared.setdefault(mon, mon) for mon in zip(dq.tolist(), dp.tolist())]
            pairs, make = zip(mons, coefficients.tolist()), BilinearPhaseTerm._canonical
            self._terms = tuple([make(key, dict(islice(pairs, n)), self.hbar)
                                 for key, n in zip(keys.tolist(), counts)])
        return self._terms

    @terms.setter
    def terms(self, terms) -> None:
        """Set canonical terms (unit amplitudes, sorted prefactors) in place,
        unchecked: the state arrays are read off them."""
        self._terms = terms = tuple(terms)
        self._state = _flat(terms, [c for t in terms for c in t.prefactor.values()])
        self._pack = None

    @classmethod
    def zero(cls, hbar: float = 1.0) -> "WaveFunction":
        return cls([], hbar=hbar)

    @classmethod
    def single(cls, amplitude, c0, cq, cp, cqp, prefactor=None, hbar=1.0) -> "WaveFunction":
        """The canonical form of one BilinearPhaseTerm, which checks its input."""
        prefactor = {(0, 0): 1.0 + 0.0j} if prefactor is None else prefactor
        return cls([BilinearPhaseTerm(amplitude, c0, cq, cp, cqp, prefactor, hbar)], hbar)

    def is_zero(self) -> bool:
        return not len(self._state[0])

    def max_abs_coeff(self) -> float:
        """Largest coefficient magnitude over all terms and monomials."""
        return max(map(abs, self._state[-1].tolist()), default=0.0)

    def evaluate(self, q, p):
        """Pointwise value; accepts scalars or broadcastable numpy arrays.
        Each term's values are added into the output as they are made."""
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        out = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for t in self.terms:
            out += t.evaluate(q, p)
        return complex(out) if out.ndim == 0 else out

    def _packed(self) -> _Pack:
        """The state arrays as a dense pack (_Pack), made on first use and kept
        until the state is replaced.  Above 1 MiB the memory guard refuses it with
        MemoryError before it is allocated, asked for its traced peak: 16 T (9 D^2
        + 4 D (D + 1) + 32) bytes + 512 KiB.  Called by _map_terms, under its errstate."""
        if self._pack is not None:
            return self._pack
        (keys, rows, dq, dp, coefficients), hbar = self._state, self.hbar
        size = 1 + int(max(dq.max(initial=0), dp.max(initial=0)))
        need = 16 * len(keys) * (9 * size * size + 4 * size * (size + 1) + 32) + 2**19
        if need > 1 << 20:  # a smaller pack costs less than the guard's read of meminfo
            _require_memory(f"packing {len(keys)} terms with exponents below {size}", need)
        coeffs = np.zeros((len(keys), size, size), dtype=complex)
        coeffs[rows, dq, dp] = coefficients
        factors = (keys @ _FACTOR_MAP).reshape(-1, 4, 2).swapaxes(0, 1) + _FACTOR_SHIFT[:, None]
        down = (_SIGN * (1j * hbar)) * np.arange(1, size + 1)
        axis_first = np.array([_turned(coeffs, row.axis == 1) for row in _ROWS])
        images = _row_image(axis_first, factors, down[:, None])
        self._pack = pack = _Pack(keys, coeffs, factors, down, images)
        return pack

    def _map_terms(self, image) -> "WaveFunction":
        """Each term of self under its own key, with the nonzero entries of
        image(self._packed()), a (T, Dq, Dp) complex array, as its prefactor
        (_store): the keys stay one per cell, ascending, with no merge.  image
        sums each entry from 0 in the merge's order: the merge's bits."""
        with np.errstate(over="ignore", invalid="ignore"):
            pack = self._packed()
            coeffs = image(pack)
        rows, dq, dp = coeffs.nonzero()
        out = WaveFunction.__new__(WaveFunction)
        out.hbar = self.hbar
        return out._store(self._state[0], rows, dq, dp, coeffs[rows, dq, dp])

    def scale(self, factor: complex) -> "WaveFunction":
        f = complex(factor)

        def image(pack):
            coeffs = pack.coeffs
            if f == 0:
                # As in the merge, a zero factor contributes nothing, whatever
                # it multiplies.
                return np.zeros_like(coeffs)
            # f c as f.real c + (i f.imag) c: a product with a real or an
            # imaginary factor is exact, where numpy's complex product may fuse
            # a multiply and an add.  + 0.0 turns a -0.0 part into 0.0, as the
            # merge's sums do.
            return coeffs * f.real + coeffs * (1j * f.imag) + 0.0

        return self._map_terms(image)

    def __add__(self, other: "WaveFunction") -> "WaveFunction":
        return self._combine(other, 1.0 + 0.0j)

    def __sub__(self, other: "WaveFunction") -> "WaveFunction":
        return self._combine(other, -1.0 + 0.0j)

    def _combine(self, other: "WaveFunction", factor: complex) -> "WaveFunction":
        """self + factor * other, factor 1 or -1, in one merge of both states."""
        if other.hbar != self.hbar:
            raise ValueError("cannot add wave functions with different hbar")
        keys, rows, dq, dp, coefficients = other._state
        scaled = (keys, rows + len(self._state[0]), dq, dp, coefficients * factor)
        flat = [np.concatenate(pair) for pair in zip(self._state, scaled)]
        return WaveFunction.__new__(WaveFunction)._merge(*flat, self.hbar)

    def max_coeff_residual(self, other: "WaveFunction") -> float:
        """Largest coefficient of (self - other); zero iff coefficient-equal.

        Terms whose phase tuples share a merge cell are compared as one term.
        Equal functions that split a constant phase differently between c0 and
        the coefficients have a nonzero residual; compare them pointwise.
        """
        pairs = zip(self._state, other._state)
        if self.hbar == other.hbar and all(a.tobytes() == b.tobytes() for a, b in pairs):
            return 0.0  # equal terms: each sum is c - c = 0
        return (self - other).max_abs_coeff()

    # -- canonical JSON serialization ------------------------------------

    def to_json(self) -> str:
        """The terms as JSON, written from the state arrays: unit amplitudes."""
        keys, rows, dq, dp, coefficients = self._state
        counts = np.bincount(rows, minlength=len(keys)).tolist()
        mons = zip(dq.tolist(), dp.tolist(), coefficients.real.tolist(), coefficients.imag.tolist())
        return json.dumps({"hbar": self.hbar, "terms": [
            {"amp": [1.0, 0.0], "c0": c0, "cq": cq, "cp": cp, "cqp": cqp,
             "prefactor": list(islice(mons, n))}
            for (c0, cq, cp, cqp), n in zip(keys.tolist(), counts)]})

    @classmethod
    def from_json(cls, text: str) -> "WaveFunction":
        data = json.loads(text)
        hbar = float(data["hbar"])
        return cls([
            BilinearPhaseTerm(
                complex(*td["amp"]), td["c0"], td["cq"], td["cp"], td["cqp"],
                prefactor={(dq, dp): complex(re, im) for dq, dp, re, im in td["prefactor"]},
                hbar=hbar,
            )
            for td in data["terms"]
        ], hbar=hbar)

    def __repr__(self):
        return f"WaveFunction({len(self._state[0])} terms, hbar={self.hbar})"


# -- the four operators ---------------------------------------------------

def _row_image(coeffs: np.ndarray, factors: np.ndarray, down: np.ndarray) -> np.ndarray:
    """A first-order operator on the coefficient arrays of all terms at once,
    axis first: coeffs is (..., T, Da, Do), entry [t, i, j] the coefficient
    of x^i y^j in term t, with x the differentiated coordinate and y the
    other one.  factors (..., T, 2) are each term's up and self factors, and
    down (..., 1, >= Da - 1) the down factors by degree 1, 2, ... of x.
    Entry [t, i, j] of the (..., T, Da, Do + 1) result is

        0 + coeffs[t, i, j-1] up + coeffs[t, i, j] self + coeffs[t, i+1, j] down[i]

    summed in that order, the order in which the merge adds each monomial's
    contributions: y raises j, d/dx lowers i.  Under a row of OperatorKind the
    factors are those of _Pack, and commutator_apply applies the formula to
    two of the pack's images once more."""
    size, other = coeffs.shape[-2:]
    out = np.zeros(coeffs.shape[:-1] + (other + 1,), dtype=complex)
    up, here = out[..., 1:], out[..., :-1]
    np.add(up, coeffs * factors[..., 0, None, None], out=up)
    np.add(here, coeffs * factors[..., 1, None, None], out=here)
    here = here[..., :-1, :]
    np.add(here, coeffs[..., 1:, :] * down[..., :size - 1, None], out=here)
    return out


def _turned(coeffs: np.ndarray, turn: bool) -> np.ndarray:
    """coeffs with its last two axes swapped when turn is true."""
    return coeffs.swapaxes(-1, -2) if turn else coeffs


def apply_operator(kind: OperatorKind, wf: WaveFunction) -> WaveFunction:
    """Apply one of the four operators, exactly.

    With x the row's axis, y the other coordinate and the phase gradient
    d_x phase = c_x + cqp y, the row's operator maps P e^{i phase/hbar} to

        ((multiplies - sign cqp) y - sign c_x) P + sign i hbar dP/dx

    times the same phase.  Differentiation lowers prefactor exponents and
    multiplication by y raises them by one.  No division by hbar occurs,
    which keeps results exact for exactly representable inputs.  Every
    phase key is kept, so the coefficient array of all terms is mapped at
    once (_map_terms, _row_image).
    """
    axis, index = kind.value.axis, _KIND_INDEX[kind]
    return wf._map_terms(lambda pack: _turned(pack.images[index], axis == 1))


def commutator_apply(kind_a: OperatorKind, kind_b: OperatorKind, wf: WaveFunction) -> WaveFunction:
    """(AB - BA) wf, computed symbolically.

    Equals i*hbar*wf for (Q_LEFT, P_LEFT) and (Q_RIGHT, P_RIGHT), and the zero
    wave function for every mixed left/right pair.  Expects a canonical,
    nonzero wave function.  The operators keep phase keys, so A(B P) and
    B(A P) are formed on the coefficient arrays of all terms at once: the
    packed first images B P and A P, stacked, go through one call of
    _row_image under A and B, and their difference is read back
    (_map_terms).  The result has the bytes of AB wf - BA wf formed with
    apply_operator and `-`.
    """
    axis_a, axis_b = kind_a.value.axis, kind_b.value.axis
    turn = axis_a != axis_b  # each image is axis first for the other operator
    index_a, index_b = _KIND_INDEX[kind_a], _KIND_INDEX[kind_b]

    def image(pack):
        once = pack.images[[index_b, index_a]]
        index = [index_a, index_b]
        twice = _row_image(_turned(once, turn), pack.factors[index], pack.down[index, None])
        return _turned(twice[0] - _turned(twice[1], turn), axis_a == 1)

    return wf._map_terms(image)


def differentiate(wf: WaveFunction, var: str) -> WaveFunction:
    """Exact partial derivative d/dq or d/dp of a family member.

    Provided separately from apply_operator so that covariant-derivative
    identities can be assembled through an independent code path: its own
    factors, through the shared _row_image.
    """
    if var not in ("q", "p"):
        raise ValueError(f"var must be 'q' or 'p', got {var!r}")
    axis = "qp".index(var)

    def image(pack):
        # With y the other variable: dP/dx + (i/hbar)(c_x + cqp y) P
        coeffs = _turned(pack.coeffs, axis == 1)
        factors = 1j * (pack.keys[:, [3, 1 + axis]] / wf.hbar)
        degrees = np.arange(1, coeffs.shape[-2])[None]
        return _turned(_row_image(coeffs, factors, degrees), axis == 1)

    return wf._map_terms(image)


def exp_affine_map(kind: OperatorKind,
                   coefficient: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The exponential of `kind` with coefficient s as an affine substitution.

    Returns ((sq, sp), (aq, ap)) such that exp(sign * i s X / hbar) maps
    f(q, p) to e^{i (aq q + ap p)/hbar} f(q - sq, p - sp): a translation by
    s along the row's axis, and a linear phase sign * s in the other
    coordinate when the row multiplies by it.
    """
    axis, sign, multiplies = kind.value
    shift, phase = [0.0, 0.0], [0.0, 0.0]
    shift[axis] = coefficient
    if multiplies:
        phase[1 - axis] = sign * coefficient
    return tuple(shift), tuple(phase)


def exp_key_map(kind: OperatorKind, coefficient: float):
    """The phase-key map of the exponential of `kind` with coefficient s.

    Returns a function of (c0, cq, cp, cqp) giving the phase key of the
    image of e^{i (c0 + cq q + cp p + cqp q p)/hbar}: the row's linear phase
    (aq, ap) is added, then the translation (sq, sp) of exp_affine_map, along
    one axis so that sq sp = 0 and no cqp sq sp term arises, is substituted
    into the phase polynomial.  The map takes floats or numpy arrays of keys
    alike: exp_operator_apply applies it to the keys of all terms, and
    torusq.finite.table1_verify to whole arrays of basis-state keys.
    """
    (sq, sp), (aq, ap) = exp_affine_map(kind, coefficient)

    def key_map(c0, cq, cp, cqp):
        cq, cp = cq + aq, cp + ap
        return c0 - cq * sq - cp * sp, cq - cqp * sp, cp - cqp * sq, cqp

    return key_map


@np.errstate(over="ignore", invalid="ignore")  # overflows raise ValueError, not warnings
def exp_operator_apply(kind: OperatorKind, coefficient: float, wf: WaveFunction) -> WaveFunction:
    """Apply the exponential of an operator as an exact affine substitution.

    With s = coefficient, the rows of OperatorKind give

        Q_RIGHT: exp(+i s Q_RIGHT / hbar)  f(q, p) -> f(q, p - s)
        P_LEFT:  exp(-i s P_LEFT / hbar)   f(q, p) -> f(q - s, p)
        Q_LEFT:  exp(+i s Q_LEFT / hbar)   f(q, p) -> e^{i s q/hbar} f(q, p - s)
        P_RIGHT: exp(+i s P_RIGHT / hbar)  f(q, p) -> e^{i s p/hbar} f(q - s, p)

    (see exp_affine_map), which agree term by term with the operator Taylor
    series, so no input leaves the family.  All (T, 4) keys go through
    exp_key_map and one _checked_key call.  Each monomial of degree d along
    the translated axis gives d + 1 rows of degrees i = 0 .. d; its real and
    imaginary parts are multiplied by the float C(d, i) (-s)^(d - i) apart,
    since numpy's complex product may fuse a multiply and an add.  One merge
    sums the rows.  Only an overflowing key or coefficient raises ValueError.
    """
    s, axis = float(coefficient), kind.value.axis
    keys, entry, dq, dp, coefficients = wf._state
    keys = _checked_key(np.stack(exp_key_map(kind, s)(*keys.T), axis=-1), wf.hbar)
    degree = (dq, dp)[axis]
    source = np.arange(len(degree)).repeat(degree + 1)
    i = np.arange(len(source)) - ((degree + 1).cumsum() - degree - 1)[source]
    degrees, which = np.unique(degree, return_inverse=True)
    try:  # the weights of degree d, i = 0 .. d, one block per distinct d
        table = np.array([math.comb(d, k) * (-s) ** (d - k)
                          for d in degrees.tolist() for k in range(d + 1)])
    except OverflowError as exc:  # a binomial factor beyond the float range
        raise ValueError(f"a prefactor coefficient of exp({kind.name}) with coefficient {s} "
                         f"is not finite: {exc}") from None
    weight = table[((degrees + 1).cumsum() - degrees - 1)[which][source] + i]
    out = coefficients[source]
    out.real *= weight
    out.imag *= weight
    mons = (i, dp[source]) if axis == 0 else (dq[source], i)
    return WaveFunction.__new__(WaveFunction)._merge(keys, entry[source], *mons, out, wf.hbar)


def is_eigenstate(kind: OperatorKind, wf: WaveFunction):
    """Eigenvalue of `kind` on `wf` when one exists, else None.

    Applies the operator and runs a ratio test over canonical coefficients:
    the result must keep every term (apply_operator copies the phase tuples)
    and its monomial support, with one constant complex ratio throughout.
    Returns 0j when the operator annihilates the state.
    """
    if wf.is_zero():
        raise ValueError("eigenvalue requested for the zero wave function")
    applied = apply_operator(kind, wf)
    if applied.is_zero():
        return 0j
    pairs = list(zip(applied.terms, wf.terms))
    if len(applied.terms) != len(wf.terms) or any(
            set(ta.prefactor) != set(tw.prefactor) for ta, tw in pairs):
        return None
    ratios = [ta.prefactor[mon] / cw for ta, tw in pairs for mon, cw in tw.prefactor.items()]
    lam = ratios[0]
    if any(abs(r - lam) > EIGEN_RATIO_TOL * max(1.0, abs(lam)) for r in ratios):
        return None
    return lam


# -- seeded random family members -----------------------------------------

def dyadic(draw) -> float:
    """A random integer in [-8, 8] over 8 from draw(lo, hi), the one seeded
    draw: an int in [lo, hi), e.g. random.Random.randrange or numpy's
    Generator.integers."""
    return float(draw(-8, 9)) / 8.0


def random_wavefunction(draw, hbar: float = 1.0) -> WaveFunction:
    """A random nonzero canonical family member with dyadic coefficients.

    draw(lo, hi) is the one seeded draw, as in dyadic.  The member has up to
    3 terms of up to 3 monomials of degree at most 2 in each variable.  Every
    product and sum the operators form from such inputs is exactly
    representable in binary floating point, so coefficient identities hold
    with literally zero residual.
    """
    terms = []
    for _ in range(int(draw(1, 4))):
        pref = {}
        for _ in range(int(draw(1, 4))):
            mon = (int(draw(0, 3)), int(draw(0, 3)))
            pref[mon] = complex(dyadic(draw), dyadic(draw))
        amp_re = 0.0
        while amp_re == 0.0:
            amp_re = dyadic(draw)
        terms.append(
            BilinearPhaseTerm(
                complex(amp_re, dyadic(draw)),
                dyadic(draw), dyadic(draw), dyadic(draw), dyadic(draw),
                prefactor=pref, hbar=hbar,
            )
        )
    wf = WaveFunction(terms, hbar=hbar)
    if wf.is_zero():
        return WaveFunction.single(1.0, 0.0, 0.25, -0.5, 1.0, hbar=hbar)
    return wf
