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
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, NamedTuple

import numpy as np

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


def _checked_key(key, hbar: float) -> tuple:
    """The phase key as floats, -0.0 as 0.0; ValueError if a merge cell is not finite."""
    floats = []
    for name, k in zip(_PHASE_NAMES, key):
        k = float(k) or 0.0  # -0.0 becomes 0.0
        if not math.isfinite(k / hbar / PHASE_MERGE_TOL):
            raise ValueError(f"phase coefficient {name}={k} has no finite merge cell "
                             f"at hbar={hbar}")
        floats.append(k)
    return tuple(floats)


@dataclass(frozen=True)
class BilinearPhaseTerm:
    """A single term amplitude * prefactor(q, p) * exp(i*phase(q, p)/hbar).

    The phase polynomial is c0 + cq*q + cp*p + cqp*q*p with real coefficients
    carrying units of action (they are divided by hbar on evaluation).  The
    prefactor maps exponent pairs (dq, dp) to complex coefficients.  Phase
    coefficients k are stored as floats, -0.0 as 0.0; k / hbar /
    PHASE_MERGE_TOL must be finite, and so must the amplitude and every
    prefactor coefficient; prefactor exponents are non-negative ints.
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
        for name, k in zip(_PHASE_NAMES, _checked_key(self.phase_key, self.hbar)):
            object.__setattr__(self, name, k)
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
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "prefactor", prefactor)

    @property
    def phase_key(self) -> tuple[float, float, float, float]:
        return (self.c0, self.cq, self.cp, self.cqp)

    @classmethod
    def _canonical(cls, key: tuple, prefactor: dict, hbar: float) -> "BilinearPhaseTerm":
        """The unit-amplitude term of a key checked at a valid hbar (_checked_key)
        and a prefactor of int monomials and complex coefficients, built without
        __post_init__: the one constructor of canonical output terms."""
        term = object.__new__(cls)
        set_field = object.__setattr__
        set_field(term, "amplitude", 1.0 + 0.0j)
        set_field(term, "c0", key[0])
        set_field(term, "cq", key[1])
        set_field(term, "cp", key[2])
        set_field(term, "cqp", key[3])
        set_field(term, "prefactor", prefactor)
        set_field(term, "hbar", hbar)
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


def _nonzero_sorted(sums: dict) -> dict:
    """A prefactor's monomial sums, sorted by monomial, zero coefficients dropped."""
    return {mon: c for mon, c in sorted(sums.items()) if c != 0}


def _not_finite(key: tuple, mon: tuple, c: complex) -> ValueError:
    """The error for an output coefficient that overflowed to inf or nan."""
    return ValueError(f"prefactor[{mon}]={c} of the term at phase key {key} is not finite")


class _Pack(NamedTuple):
    """A wave function's T terms as arrays (WaveFunction._packed).

    coeffs[t, dq, dp] is the coefficient of q^dq p^dp in term t, zero where
    the term has none, for exponents below D; _turned(coeffs, axis == 1) has
    the differentiated axis of a row first.  factors[k, t] holds the up and
    self factors of term t under the row of the k-th OperatorKind,
    (multiplies - sign cqp, -sign c_axis), and down[k, d - 1] its down
    factor for degree d, sign i hbar d, for d = 1 .. D (see _row_image).
    images[k] is the image of coeffs under that row, axis first:
    apply_operator reads it, and commutator_apply applies the second
    operator to it."""

    terms: tuple            # the terms packed, so a reassigned tuple is packed anew
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
    terms are sorted by (c0, cq, cp, cqp).  The zero wave function has an
    empty term list.  So the terms of an instance have strictly ascending
    keys, one per merge cell: a transform that keeps every key (_map_terms)
    maps the coefficient array of all terms at once and keeps each term's
    key, and only the producers that make keys or meet two operands merge
    (_merge).  The array is packed once per instance, on first use
    (_packed).

    The form is not unique for equal functions: a constant phase can sit in
    c0 or in the coefficients, so single(1, 0.5, 0, 0, 0) and
    single(cmath.exp(0.5j), 0, 0, 0, 0) are equal pointwise but have
    max_coeff_residual 1.0.  Compare such functions pointwise.
    """

    __slots__ = ("hbar", "terms", "_pack")

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
        self._merge([(t.phase_key, t.amplitude, t.prefactor.items()) for t in terms], hbar)

    def _merge(self, entries, hbar: float) -> "WaveFunction":
        """Make this the canonical sum of entries (phase key, amplitude, pairs) for a
        valid hbar and return it; an entry is amplitude * sum(c q^dq p^dp) e^{i phase/hbar}.
        Where keys are made or two operands meet, wave functions get their terms here:
        the constructor (so single and from_json), +, - and exp_operator_apply.
        Sorted entries open cells at their least key.

        The merge checks its output coefficients only: every key must already be
        checked at hbar (the key of a term at hbar, or _checked_key's output), every
        amplitude complex and every pair an (int monomial, number) pair; a sum or
        product that overflows to inf or nan raises ValueError.  Then each output
        term is built by BilinearPhaseTerm._canonical."""
        keyed = sorted(entries, key=itemgetter(0))
        cells: dict[tuple, tuple[tuple, dict]] = {}
        for key, amp, pairs in keyed:
            if amp == 0:
                continue
            cell = tuple([round(k / hbar / PHASE_MERGE_TOL) for k in key])
            pref = cells.setdefault(cell, (key, {}))[1]
            for mon, c in pairs:
                pref[mon] = pref.get(mon, 0j) + amp * c
        canon = []
        make = BilinearPhaseTerm._canonical
        for key, pref in cells.values():
            pref = _nonzero_sorted(pref)
            if pref:
                if not all(map(cmath.isfinite, pref.values())):
                    raise _not_finite(key, *next((mon, c) for mon, c in pref.items()
                                                 if not cmath.isfinite(c)))
                canon.append(make(key, pref, hbar))
        self.hbar, self.terms = hbar, tuple(canon)
        return self

    @classmethod
    def zero(cls, hbar: float = 1.0) -> "WaveFunction":
        return cls([], hbar=hbar)

    @classmethod
    def single(cls, amplitude, c0, cq, cp, cqp, prefactor=None, hbar=1.0) -> "WaveFunction":
        """The canonical form of one BilinearPhaseTerm, which checks its input."""
        prefactor = {(0, 0): 1.0 + 0.0j} if prefactor is None else prefactor
        return cls([BilinearPhaseTerm(amplitude, c0, cq, cp, cqp, prefactor, hbar)], hbar)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        """Largest coefficient magnitude over all terms and monomials."""
        return max((abs(c) for t in self.terms for c in t.prefactor.values()), default=0.0)

    def evaluate(self, q, p):
        """Pointwise value; accepts scalars or broadcastable numpy arrays.
        Each term's values are added into the output as they are made."""
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        out = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for t in self.terms:
            out += t.evaluate(q, p)
        return complex(out) if out.ndim == 0 else out

    def _packed(self) -> _Pack:
        """The terms as arrays (_Pack), packed on first use and kept until the
        terms tuple is replaced.  Called by _map_terms, under its errstate."""
        pack = getattr(self, "_pack", None)
        if pack is not None and pack.terms is self.terms:
            return pack
        terms, hbar = self.terms, self.hbar
        size = 1 + max((max(mon) for t in terms for mon in t.prefactor), default=0)
        coeffs = np.zeros((len(terms), size, size), dtype=complex)
        flat = [(i * size + dq) * size + dp for i, t in enumerate(terms) for dq, dp in t.prefactor]
        coeffs.put(flat, [c for t in terms for c in t.prefactor.values()])
        keys = np.array([t.phase_key for t in terms], dtype=float).reshape(-1, 4)
        factors = (keys @ _FACTOR_MAP).reshape(-1, 4, 2).swapaxes(0, 1) + _FACTOR_SHIFT[:, None]
        down = (_SIGN * (1j * hbar)) * np.arange(1, size + 1)
        axis_first = np.array([_turned(coeffs, row.axis == 1) for row in _ROWS])
        images = _row_image(axis_first, factors, down[:, None])
        self._pack = pack = _Pack(terms, keys, coeffs, factors, down, images)
        return pack

    def _map_terms(self, image) -> "WaveFunction":
        """Each term of self under its own key with the prefactor read from
        image(self._packed()), a (T, Dq, Dp) complex array like its coeffs:
        its nonzero entries by term, sorted by monomial.  Terms left without
        one are dropped.  The keys of self are strictly ascending, one per
        merge cell, so keeping them keeps the form canonical with no sort,
        cell or merge.  image sums each entry from 0 in the merge's order, so
        for finite coefficients the result is the merge's to the last bit; a
        coefficient that overflows to inf or nan raises ValueError.  Terms
        come from _canonical."""
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = image(self._packed())
        canon = []
        rows, dq, dp = np.nonzero(coeffs)
        if rows.size:  # else every term is dropped
            coefficients = coeffs[rows, dq, dp].tolist()
            mons = list(zip(dq.tolist(), dp.tolist()))
            if not all(map(cmath.isfinite, coefficients)):  # inf and nan are nonzero
                i = next(i for i, c in enumerate(coefficients) if not cmath.isfinite(c))
                raise _not_finite(self.terms[rows[i]].phase_key, mons[i], coefficients[i])
            ends = accumulate(np.bincount(rows, minlength=len(self.terms)).tolist())
            start, make = 0, BilinearPhaseTerm._canonical
            for t, end in zip(self.terms, ends):
                if end > start:
                    pref = dict(zip(mons[start:end], coefficients[start:end]))
                    canon.append(make(t.phase_key, pref, self.hbar))
                start = end
        out = WaveFunction.__new__(WaveFunction)
        out.hbar, out.terms = self.hbar, tuple(canon)
        return out

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
        return self._combine((self, 1.0 + 0.0j), (other, 1.0 + 0.0j))

    def __sub__(self, other: "WaveFunction") -> "WaveFunction":
        return self._combine((self, 1.0 + 0.0j), (other, -1.0 + 0.0j))

    def _combine(self, *parts) -> "WaveFunction":
        """The sum of factor * wf over parts (wf, factor), in one merge."""
        if any(wf.hbar != self.hbar for wf, _ in parts):
            raise ValueError("cannot add wave functions with different hbar")
        entries = ((t.phase_key, f, t.prefactor.items()) for wf, f in parts for t in wf.terms)
        return WaveFunction.__new__(WaveFunction)._merge(entries, self.hbar)

    def max_coeff_residual(self, other: "WaveFunction") -> float:
        """Largest coefficient of (self - other); zero iff coefficient-equal.

        Terms whose phase tuples share a merge cell are compared as one term.
        Equal functions that split a constant phase differently between c0 and
        the coefficients have a nonzero residual; compare them pointwise.
        """
        return (self - other).max_abs_coeff()

    # -- canonical JSON serialization ------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "hbar": self.hbar,
            "terms": [
                {
                    "amp": [t.amplitude.real, t.amplitude.imag],
                    "c0": t.c0,
                    "cq": t.cq,
                    "cp": t.cp,
                    "cqp": t.cqp,
                    "prefactor": [
                        [dq, dp, c.real, c.imag]
                        for (dq, dp), c in sorted(t.prefactor.items())
                    ],
                }
                for t in self.terms
            ],
        })

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
        return f"WaveFunction({len(self.terms)} terms, hbar={self.hbar})"


# -- the four operators ---------------------------------------------------

def _row_image(coeffs: np.ndarray, factors: np.ndarray, down: np.ndarray) -> np.ndarray:
    """A first-order operator on the coefficient arrays of all terms at once,
    axis first: coeffs is (..., T, Da, Do), entry [t, i, j] the coefficient
    of x^i y^j in term t, with x the differentiated coordinate and y the
    other one.  factors (..., T, 2) are each term's up and self factors, and
    down (..., 1, >= Da - 1) the down factors by degree 1, 2, ... of x.
    Entry [t, i, j] of the (..., T, Da, Do + 1) result is

        0 + coeffs[t, i, j-1] up + coeffs[t, i, j] self + coeffs[t, i+1, j] down[i]

    summed in that order, the order in which the dict form adds each monomial
    over a sorted prefactor: y raises j, d/dx lowers i.  Under a row of
    OperatorKind (apply_operator's formula) the up factor is multiplies -
    sign cqp, the self factor -sign c_x and the down factor sign i hbar d
    (_Pack); the pack holds every row's image of its coefficients, and
    commutator_apply applies the formula once more, to two of them."""
    size, other = coeffs.shape[-2:]
    products = coeffs[..., None] * factors[..., None, None, :]
    out = np.zeros(products.shape[:-2] + (other + 1,), dtype=complex)
    up, here = out[..., 1:], out[..., :-1]
    np.add(up, products[..., 0], out=up)
    np.add(here, products[..., 1], out=here)
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
    alike; exp_operator_apply applies it to each term, and
    torusq.finite.table1_verify to whole arrays of basis-state keys.
    """
    (sq, sp), (aq, ap) = exp_affine_map(kind, coefficient)

    def key_map(c0, cq, cp, cqp):
        cq, cp = cq + aq, cp + ap
        return c0 - cq * sq - cp * sp, cq - cqp * sp, cp - cqp * sq, cqp

    return key_map


def exp_operator_apply(kind: OperatorKind, coefficient: float, wf: WaveFunction) -> WaveFunction:
    """Apply the exponential of an operator as an exact affine substitution.

    With s = coefficient, the rows of OperatorKind give

        Q_RIGHT: exp(+i s Q_RIGHT / hbar)  f(q, p) -> f(q, p - s)
        P_LEFT:  exp(-i s P_LEFT / hbar)   f(q, p) -> f(q - s, p)
        Q_LEFT:  exp(+i s Q_LEFT / hbar)   f(q, p) -> e^{i s q/hbar} f(q, p - s)
        P_RIGHT: exp(+i s P_RIGHT / hbar)  f(q, p) -> e^{i s p/hbar} f(q - s, p)

    (see exp_affine_map).  Each map agrees term by term with the operator
    Taylor series because the family is closed under translations and
    linear-phase multiplication; no input can leave the family, and only a
    key or a coefficient that overflows raises ValueError.  The phase and
    the translation act on different coordinates, so they commute and are
    applied in one pass: the phase coefficients are added first, then the
    shifted phase polynomial (exp_key_map) and the binomial expansion of each
    monomial along the one translated axis give f(q - sq, p - sp).
    """
    s = float(coefficient)
    axis = kind.value.axis
    key_map = exp_key_map(kind, s)

    def pairs(prefactor):
        for (a, b), c in prefactor.items():
            degree = (a, b)[axis]
            for i in range(degree + 1):
                yield ((i, b), (a, i))[axis], c * (math.comb(degree, i) * (-s) ** (degree - i))

    # The only transform that makes new phase keys, so the only one that checks
    # them and the only one that merges: two keys may land in one cell.
    try:
        return WaveFunction.__new__(WaveFunction)._merge(
            ((_checked_key(key_map(*t.phase_key), t.hbar), 1.0 + 0.0j, pairs(t.prefactor))
             for t in wf.terms), wf.hbar)
    except OverflowError as exc:  # a binomial factor beyond the float range
        raise ValueError(f"a prefactor coefficient of exp({kind.name}) with coefficient {s} "
                         f"is not finite: {exc}") from None


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
