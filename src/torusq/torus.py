"""Torus phase space: geometry, area quantization, charts, bases, and grids.

The torus has period b in the position variable q and period a in the
momentum variable p, with fundamental domain [0, b) x [0, a).  The constant
magnetic field 1/hbar threads the torus with total flux a*b/hbar, so the
construction is consistent only when the area a*b is an integer multiple N
of the Planck constant h.  The diagnostics for failure of that condition
(holonomy around the fundamental domain, non-periodicity of the chart
transition factor) are available for every geometry; the basis factories
require a quantized one.

The two bases obey different boundary conditions.  The P-basis states are
periodic in both q and p.  The Q-basis states are sections rather than
periodic functions: crossing the q-period multiplies them by the transition
factor e^{ibp/hbar} and crossing the p-period by e^{2 pi i N q / b}.  On the
N x N grid (M = N samples per axis) both factors sample to one, the label
equivalences n -> n + N and m -> m + N become exact grid identities, and the
grid carries a faithful copy of the N-dimensional physical space.  The
operator actions themselves are checked on phase keys, not on grids: every
basis state is one term of amplitude 1 whose phase coefficients are integers
in lattice units.  Its key is the plane closed form (plane._basis_key) at the
lattice eigenvalues, read by _basis_key: the factories wrap it, the chart
check compares its boundary factors with the transition data, and the
suites evaluate it on arrays of labels.  The grids serve the
inner products: the dft oracle on M = N, and quadrature on larger multiples
of N.  sample evaluates a state on a grid, for dump and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import plane
from .report import DEFAULT_TOL, CheckResult
from .symbolic import OperatorKind, WaveFunction, exp_affine_map

# a*b/h counts as an integer when within this relative tolerance; inputs may
# arrive as decimal text.
N_DETECT_REL_TOL = 1e-9


@dataclass(frozen=True)
class TorusGeometry:
    """Torus periods and Planck constant, with the derived integer N.

    a is the period in p, b the period in q, h the Planck constant
    (hbar = h / 2 pi).  N is present iff a*b/h is an integer within
    N_DETECT_REL_TOL relative.
    """

    a: float
    b: float
    h: float
    N: int | None

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def quantized(self) -> bool:
        return self.N is not None

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "h": self.h, "N": self.N}


def area_mismatch(a: float, b: float, h: float) -> tuple[int, float, float]:
    """The nearest positive integer to a*b/h, its distance and the tolerance.

    a*b/h is an integer N exactly when distance <= tolerance, with the
    tolerance N_DETECT_REL_TOL relative to a*b/h.
    """
    if a <= 0 or b <= 0 or h <= 0:
        raise ValueError(f"periods and Planck constant must be positive, got a={a}, b={b}, h={h}")
    ratio = a * b / h
    if not math.isfinite(ratio):
        raise ValueError(f"a*b/h is not finite for a={a}, b={b}, h={h}")
    nearest = max(round(ratio), 1)
    return nearest, abs(ratio - nearest), N_DETECT_REL_TOL * ratio


def make_geometry(a: float, b: float, h: float) -> TorusGeometry:
    """Build a TorusGeometry, detecting the integer N = a*b/h when present.

    Construction never fails for positive inputs with finite a*b/h;
    non-quantized geometries are legal for holonomy diagnostics but refuse
    basis construction.
    """
    nearest, distance, tolerance = area_mismatch(a, b, h)
    return TorusGeometry(a, b, h, nearest if distance <= tolerance else None)


def holonomy(geometry: TorusGeometry) -> complex:
    """Phase e^{i a b / hbar} = e^{2 pi i a b / h} picked up around the
    fundamental-domain boundary.  With N present, |holonomy - 1| <=
    2 pi N_DETECT_REL_TOL a b / h up to roundoff, not 1e-12: it is 1.0e-8
    for make_geometry(1.0000000004, 4.0, 1.0), which has N = 4."""
    s = 2.0 * math.pi * (geometry.a * geometry.b / geometry.h)
    return complex(math.cos(s), math.sin(s))


# The transition data as a chirp coefficient: the charts differ by
# e^{i TRANSITION_CQP b p/hbar} across the q-period and by
# e^{i TRANSITION_CQP a q/hbar} across the p-period.
TRANSITION_CQP = 1.0


def transition_function(geometry: TorusGeometry, p: float) -> complex:
    """Chart-overlap gauge factor e^{i b p / hbar} at momentum p.

    Satisfies transition(p + a) / transition(p) = holonomy, so it is
    periodic in p when a*b/h is an exact integer; on a geometry with N
    present the period mismatch is |holonomy - 1| <= 2 pi N_DETECT_REL_TOL
    a b / h, up to roundoff (see holonomy).
    """
    s = TRANSITION_CQP * 2.0 * math.pi * geometry.b * p / geometry.h
    return complex(math.cos(s), math.sin(s))


def _require_quantized(geometry: TorusGeometry) -> int:
    if geometry.N is None:
        raise ValueError(
            "geometry is not quantized (a*b/h is not an integer); "
            "basis construction is not defined"
        )
    return geometry.N


def _basis_key(geometry: TorusGeometry, basis: str, n, m, primed: bool = False) -> tuple:
    """The phase key (c0, cq, cp, cqp) of basis state (n, m) of basis "P" or
    "Q": the plane key (plane._basis_key) at the lattice eigenvalues
    l = n h/a, k = m h/b, with c0 = h n m / N when primed.  The labels are
    ints or numpy integer arrays (then each key entry is an array, or the
    constant cqp); in lattice units (h/N, h/b, h/a, 1) every entry is an
    integer.  Only the primed key needs N, so an unprimed key is defined on
    any geometry."""
    h = geometry.h
    c0 = h * n * m / _require_quantized(geometry) if primed else 0.0
    return plane._basis_key(basis, n * h / geometry.a, m * h / geometry.b, c0)


def make_torus_P_basis(geometry: TorusGeometry, n: int, m: int, primed: bool = False) -> WaveFunction:
    """P-basis state exp(2 pi i (m q / b - n p / a)), periodic in both variables.

    Eigenstate of P_LEFT with eigenvalue m h / b and of Q_RIGHT with
    eigenvalue n h / a = n b / N.  The primed flag multiplies in the constant
    e^{2 pi i n m / N}, the label convention under which the exponentiated
    operators shift (n, m) without extra phases.
    """
    _require_quantized(geometry)
    return WaveFunction.single(1.0, *_basis_key(geometry, "P", n, m, primed), hbar=geometry.hbar)


def make_torus_Q_basis(geometry: TorusGeometry, n: int, m: int, primed: bool = False) -> WaveFunction:
    """Q-basis state on the quantized torus.

    Unprimed: exp(2 pi i (p q / h - m q / b - n p / a)).
    Primed:   exp(2 pi i N (p/a - m/N)(q/b - n/N)), which differs from the
    unprimed form by the constant phase e^{2 pi i n m / N}.

    Eigenstate of Q_LEFT with eigenvalue n h / a = n b / N and of P_RIGHT
    with eigenvalue m h / b = m a / N.
    """
    _require_quantized(geometry)
    return WaveFunction.single(1.0, *_basis_key(geometry, "Q", n, m, primed), hbar=geometry.hbar)


# -- grids ----------------------------------------------------------------
#
# A sampled state is a complex (M, M) array, values[i, j] = f(q = j b/M,
# p = i a/M), row-major.  M must be a positive multiple of N so that the
# operator translations by b/N and a/N land on grid points.  The
# inner product is the equal-weight sum np.vdot(f, g) / M^2, the Riemann sum
# of conj(f) g with measure dq dp / (a b) = dq dp / (N h); it integrates pure
# phases exactly below the grid Nyquist limit.

def grid_coordinates(geometry: TorusGeometry, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The sample coordinates (q_j = j b/M, p_i = i a/M) of the M x M grid.
    M must be a positive multiple of N."""
    N = _require_quantized(geometry)
    if M <= 0 or M % N != 0:
        raise ValueError(f"M must be a positive multiple of N={N}, got M={M}")
    return np.arange(M) * (geometry.b / M), np.arange(M) * (geometry.a / M)


def sample(wf: WaveFunction, geometry: TorusGeometry, M: int) -> np.ndarray:
    """Sample a wave function on the uniform M x M grid over one fundamental
    domain, as the (M, M) array values[i, j] = f(q_j, p_i).

    It is wf.evaluate on the grid coordinates (grid_coordinates), which are
    validated before the array is allocated.
    """
    q, p = grid_coordinates(geometry, M)
    return wf.evaluate(q[None, :], p[:, None])


class GridShift(Enum):
    """The four exponentiated operators as exact grid maps.

    Each member is an (OperatorKind, sign) pair standing for
    exp_operator_apply(kind, sign * step), where step is h/a for rows that
    translate q and h/b for rows that translate p: one label spacing, b/N or
    a/N, on the quantized torus.  With the exponential conventions of the
    rows these are e^{-2 pi i P_LEFT / a}, e^{+2 pi i Q_LEFT / b},
    e^{-2 pi i P_RIGHT / a} and e^{+2 pi i Q_RIGHT / b}.
    """

    EXP_PLEFT = (OperatorKind.P_LEFT, +1)
    EXP_QLEFT = (OperatorKind.Q_LEFT, +1)
    EXP_PRIGHT = (OperatorKind.P_RIGHT, -1)
    EXP_QRIGHT = (OperatorKind.Q_RIGHT, +1)


def grid_shift_coefficient(which: GridShift, geometry: TorusGeometry) -> tuple[OperatorKind, float]:
    """(kind, s) such that `which` is exp_operator_apply(kind, s)."""
    kind, sign = which.value
    return kind, sign * geometry.h / (geometry.a, geometry.b)[kind.value.axis]


def grid_shift_operator(which: GridShift, values: np.ndarray, geometry: TorusGeometry) -> np.ndarray:
    """Apply one exponentiated operator to sampled values: one (M, M) state,
    or a (k, M, M) stack of them.

    The affine map of the operator's row (exp_affine_map) becomes a periodic
    roll by translation / spacing cells, exactly M/N (b/N and a/N are integer
    multiples of the grid spacing), times the row's linear phase evaluated
    at the sample coordinates.  On the physical grid M = N the periodic
    wraparound agrees with the section structure of the quantized bundle,
    and all operator identities on basis states hold exactly; on finer grids
    the wrapped strip of a Q-basis section is misrepresented, which is a
    demonstrable diagnostic rather than a bug.
    """
    M = values.shape[-1]
    if values.shape[-2] != M:
        raise ValueError(f"values must end in a square (M, M) grid, got shape {values.shape}")
    q, p = grid_coordinates(geometry, M)
    (sq, sp), (aq, ap) = exp_affine_map(*grid_shift_coefficient(which, geometry))
    cells = (round(sp * M / geometry.a), round(sq * M / geometry.b))
    out = np.roll(np.asarray(values, dtype=complex), cells, axis=(-2, -1))
    if aq:
        out *= np.exp(1j * aq * q / geometry.hbar)[None, :]
    if ap:
        out *= np.exp(1j * ap * p / geometry.hbar)[:, None]
    return out


# -- two-chart consistency ------------------------------------------------

def chart_consistency_check(
    geometry: TorusGeometry,
    n: int,
    m: int,
    apply_transition: bool = True,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Compare the boundary factors of the unprimed Q-basis state (n, m) with
    the transition data, on its phase key (c0, cq, cp, cqp) (_basis_key).

    The state is one term e^{i (c0 + cq q + cp p + cqp q p)/hbar}, so crossing
    the q-period multiplies it by e^{i (cq b + cqp b p)/hbar}, which must be
    the transition factor e^{i t b p/hbar} (transition_function), and
    crossing the p-period by e^{i (cp a + cqp a q)/hbar}, which must be
    e^{i t a q/hbar} = e^{2 pi i N q/b}.  Here t = TRANSITION_CQP when the
    transition is applied and 0 when it is omitted.  The residual is the
    largest phase mismatch on the fundamental domain, in turns, the unit of
    table1/lattice: the distances of cq b/h and cp a/h from a whole number,
    and |cqp - t| a b/h.  No state is built or evaluated.

    With apply_transition=True (requires a quantized geometry) the residual
    vanishes to roundoff and must be at most tol.  With
    apply_transition=False the factor is deliberately omitted, any geometry
    is accepted (the unprimed key needs no N), and the check passes when the
    mismatch is detected, residual above the fixed threshold 0.1: it reads
    a b/h turns, the expected signature of the missing gauge factor.
    """
    if apply_transition:
        _require_quantized(geometry)
    a, b, h = geometry.a, geometry.b, geometry.h
    _, cq, cp, cqp = _basis_key(geometry, "Q", n, m)
    t = TRANSITION_CQP if apply_transition else 0.0
    turns = (cq * b / h, cp * a / h)
    residual = max(*(abs(x - round(x)) for x in turns), abs(cqp - t) * (a * b / h))

    params = {
        "a": a, "b": b, "h": h, "n": n, "m": m,
        "transition_applied": apply_transition,
    }
    if apply_transition:
        return CheckResult("chart_consistency", params, residual, tol)
    # Detection check: omitting the gauge factor must produce a visible
    # mismatch across the seam.
    return CheckResult("chart_mismatch_without_transition",
                       {**params, "detection_threshold": 0.1}, residual, 0.1, mode="gt")
