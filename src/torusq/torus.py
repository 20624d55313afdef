"""Torus phase space: geometry, area quantization, charts, bases, and grids.

The torus has period b in the position variable q and period a in the
momentum variable p, with fundamental domain [0, b) x [0, a).  The constant
magnetic field 1/hbar threads the torus with total flux a*b/hbar, so the
construction is consistent only when the area a*b is an integer multiple N
of the Planck constant h.  The diagnostics for failure of that condition
(holonomy around the fundamental domain, non-periodicity of the chart
transition factor) are available for every geometry; the basis factories
require a quantized one.

Wave functions on the quantized torus are sections rather than periodic
functions: crossing the q-period multiplies them by the transition factor
e^{ibp/hbar} and crossing the p-period by e^{2 pi i N q / b}.  On the N x N
grid (M = N samples per axis) both factors sample to one, the label
equivalences n -> n + N and m -> m + N become exact grid identities, and the
grid carries a faithful copy of the N-dimensional physical space.  That grid
is the canonical place to verify operator actions; larger multiples of N are
used for quadrature, where only translation-free checks (inner products) are
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .report import DEFAULT_TOL, CheckResult
from .symbolic import BilinearPhaseTerm, OperatorKind, WaveFunction, exp_affine_map

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
    fundamental-domain boundary; equals 1 within 1e-12 iff N is present."""
    s = 2.0 * math.pi * (geometry.a * geometry.b / geometry.h)
    return complex(math.cos(s), math.sin(s))


def transition_function(geometry: TorusGeometry, p: float) -> complex:
    """Chart-overlap gauge factor e^{i b p / hbar} at momentum p.

    Satisfies transition(p + a) / transition(p) = holonomy, so it is
    periodic in p exactly when the geometry is quantized.
    """
    s = 2.0 * math.pi * geometry.b * p / geometry.h
    return complex(math.cos(s), math.sin(s))


def _require_quantized(geometry: TorusGeometry) -> int:
    if geometry.N is None:
        raise ValueError(
            "geometry is not quantized (a*b/h is not an integer); "
            "basis construction is not defined"
        )
    return geometry.N


def _require_grid(geometry: TorusGeometry, M: int) -> None:
    N = _require_quantized(geometry)
    if M <= 0 or M % N != 0:
        raise ValueError(f"M must be a positive multiple of N={N}, got M={M}")


def _torus_q_term(geometry: TorusGeometry, n: int, m: int, primed: bool) -> BilinearPhaseTerm:
    # Raw Q-basis phase polynomial; valid pointwise for any geometry, which
    # the chart diagnostics rely on.  With hbar = h/2pi the pq coefficient is
    # exactly one.
    h = geometry.h
    c0 = h * n * m / geometry.N if primed else 0.0
    return BilinearPhaseTerm(
        1.0, c0, -m * h / geometry.b, -n * h / geometry.a, 1.0, hbar=geometry.hbar
    )


def make_torus_P_basis(geometry: TorusGeometry, n: int, m: int, primed: bool = False) -> WaveFunction:
    """P-basis state exp(2 pi i (m q / b - n p / a)), periodic in both variables.

    Eigenstate of P_LEFT with eigenvalue m h / b and of Q_RIGHT with
    eigenvalue n h / a = n b / N.  The primed flag multiplies in the constant
    e^{2 pi i n m / N}, the label convention under which the exponentiated
    operators shift (n, m) without extra phases.
    """
    N = _require_quantized(geometry)
    h = geometry.h
    c0 = h * n * m / N if primed else 0.0
    return WaveFunction.single(
        1.0, c0, m * h / geometry.b, -n * h / geometry.a, 0.0, hbar=geometry.hbar
    )


def make_torus_Q_basis(geometry: TorusGeometry, n: int, m: int, primed: bool = False) -> WaveFunction:
    """Q-basis state on the quantized torus.

    Unprimed: exp(2 pi i (p q / h - m q / b - n p / a)).
    Primed:   exp(2 pi i N (p/a - m/N)(q/b - n/N)), which differs from the
    unprimed form by the constant phase e^{2 pi i n m / N}.

    Eigenstate of Q_LEFT with eigenvalue n h / a = n b / N and of P_RIGHT
    with eigenvalue m h / b = m a / N.
    """
    _require_quantized(geometry)
    return WaveFunction([_torus_q_term(geometry, n, m, primed)], hbar=geometry.hbar)


# -- grids ----------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a wave function on the uniform M x M periodic grid.

    values[i, j] = f(q = j b / M, p = i a / M), row-major.  M must be a
    positive multiple of N so that the operator translations by b/N and a/N
    land on grid points.
    """

    geometry: TorusGeometry
    M: int
    values: np.ndarray

    def __post_init__(self):
        _require_grid(self.geometry, self.M)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.M, self.M):
            raise ValueError(f"values must have shape ({self.M}, {self.M}), got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def q_values(self) -> np.ndarray:
        return np.arange(self.M) * (self.geometry.b / self.M)

    @property
    def p_values(self) -> np.ndarray:
        return np.arange(self.M) * (self.geometry.a / self.M)

    def to_csv(self, dest) -> None:
        """Write rows `i,j,q,p,re,im` (header included) to a path or file."""
        close = False
        if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
            f = open(dest, "w", encoding="utf-8")
            close = True
        else:
            f = dest
        try:
            f.write("i,j,q,p,re,im\n")
            qs, ps = self.q_values, self.p_values
            for i in range(self.M):
                for j in range(self.M):
                    v = self.values[i, j]
                    f.write(
                        f"{i},{j},{float(qs[j])!r},{float(ps[i])!r},"
                        f"{float(v.real)!r},{float(v.imag)!r}\n"
                    )
        finally:
            if close:
                f.close()


def sample(wf: WaveFunction, geometry: TorusGeometry, M: int) -> GridFunction:
    """Sample a wave function on the uniform M x M grid over one fundamental
    domain.  M must be a positive multiple of N."""
    _require_grid(geometry, M)
    q = np.arange(M) * (geometry.b / M)
    p = np.arange(M) * (geometry.a / M)
    values = wf.evaluate(q[None, :], p[:, None])
    return GridFunction(geometry, M, values)


def sample_bras(states, geometry: TorusGeometry, M: int) -> np.ndarray:
    """Sample each wave function of the sequence `states` on the M x M grid
    and write its conjugate, flattened, into one row of a (len(states), M^2)
    array.

    bras @ g.values.ravel() / M^2 holds inner_product(sample(state), g) for
    every state at once.
    """
    _require_grid(geometry, M)
    bras = np.empty((len(states), M * M), dtype=complex)
    for row, wf in zip(bras, states):
        np.conjugate(sample(wf, geometry, M).values.ravel(), out=row)
    return bras


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """Quantized inner product: Riemann sum of conj(f) g with measure
    dq dp / (a b), which equals dq dp / (N h) on a quantized geometry.

    Equal-weight sums on the periodic domain integrate pure phases exactly
    below the grid Nyquist limit, so no higher-order quadrature is needed for
    the trigonometric integrands produced by the in-scope bases.
    """
    if f.geometry != g.geometry or f.M != g.M:
        raise ValueError("mismatched grids: geometry and M must agree")
    return complex(np.vdot(f.values, g.values) / (f.M * f.M))


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


def grid_shift_operator(which: GridShift, f: GridFunction) -> GridFunction:
    """Apply one exponentiated operator to a grid function.

    The affine map of the operator's row (exp_affine_map) becomes a periodic
    roll by translation / spacing cells, exactly M/N (b/N and a/N are integer
    multiples of the grid spacing), times the row's linear phase evaluated
    at the sample coordinates.  On the physical grid M = N the periodic
    wraparound agrees with the section structure of the quantized bundle,
    and all operator identities on basis states hold exactly; on finer grids
    the wrapped strip of a Q-basis section is misrepresented, which is a
    demonstrable diagnostic rather than a bug.
    """
    geom = f.geometry
    (sq, sp), (aq, ap) = exp_affine_map(*grid_shift_coefficient(which, geom))
    cells = (round(sp * f.M / geom.a), round(sq * f.M / geom.b))
    out = np.roll(f.values, cells, axis=(0, 1))
    if aq or ap:
        out = (out * np.exp(1j * aq * f.q_values / geom.hbar)[None, :]
               * np.exp(1j * ap * f.p_values / geom.hbar)[:, None])
    return GridFunction(geom, f.M, out)


# -- two-chart consistency ------------------------------------------------

@dataclass(frozen=True)
class ChartPair:
    """Two overlapping charts covering the torus in q, for all p.

    Chart I covers (-delta, b/2 + delta) and chart II covers
    (b/2 - delta, b + delta).  They overlap on an interior strip around
    q = b/2, where the transition is the identity, and on a seam strip around
    q = 0 (mod b), where chart II coordinates exceed chart I coordinates by b
    and the wave functions differ by the transition factor e^{ibp/hbar}.
    """

    geometry: TorusGeometry
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < self.geometry.b / 4.0:
            raise ValueError(f"delta must lie in (0, b/4), got {self.delta}")

    @property
    def interior_overlap(self) -> tuple[float, float]:
        b = self.geometry.b
        return (b / 2.0 - self.delta, b / 2.0 + self.delta)

    @property
    def seam_overlap(self) -> tuple[float, float]:
        # chart-I coordinates; chart II sees the same points at q + b
        return (-self.delta, self.delta)


def chart_consistency_check(
    geometry: TorusGeometry,
    n: int,
    m: int,
    delta: float | None = None,
    apply_transition: bool = True,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    """Sample the Q-basis state in both charts on the seam overlap strip, at
    16 values of q across the strip and 64 of p over one period.

    With apply_transition=True (requires a quantized geometry) the seam
    comparison multiplies the chart-I values by the transition factor and the
    reported residual is the maximum modulus mismatch; it vanishes to
    roundoff and must be at most tol.  With apply_transition=False the factor
    is deliberately omitted, any geometry is accepted, and the check passes
    when the mismatch is detected (residual above the fixed threshold 0.1 at
    some sampled p), which is the expected signature of the missing gauge
    factor.  On the interior overlap both charts use the same coordinates,
    so there is nothing to compare there.
    """
    if apply_transition:
        _require_quantized(geometry)
    if delta is None:
        delta = geometry.b / 8.0
    charts = ChartPair(geometry, delta)
    # The raw section formula is evaluable pointwise for any geometry, which
    # lets the omission diagnostic run on non-quantized tori.
    wf = WaveFunction([_torus_q_term(geometry, n, m, primed=False)], hbar=geometry.hbar)

    ps = np.arange(64) * (geometry.a / 64)
    seam_q = np.linspace(charts.seam_overlap[0], charts.seam_overlap[1], 16)
    qg, pg = np.meshgrid(seam_q, ps, indexing="ij")
    chart_one = wf.evaluate(qg, pg)
    chart_two = wf.evaluate(qg + geometry.b, pg)
    if apply_transition:
        trans = np.array([transition_function(geometry, p) for p in ps])
        chart_one = trans[None, :] * chart_one
    residual = float(np.abs(chart_two - chart_one).max())

    params = {
        "a": geometry.a, "b": geometry.b, "h": geometry.h,
        "n": n, "m": m, "delta": delta,
        "transition_applied": apply_transition,
    }
    if apply_transition:
        return CheckResult("chart_consistency", params, residual, tol)
    # Detection check: omitting the gauge factor must produce a visible
    # mismatch somewhere on the seam.
    return CheckResult("chart_mismatch_without_transition",
                       {**params, "detection_threshold": 0.1}, residual, 0.1, mode="gt")
