"""Plane (R^2) phase-space constructions.

Factories for the two simultaneous eigenbases, the displacement-operator
composition law with its symplectic cocycle phase, and the gauge-potential
picture behind the left-invariant pair: with A_q = 0 and A_p = q/hbar the
covariant derivatives D_i = d_i - i A_i satisfy Q_LEFT = i hbar D_p and
P_LEFT = -i hbar D_q, and the associated magnetic field d_q A_p - d_p A_q
is the constant 1/hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .symbolic import WaveFunction

UNIT_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class DisplacementLabel:
    """A displacement operator D(q_shift, p_shift) together with its
    accumulated cocycle phase (a unit-modulus complex scalar)."""

    q_shift: float
    p_shift: float
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "phase", complex(self.phase))
        if abs(abs(self.phase) - 1.0) > UNIT_PHASE_TOL:
            raise ValueError(f"phase must have unit modulus, got |phase|={abs(self.phase)!r}")


@dataclass(frozen=True)
class GaugeField:
    """The linear gauge potential A_q = 0, A_p = q/hbar on the (q, p) plane."""

    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    def a_q(self, q, p):
        return 0.0 * q

    def a_p(self, q, p):
        return q / self.hbar


def make_plane_P_basis(l: float, k: float, hbar: float = 1.0) -> WaveFunction:
    """Plane wave e^{i(kq - lp)/hbar}.

    Simultaneous eigenstate of P_LEFT (eigenvalue k) and Q_RIGHT
    (eigenvalue l).
    """
    return WaveFunction.single(1.0, 0.0, k, -l, 0.0, hbar=hbar)


def make_plane_Q_basis(l: float, k: float, hbar: float = 1.0, primed: bool = False) -> WaveFunction:
    """Q-basis state, eigenstate of Q_LEFT (eigenvalue l) and P_RIGHT (eigenvalue k).

    Unprimed form: e^{ipq/hbar} e^{-i(kq + lp)/hbar}.
    Primed form:   e^{i(p - k)(q - l)/hbar} = unprimed * e^{ikl/hbar}.

    The primed convention makes label shifts by the exponentiated operators
    phase-free.
    """
    c0 = k * l if primed else 0.0
    return WaveFunction.single(1.0, c0, -k, -l, 1.0, hbar=hbar)


def displacement_compose(
    first: DisplacementLabel, second: DisplacementLabel, hbar: float = 1.0
) -> DisplacementLabel:
    """Group law D(b, a) D(q, p) = D(q + b, p + a) e^{i(aq - bp)/(2 hbar)}.

    `first` carries (b, a), `second` carries (q, p); shifts add and the
    phases multiply with the antisymmetric cocycle factor.
    """
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    b, a = first.q_shift, first.p_shift
    q, p = second.q_shift, second.p_shift
    cocycle = complex(math.cos((a * q - b * p) / (2.0 * hbar)),
                      math.sin((a * q - b * p) / (2.0 * hbar)))
    return DisplacementLabel(q + b, p + a, first.phase * second.phase * cocycle)


def path_phase(field: GaugeField, endpoint: tuple[float, float]) -> complex:
    """exp(i int_C A . dxi) along the standard two-leg path.

    The path runs from the origin along the q-axis to (q, 0), then parallel
    to the p-axis to (q, p).  The first leg contributes nothing (A_q = 0) and
    on the second leg A_p is constant in p, so the integral is q*p/hbar and
    the phase is exactly e^{ipq/hbar}, the prequantum factor carried by the
    Q-basis states.
    """
    q, p = endpoint
    if not (math.isfinite(q) and math.isfinite(p)):
        raise ValueError("endpoint must be finite")
    s = q * p / field.hbar
    return complex(math.cos(s), math.sin(s))
