"""Plane (R^2) phase-space constructions: the two simultaneous eigenbases.

The displacement law and the gauge picture of the paper are identities of
the operators in torusq.symbolic, and the tests check them there: the
displacement D(q, p) = exp(i(p Q_LEFT - q P_LEFT)/hbar) is built from
exp_operator_apply, and the potential A_q = 0, A_p = q/hbar makes
Q_LEFT = i hbar (d_p - i A_p) and P_LEFT = -i hbar (d_q - i A_q).
"""

from __future__ import annotations

from .symbolic import WaveFunction


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
