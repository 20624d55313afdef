"""Plane (R^2) phase-space constructions: the two simultaneous eigenbases.

The displacement law and the gauge picture of the paper are identities of
the operators in torusq.symbolic, and the tests check them there: the
displacement D(q, p) = exp(i(p Q_LEFT - q P_LEFT)/hbar) is built from
exp_operator_apply, and the potential A_q = 0, A_p = q/hbar makes
Q_LEFT = i hbar (d_p - i A_p) and P_LEFT = -i hbar (d_q - i A_q).
"""

from __future__ import annotations

from .symbolic import WaveFunction


def _basis_key(basis: str, l, k, c0=0.0) -> tuple:
    """The phase key (c0, cq, cp, cqp) of the plane state of basis "P" or "Q"
    with eigenvalue l of Q_RIGHT (Q_LEFT in the Q basis) and k of P_LEFT
    (P_RIGHT); l and k are scalars or numpy arrays.  Negations are written
    0.0 - x so that a zero eigenvalue gives the key entry 0.0, not -0.0."""
    if basis == "P":
        return c0, k, 0.0 - l, 0.0
    return c0, 0.0 - k, 0.0 - l, 1.0


def make_plane_P_basis(l: float, k: float, hbar: float = 1.0) -> WaveFunction:
    """Plane wave e^{i(kq - lp)/hbar}.

    Simultaneous eigenstate of P_LEFT (eigenvalue k) and Q_RIGHT
    (eigenvalue l).
    """
    return WaveFunction.single(1.0, *_basis_key("P", l, k), hbar=hbar)


def make_plane_Q_basis(l: float, k: float, hbar: float = 1.0, primed: bool = False) -> WaveFunction:
    """Q-basis state, eigenstate of Q_LEFT (eigenvalue l) and P_RIGHT (eigenvalue k).

    Unprimed form: e^{ipq/hbar} e^{-i(kq + lp)/hbar}.
    Primed form:   e^{i(p - k)(q - l)/hbar} = unprimed * e^{ikl/hbar}.

    The primed convention makes label shifts by the exponentiated operators
    phase-free.
    """
    return WaveFunction.single(1.0, *_basis_key("Q", l, k, k * l if primed else 0.0), hbar=hbar)
