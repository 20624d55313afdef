"""The gauge picture behind the phase-space operators.

The left-invariant pair can be written with covariant derivatives in a U(1)
gauge field whose potential is A_q = 0, A_p = q/hbar.  The associated
magnetic field is the constant 1/hbar, and the non-integrable phase factor
accumulated along a standard path from the origin is exactly the prequantum
factor e^{ipq/hbar} carried by the Q-basis states.

Path convention: the standard path runs from (0, 0) along the q-axis to
(q, 0), then parallel to the p-axis to (q, p).  With this potential only the
second leg contributes, giving the phase q*p/hbar.
"""

import numpy as np

from torusq import (
    OperatorKind,
    apply_operator,
    differentiate,
    make_plane_Q_basis,
)


# The potential, written as plain functions of the point.
def a_q(q, p, hbar=1.0):
    return 0.0 * q


def a_p(q, p, hbar=1.0):
    return q / hbar


def curl(q, p, hbar=1.0):
    """d_q A_p - d_p A_q by central differences with unit step; exact for
    this linear potential."""
    return ((a_p(q + 1.0, p, hbar) - a_p(q - 1.0, p, hbar))
            - (a_q(q, p + 1.0, hbar) - a_q(q, p - 1.0, hbar))) / 2.0


print("magnetic field at (0, 0):   ", curl(0.0, 0.0))
print("magnetic field at (5, -3):  ", curl(5.0, -3.0))
print("with hbar = 2:              ", curl(0.0, 0.0, hbar=2.0))

# Covariant derivative identities: Q_LEFT = i hbar (d_p - i A_p) and
# P_LEFT = -i hbar (d_q - i A_q), checked pointwise.
wf = make_plane_Q_basis(1.0, 2.0) + make_plane_Q_basis(0.5, -1.5).scale(0.5j)
dq_wf, dp_wf = differentiate(wf, "q"), differentiate(wf, "p")
rng = np.random.default_rng(0)
worst = 0.0
for q, p in rng.uniform(-2, 2, size=(20, 2)):
    base = wf.evaluate(q, p)
    cov_q = 1j * (dp_wf.evaluate(q, p) - 1j * a_p(q, p) * base)
    cov_p = -1j * (dq_wf.evaluate(q, p) - 1j * a_q(q, p) * base)
    worst = max(
        worst,
        abs(apply_operator(OperatorKind.Q_LEFT, wf).evaluate(q, p) - cov_q),
        abs(apply_operator(OperatorKind.P_LEFT, wf).evaluate(q, p) - cov_p),
    )
print("\nworst covariant-derivative mismatch over 20 points:", worst)

# The path-ordered phase cancels the gauge field.  Compare the prequantum
# factor of the zero-label Q-basis state with explicit midpoint-rule line
# integration of the potential.
wf00 = make_plane_Q_basis(0.0, 0.0)
endpoint = (2.0, 3.0)
closed = wf00.evaluate(*endpoint)
steps = 10_000
q, p = endpoint
qs = (np.arange(steps) + 0.5) * (q / steps)
ps = (np.arange(steps) + 0.5) * (p / steps)
integral = (np.sum(a_q(qs, 0.0 * qs)) * q + np.sum(a_p(qs * 0 + q, ps)) * p) / steps
print("\nprequantum factor at (2, 3):", closed)
print("numerical line integral gives:", np.exp(1j * integral))
print("|difference|:", abs(closed - np.exp(1j * integral)))

# The accumulated phase (only the p leg contributes, A_p(q) p) is precisely
# the first exponential of the Q-basis states: multiplying by its conjugate
# returns 1.
vals = [np.exp(1j * a_p(qq, pp) * pp) * np.conj(wf00.evaluate(qq, pp))
        for qq, pp in [(0.2, 0.4), (-1.0, 2.0), (3.0, -0.5)]]
print("\npath phase times conjugate prequantum factor:", vals)
