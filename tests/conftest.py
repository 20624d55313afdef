"""Shared test helpers.

Random inputs are drawn from dyadic rationals (small integers over a power of
two) so that every product and sum in the symbolic layer is exactly
representable in binary floating point.  Coefficient-exact assertions are
then meaningful: residuals are compared against literal zero, not a
tolerance.  The generators live in torusq.symbolic, where the commutators
suite uses them too.
"""

import math

from torusq.symbolic import dyadic, random_wavefunction  # noqa: F401
from torusq.torus import make_geometry


def square_torus(N, h=1.0):
    """The symmetric quantized torus a = b = sqrt(N h)."""
    side = math.sqrt(N * h)
    return make_geometry(side, side, h)


def curl(field, q, p):
    """d_q A_p - d_p A_q of a gauge field by central differences with unit
    step, through its potential's callables; exact up to roundoff for a
    linear potential."""
    return ((field.a_p(q + 1.0, p) - field.a_p(q - 1.0, p))
            - (field.a_q(q, p + 1.0) - field.a_q(q, p - 1.0))) / 2.0


def random_points(rng, count, scale=2.0):
    return rng.uniform(-scale, scale, size=(count, 2))
