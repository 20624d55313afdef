"""Shared test helpers.

Random inputs are drawn from dyadic rationals (small integers over a power of
two) so that every product and sum in the symbolic layer is exactly
representable in binary floating point.  Coefficient-exact assertions are
then meaningful: residuals are compared against literal zero, not a
tolerance.  The generators live in torusq.symbolic, where the commutators
suite uses them too.  They take one generator policy, draw(lo, hi), an int
in [lo, hi): for example random.Random.randrange, which the suite passes,
or numpy's Generator.integers, which the tests pass as rng.integers.
"""

import cmath
import math

import numpy as np

from torusq.symbolic import (  # noqa: F401
    OperatorKind,
    dyadic,
    exp_operator_apply,
    random_wavefunction,
)
from torusq import torus
from torusq.torus import make_geometry


def square_torus(N, h=1.0):
    """The symmetric quantized torus a = b = sqrt(N h)."""
    side = math.sqrt(N * h)
    return make_geometry(side, side, h)


def patch_key(monkeypatch, module, basis, change):
    """Make `module` read the phase key (c0, cq, cp, cqp) of every state (n, m)
    of one basis, "P" or "Q", as change(n, m, key); n and m are the labels,
    ints or arrays, that the module passes to torus._basis_key."""
    real = torus._basis_key

    def key(geometry, b, n, m, primed=False):
        found = real(geometry, b, n, m, primed)
        return change(n, m, found) if b == basis else found

    monkeypatch.setattr(module, "_basis_key", key)


def grid_bras(states, geometry, M):
    """The conjugated, flattened samples of `states` on the M x M grid, as the
    rows of a (len(states), M^2) array: bras @ g.ravel() / M^2 holds the
    inner product of every state with the sampled state g."""
    return np.array([torus.sample(wf, geometry, M).conj().ravel() for wf in states])


def sampling_error_bound(wf, q, p):
    """A bound on the gap, over the grid (q, p), between wf.evaluate and
    values of wf formed as products of separate phase factors: 8 eps times
    the sum over terms of the term's largest modulus times one plus its
    largest phase argument |c0 + cq q + cp p + cqp q p| / hbar."""
    qmax, pmax = np.abs(q).max(), np.abs(p).max()
    total = 0.0
    for t in wf.terms:
        modulus = abs(t.amplitude) * sum(abs(c) * qmax**dq * pmax**dp
                                         for (dq, dp), c in t.prefactor.items())
        argument = (abs(t.c0) + abs(t.cq) * qmax + abs(t.cp) * pmax
                    + abs(t.cqp) * qmax * pmax) / t.hbar
        total += modulus * (1.0 + argument)
    return 8 * np.finfo(float).eps * total


def random_points(rng, count, scale=2.0):
    return rng.uniform(-scale, scale, size=(count, 2))


def relative_gap(left, right, rng):
    """Largest |left - right| over five random points, relative to max |right|."""
    qs, ps = random_points(rng, 5).T
    want = right.evaluate(qs, ps)
    return np.max(np.abs(left.evaluate(qs, ps) - want)) / np.max(np.abs(want))


def displace(q, p, wf):
    """D(q, p) wf for the displacement D(q, p) = exp(i(p Q_LEFT - q P_LEFT)/hbar).

    Built from the two exponentials: since [Q_LEFT, P_LEFT] = i hbar, BCH
    gives exp(i p Q_LEFT/hbar) exp(-i q P_LEFT/hbar) = D(q, p) e^{ipq/(2 hbar)}.
    """
    moved = exp_operator_apply(OperatorKind.Q_LEFT, p,
                               exp_operator_apply(OperatorKind.P_LEFT, q, wf))
    return moved.scale(cmath.exp(-1j * p * q / (2.0 * wf.hbar)))


def displacement_law_residual(rng, cases, cocycle=1):
    """Worst relative pointwise residual of the displacement law

        D(b, a) D(q, p) psi = e^{i(aq - bp)/(2 hbar)} D(q + b, p + a) psi

    over `cases` random dyadic wave functions (hbar alternating 1 and 0.5)
    and shifts in [-2, 2].  The sides are compared at random points
    (relative_gap), not by coefficients: a constant phase sits in the term
    key c0 on one side and in the prefactor coefficients on the other, so
    equal functions have different coefficients.  cocycle=-1 conjugates the phase and
    cocycle=0 omits it, as negative controls.
    """
    worst = 0.0
    for i in range(cases):
        hbar = (1.0, 0.5)[i % 2]
        wf = random_wavefunction(rng.integers, hbar=hbar)
        q, p, b, a = rng.uniform(-2, 2, 4)
        lhs = displace(b, a, displace(q, p, wf))
        rhs = displace(q + b, p + a, wf).scale(
            cmath.exp(cocycle * 1j * (a * q - b * p) / (2.0 * hbar)))
        worst = max(worst, relative_gap(lhs, rhs, rng))
    return worst
