"""The N-dimensional physical Hilbert space.

Exponentiated operators shift the torus basis labels; labels shifted by N,
or differing only in the shadow label (m in the Q basis, s in the P basis),
describe physically equivalent states.  Fixing canonical representatives,
(n mod N, 0) in the Q basis and (0, r mod N) in the P basis, leaves an
N-dimensional space where

  exp(2 pi i Q_LEFT / b)  -> the clock matrix diag(e^{2 pi i n / N}),
  exp(-2 pi i P_LEFT / a) -> the cyclic shift matrix,

the Q-basis actions of EXP_QLEFT and EXP_PLEFT.  Both are monomials of the
finite Heisenberg-Weyl group, a label shift times N-th roots of unity, which
the verification suites read from the action table and compose as integers;
table1_matrices gives the dense matrices printed here.  They obey the finite
Weyl relation clock @ shift = omega shift @ clock with omega a primitive
N-th root of unity, read exactly from the group law.  A discrete Fourier
matrix connects the Q and P bases; its normalization 1/sqrt(N) is forced by
unitarity and confirmed by inner products of sampled basis states on the
N x N grid.
"""

import math

import numpy as np

from torusq import (
    GridShift,
    dft_basis_change,
    grid_shift_operator,
    make_geometry,
    make_torus_Q_basis,
    physical_grid_overlaps,
    sample,
    table1_matrices,
    table1_verify,
    weyl_commutation_check,
)

N = 4
side = math.sqrt(N)
geometry = make_geometry(side, side, 1.0)  # the symmetric torus a = b, h = 1
C = table1_matrices(GridShift.EXP_QLEFT, N)[1]
S = table1_matrices(GridShift.EXP_PLEFT, N)[1]
print(f"physical dimension N = {N}")
print("\nclock matrix (Q-basis matrix of EXP_QLEFT):")
with np.printoptions(precision=3, suppress=True):
    print(C)
print("shift matrix (Q-basis matrix of EXP_PLEFT):")
print(S.real.astype(int))

omega = weyl_commutation_check(N)
print("\nWeyl phase omega =", omega, " (omega^N =", omega**N, ")")

# The full eight-cell action table, verified as integer identities of the
# basis states' phase keys in lattice units: each cell counts the labels
# whose image misses its target.  table1/lattice says how far the keys were
# from the lattice, and the coefficients from 1.
print("\naction-table verification:")
for res in table1_verify(geometry):
    print(f"  {res.name:32s} residual {res.max_residual:.2e}  pass={res.passed}")

# Matrix elements of the grid operators between sampled basis states
# reproduce the table's clock and shift entries: row n of bras is the
# conjugated sampled Q-basis state (n, 0), and the operator moves all N kets
# at once.
bras = np.array([sample(make_torus_Q_basis(geometry, n, 0, primed=True), geometry, N)
                 .conj().ravel() for n in range(N)])
print()
for which, U, name in ((GridShift.EXP_PLEFT, S, "shift"), (GridShift.EXP_QLEFT, C, "clock")):
    moved = grid_shift_operator(which, bras.conj().reshape(N, N, N), geometry)
    me = bras @ moved.reshape(N, N * N).T / N**2
    print(f"|grid matrix elements - {name}| max:", np.abs(me - U).max())

# The basis change: unitary, and intertwines the two representations.
K = dft_basis_change(N)
print("\n|K^H K - I| max:", np.abs(K.conj().T @ K - np.eye(N)).max())
for which in GridShift:
    mp, mq = table1_matrices(which, N)
    print(f"  intertwining residual for {which.name}:", np.abs(K @ mp - mq @ K).max())

# The inner-product oracle: overlaps of basis states on the N x N grid,
# both read from their phase keys, equal K / sqrt(N) entrywise, for every
# shadow index s; the oracle checks every s at once, summed with seeded unit
# phases, and returns the largest miss of that sum.
print("grid-overlap oracle residual:", physical_grid_overlaps(geometry))

# Why the unexponentiated pair cannot survive: any finite commutator is
# traceless, but [Q, P] = i hbar would need trace i hbar N.  The trace is
# measured relative to the Frobenius norms of random complex pairs.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    B = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    resid = abs(np.trace(A @ B - B @ A)) / (np.linalg.norm(A) * np.linalg.norm(B))
    worst = max(worst, float(resid))
print("\ntrace obstruction residual over 50 random pairs:", worst)
