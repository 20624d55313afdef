"""Torus bases and the quantized inner product.

On a quantized torus (a*b = N*h) two bases are available: plane waves (the
P basis) and the Q-basis sections carrying the prequantum factor
e^{2 pi i p q / h}.  Restricted to labels 0 <= n, m < N, each family is
orthonormal under the inner product with measure dq dp / (a b), evaluated
here by equal-weight sums on an M x M grid.  Equal-weight sums integrate
pure phases exactly below the grid Nyquist limit, so the Gram matrices come
out as the identity to machine precision.
"""

import numpy as np

from torusq import (
    is_eigenstate,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    OperatorKind,
    sample,
)

N = 3
g = make_geometry(np.sqrt(N), np.sqrt(N), 1.0)
M = 8 * N
print(f"geometry: a = b = sqrt({N}), h = 1, N = {g.N}; grid M = {M}")

# Eigenvalues: the Q-basis state psi_{n,m} has Q_LEFT eigenvalue n*b/N and
# P_RIGHT eigenvalue m*a/N; the P-basis state phi_{n,m} has P_LEFT
# eigenvalue m*h/b and Q_RIGHT eigenvalue n*h/a.
psi = make_torus_Q_basis(g, 1, 2)
phi = make_torus_P_basis(g, 1, 2)
print("Q-basis (1,2): Q_LEFT eigenvalue:", is_eigenstate(OperatorKind.Q_LEFT, psi),
      " expected:", g.b / N)
print("P-basis (1,2): P_LEFT eigenvalue:", is_eigenstate(OperatorKind.P_LEFT, phi),
      " expected:", 2 * g.h / g.b)

# Gram matrices of the N^2-member families; a sampled state is an (M, M)
# array and the inner product is the equal-weight sum vdot(x, y) / M^2.
def gram(factory, primed):
    states = [sample(factory(g, n, m, primed=primed), g, M)
              for n in range(N) for m in range(N)]
    return np.array([[np.vdot(x, y) / M**2 for y in states] for x in states])

gram_q = gram(make_torus_Q_basis, True)
gram_p = gram(make_torus_P_basis, False)
print("\n|Gram(Q basis) - I| max:", np.abs(gram_q - np.eye(N * N)).max())
print("|Gram(P basis) - I| max:", np.abs(gram_p - np.eye(N * N)).max())

# The primed convention differs from the plain form by the constant phase
# e^{2 pi i n m / N}; inner products are unaffected.
plain = make_torus_Q_basis(g, 2, 1, primed=False)
primed = make_torus_Q_basis(g, 2, 1, primed=True)
ratio = primed.evaluate(0.3, 0.7) / plain.evaluate(0.3, 0.7)
print("\nprimed/plain phase for labels (2,1):", ratio,
      " expected:", np.exp(2j * np.pi * 2 * 1 / N))

# Sampled values on the unit torus (N = 1): e^{2 pi i (i/M)(j/M)}.
g1 = make_geometry(1.0, 1.0, 1.0)
grid = sample(make_torus_Q_basis(g1, 0, 0, primed=True), g1, 4)
print("\nsampled prequantum factor on the unit torus (M = 4):")
with np.printoptions(precision=3, suppress=True):
    print(grid)
