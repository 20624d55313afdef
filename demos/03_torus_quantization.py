"""Area quantization on the torus.

A constant magnetic field 1/hbar on a torus of area a*b is consistent only
when a*b/h is an integer N.  Three diagnostics make the condition visible:

  1. the holonomy e^{iab/hbar} around the fundamental-domain boundary,
     which must be 1 for the singular flux sheet to be invisible;
  2. the two-chart transition factor e^{ibp/hbar}, which must be periodic
     in p to be a well-defined gauge transformation on the overlap;
  3. the chart-overlap consistency of the Q-basis sections themselves: their
     boundary factors, read from the phase key, against the transition data.
"""

from torusq import (
    chart_consistency_check,
    holonomy,
    make_geometry,
    transition_function,
)

print("geometry sweep: which (a, b, h) admit a quantum theory?")
print(f"{'a':>5} {'b':>5} {'h':>4} {'area/h':>7} {'N':>5} {'|holonomy - 1|':>15}")
for a, b, h in [(2.0, 3.0, 1.0), (1.0, 1.0, 1.0), (1.0, 0.5, 1.0),
                (1.5, 2.0, 0.5), (1.0, 2.5, 1.0), (0.7, 3.0, 0.7)]:
    g = make_geometry(a, b, h)
    print(f"{a:>5} {b:>5} {h:>4} {a * b / h:>7.3f} {str(g.N):>5} {abs(holonomy(g) - 1):>15.3e}")

# The transition factor between the two coordinate charts is periodic in p
# exactly when the area is quantized.
good = make_geometry(2.0, 1.5, 1.0)   # N = 3
bad = make_geometry(1.0, 0.5, 1.0)    # area/h = 1/2
print("\ntransition periodicity, quantized geometry (N = 3):")
for p in (0.0, 0.4, 1.1):
    print(f"  T(p + a)/T(p) at p={p}:", transition_function(good, p + good.a) / transition_function(good, p))
print("transition periodicity, half-integer area:")
print("  T(a)/T(0):", transition_function(bad, bad.a) / transition_function(bad, 0.0))

# Chart consistency: across each period the Q-basis state changes by exactly
# the transition factor, so the phase mismatch, in turns, is zero.
g = make_geometry(2.0, 2.0, 1.0)  # N = 4
res = chart_consistency_check(g, n=1, m=1)
print("\nchart consistency residual (N = 4, labels (1,1)):", res.max_residual)

# Deliberately omitting the transition factor is loudly visible: the missing
# factor e^{ibp/hbar} winds a*b/h = N = 4 turns across the domain.
res = chart_consistency_check(g, n=0, m=0, apply_transition=False)
print("seam mismatch with the factor omitted:", res.max_residual)

# The same detector works on a non-quantized geometry (area/h = N + 1/2),
# where no consistent choice exists at all: 2.5 turns.
broken = make_geometry(1.0, 2.5, 1.0)
res = chart_consistency_check(broken, n=0, m=0, apply_transition=False)
print("seam mismatch at area/h = 2.5 without the factor:", res.max_residual)
