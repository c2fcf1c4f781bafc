"""The first-disagreement ultrametric, convergence, and essentially unary
operations on finite grids.

Run:  python3 demos/metric_and_clones.py
"""

from fractions import Fraction as F

from qendo.clone import GridOp, preserves_either_equal, unary_reconstruction
from qendo.endo import PiecewiseEndo, identity_map
from qendo.ratcore import nth_rational
from qendo.suites import prefix_approximant
from qendo.topology import UltraMetricContext, automorphism_near, dist, lift_convergence

ctx = UltraMetricContext()

print("-- distances are 2^(-first disagreement index)")
idmap = identity_map()
shift = PiecewiseEndo.parse("(-inf,+inf) : 1*x + 1")
late = PiecewiseEndo.parse("(-inf,2) : 1*x\n[2,+inf) : 1*x + 1")
print(f"   d(id, x+1)        = {dist(ctx, idmap, shift)}")
print(f"   d(id, shift-at-2) = {dist(ctx, idmap, late)}   (2 enumerates at index 5)")
print()

print("-- automorphisms are dense around any embedding")
emb = PiecewiseEndo.parse("(-inf,0) : 1*x\n[0,+inf) : 2*x + 1")
for n in (2, 5):
    auto = automorphism_near(emb, n)
    agree = all(auto.eval(nth_rational(i)) == emb.eval(nth_rational(i))
                for i in range(n))
    print(f"   within 2^-{n}: agreement on the first {n} rationals: {agree}")
print()

print("-- convergence lifts through projections with explicit moduli")
rep = lift_convergence(lambda n: prefix_approximant(n, identity_map()),
                       identity_map(), 1, 2, 5)
print("  ", str(rep).replace("\n", "\n   "))
print()

print("-- either-equal preservation on a grid separates essentially unary ops")
grid = (F(0), F(1))
mn = GridOp.from_function(2, grid, min)
print("   min on {0,1}:", preserves_either_equal(mn))
first = GridOp.from_function(2, grid, lambda x, y: 1 - x)
j, table = unary_reconstruction(first)
nice = {str(k): str(v) for k, v in sorted(table.items())}
print("   (x,y) -> 1-x : preserves =", preserves_either_equal(first).preserves,
      f"; rebuilt as u o pi_{j} with u = {nice}")
