"""Certified generic embeddings: blue classes between image points, and
recovering the order from commuting pairs.

Run:  python3 demos/generic_recovery.py
"""

from fractions import Fraction as F

from qendo.generic import generic_embedding, recover_witness, sim_related
from qendo.ratcore import Colour, RatInterval

g, cert = generic_embedding("core")

print("-- the image is spread out: distinct red classes, blue in between")
xs = [F(0), F(1), F(2)]
for x in xs:
    y = g.eval(x)
    q = cert.class_of(y)
    print(f"   g({x}) = {y}   class {cert.index_order.format_el(q)} "
          f"({cert.colour_of_index(q).name.lower()})")
q0, q1 = cert.class_of(g.eval(F(0))), cert.class_of(g.eval(F(1)))
blue = cert.blue_index_between(q0, q1)
assert cert.colour_of_index(blue) == Colour.BLUE
print(f"   blue class {cert.index_order.format_el(blue)} sits strictly "
      f"between the classes of g(0) and g(1)")
print()

print("-- the gap-equivalence on a plain interval union")
A = (RatInterval(F(0), F(0), True, True), RatInterval(F(2), F(3)))
print(f"   A = {{0}} u (2,3)")
print(f"   -1 ~ 1 (only the point 0 in between):", sim_related(A, F(-1), F(1)))
print(f"   1 ~ 4 (a whole interval in between):", sim_related(A, F(1), F(4)))
print()

print("-- recovering 'is s the image of u?' from commuting pairs")
u = F(0)
for s, label in ((g.eval(F(0)), "s = g(u)"),
                 (g.eval(F(1)), "s = an image point, not g(u)")):
    out = recover_witness(cert, u, s)
    if isinstance(out, str):
        print(f"   {label}: {out}")
    else:
        assert out.beta.eval(u) == u and out.alpha.eval(s) != s
        print(f"   {label}: witness pair found -- beta fixes u = {u}, "
              f"alpha moves s = {s} to {out.alpha.eval(s)}")
