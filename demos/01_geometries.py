"""Build the geometries and poke at their structure.

Shows the three families (projective planes, symplectic quadrangles,
parabolic-quadric quadrangles), the counting identities their orders force,
and the span machinery that later decides how much privacy the plaintext
protocol leaks.  Writes demo_w33.json to the working directory.
"""

from gqupir import GF, build_pg2, build_q4, build_w3, field, save_geometry

print("== projective plane PG(2,3) ==")
plane = build_pg2(field(3))   # a Geometry, like the quadrangles below
print(f"points: {plane.n_points}, lines: {plane.base.n_blocks}, "
      f"order {plane.s}")
print(f"first three lines: {plane.base.blocks[:3]}")
# every pair of points shares exactly one line; that is re-verified at
# construction time, so just demonstrate one pair
for blk in plane.base.blocks:
    if 0 in blk and 5 in blk:
        print(f"points 0 and 5 share line {blk}")
        break

print()
print("== symplectic quadrangle W(3,q) ==")
for q in (2, 3, 5):
    gq = build_w3(field(q))
    s, t = gq.s, gq.t
    n = gq.n_points
    print(f"q={q}: order ({s},{t}), {n} points = (s+1)(st+1) = "
          f"{(s + 1) * (s * t + 1)}, lines per point: {t + 1}")

print()
print("== parabolic quadrangle Q(4,q) ==")
for q in (2, 3, 4):
    gq = build_q4(field(q))
    print(f"q={q}: order ({gq.s},{gq.t}), {gq.n_points} points")

print()
print("== spans (hyperbolic lines) ==")
# the span of two non-collinear points is what a plaintext eavesdropper
# converges to; its size decides whether pseudonymity survives
for family, builder, q in (("W", build_w3, 3), ("W", build_w3, 5),
                           ("Q", build_q4, 3), ("Q", build_q4, 4)):
    gq = builder(field(q))
    x = 0
    y = next(u for u in range(gq.n_points) if u != x and u not in gq.ball(x, 1))
    sp = gq.span((x, y))
    print(f"{family}(·,{q}): span of a non-collinear pair has "
          f"{len(sp.members)} members, perp has {len(sp.perp)}")

print()
print("== field sanity ==")
f9 = GF(9)
print(f"GF(9): 3*3 = {f9.mul(3, 3)}  (x*x = 2 with x^2 = -1)")
print(f"GF(9): inv(5) = {f9.inv(5)}, check 5*inv(5) = {f9.mul(5, f9.inv(5))}")

print()
print("== interchange file ==")
save_geometry("demo_w33.json", build_w3(field(3)).base, "w3", q=3, s=3, t=3)
print("wrote demo_w33.json; `gqupir verify --in demo_w33.json` "
      "re-checks it from scratch")
