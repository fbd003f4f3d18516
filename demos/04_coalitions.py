"""Coalitions: how fast pseudonymity degrades as observers pool their views.

Each extra member refines the partition by a meet.  Random and spread
placements stay within the analytic residue bound and keep a positive
security margin up to the advertised coalition cap; a coalition built along
a line is the known worst case and actually de-anonymises users.  Writes
demo_sweep.csv to the working directory.
"""

from gqupir import (
    UPIRSystem,
    analytic_coalition,
    analytic_single,
    build_w3,
    coalition_sweep,
    converge_topics,
    field,
    partition_meet,
    place_coalition,
    security_margin,
)
from gqupir.harness import write_sweep_csv

gq3 = build_w3(field(3))

print("== two observers, encrypted protocol, W(3,3) ==")
solo = analytic_single(gq3, 0, 2)
print(f"observer 0 alone: giant class {max(solo.sizes())}")
other = next(u for u in range(gq3.n_points) if u and u not in gq3.coll[0])
pair = analytic_coalition(gq3, (0, other), 2)
print(f"observers (0, {other}) pooled: giant class {max(pair.sizes())}, "
      f"class sizes {pair.sizes()}")
same = partition_meet([analytic_single(gq3, 0, 2),
                       analytic_single(gq3, other, 2)])
print(f"meet of the two single-observer partitions agrees: "
      f"{same.sizes() == pair.sizes()}")

print()
print("== placements ==")
for placement in ("random", "spread", "line"):
    coal = place_coalition(gq3, 4, placement, seed=9)
    dists = sorted(
        min(2 if v not in gq3.coll[u] else 1 for v in coal if v != u)
        for u in coal)
    print(f"{placement:6s}: members {coal}, nearest-member distances {dists}")

print()
print("== margin decay, W(3,q), encrypted protocol ==")
geoms = [("w3", q, build_w3(field(q))) for q in (3, 5)]
rows = coalition_sweep(geoms, 2, sizes=(1, 2, 3), placements=("spread",),
                       seed=17)
print(f"{'q':>2} {'size':>4} {'giant':>5} {'residue':>7} "
      f"{'bound':>5} {'eps*':>6}")
for r in rows:
    print(f"{r.q:>2} {r.coalition_size:>4} {r.giant:>5} {r.residue:>7} "
          f"{r.residue_bound:>5} {r.epsilon_star:>6.3f}")
with open("demo_sweep.csv", "w") as fh:
    write_sweep_csv(rows, fh)
print("full table written to demo_sweep.csv "
      "(same format as `gqupir sweep`)")

print()
print("== the line attack ==")
# a whole line is blind to its own members: the meet still has 3-classes.
# covering a line from the outside (anchor plus one off-line neighbour per
# covered point) is what actually breaks distance-1 users.
line_coal = place_coalition(gq3, 4, "line", seed=9)
meet = analytic_coalition(gq3, line_coal, 2)
print(f"covering coalition {line_coal}: class sizes {meet.sizes()}")
singles = [next(iter(c)) for c in meet.classes if len(c) == 1
           and next(iter(c)) not in line_coal]
print(f"non-member users fully identified in the limit: {sorted(singles)}")

victim = singles[0]
system = UPIRSystem(gq3.base)
states = converge_topics(system, list(line_coal), 2, {"v": victim}, 20000,
                         seed=23, analytic=meet)
st = states["v"]
print(f"live run: user {victim} resolved to {sorted(st.candidates)} "
      f"after {st.rounds_observed} encrypted queries")

margin = security_margin(analytic_coalition(gq3, line_coal[:1], 2))
print(f"for contrast, one member alone leaves epsilon* {margin.epsilon_star:.3f}")
