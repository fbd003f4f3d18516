"""What a single honest-but-curious user can deduce, analytically and live.

The analytic partition says where inference must stop; the tracker replays
actual transcripts and is checked against that limit.  The headline contrast:
on a projective plane the plaintext protocol identifies every source, on a
generalised quadrangle distance-2 sources hide in a span forever, and the
encrypted protocol widens that to a giant indistinguishability class.
"""

from gqupir import (
    UPIRSystem,
    analytic_single,
    build_pg2,
    build_w3,
    converge_topics,
    field,
    secure_at,
    security_margin,
)

observer = 0

print("== analytic limits, W(3,3), observer 0 ==")
gq = build_w3(field(3))
for protocol in (1, 2):
    part = analytic_single(gq, observer, protocol)
    sizes = part.sizes()
    print(f"protocol {protocol}: classes {sizes}")
p2 = analytic_single(gq, observer, 2)
margin = security_margin(p2)
print(f"protocol 2 margin: giant {margin.giant}, residue {margin.residue}, "
      f"epsilon* {margin.epsilon_star:.4f}")
print(f"  secure at epsilon 0.25: {secure_at(p2, 0.25)}")
print(f"  secure at epsilon 0.35: {secure_at(p2, 0.35)}")

print()
print("== plaintext protocol on a plane: total loss ==")
plane = build_pg2(field(3))
part = analytic_single(plane, observer, 1)
print(f"PG(2,3) protocol 1 classes: {part.sizes()} (all singletons)")
sources = {f"t{u}": u for u in (1, 5, 12)}
states = converge_topics(UPIRSystem(plane.base), [observer], 1, sources, 2000,
                         seed=42, analytic=part)
for topic in sorted(states):
    st = states[topic]
    print(f"  topic {topic}: source {st.source} pinned to {sorted(st.candidates)} "
          f"after {st.rounds_observed} queries")

print()
print("== plaintext protocol on W(3,3): spans are a floor ==")
system = UPIRSystem(gq.base)
part1 = analytic_single(gq, observer, 1)
far = next(u for u in range(gq.n_points)
           if u != observer and u not in gq.ball(observer, 1))
span = gq.span((observer, far))
print(f"source {far} is at distance 2; its span class is "
      f"{sorted(span.members - {observer})}")
states = converge_topics(system, [observer], 1, {"far": far}, 5000, seed=42,
                         analytic=part1)
st = states["far"]
print(f"  tracker landed on {sorted(st.candidates)} after "
      f"{st.rounds_observed} queries and can go no lower")

near = min(gq.ball(observer, 1))
states = converge_topics(system, [observer], 1, {"near": near}, 5000, seed=42,
                         analytic=part1)
st = states["near"]
print(f"  a distance-1 source ({near}) is still caught exactly: "
      f"{sorted(st.candidates)}")

print()
print("== encrypted protocol on W(3,3): the giant class ==")
part2 = analytic_single(gq, observer, 2)
states = converge_topics(system, [observer], 2, {"far": far}, 10000, seed=42,
                         analytic=part2)
st = states["far"]
print(f"distance-2 source: candidates never drop below "
      f"{len(st.candidates)} users (s^2 t = 27)")
states = converge_topics(system, [observer], 2, {"near": near}, 10000, seed=42,
                         analytic=part2)
st = states["near"]
print(f"distance-1 source: pinned only to its line class, "
      f"{sorted(st.candidates)}")

print()
print("== leaky relays reopen the hole ==")
# if relays hand the observer their unreadable metadata for the one tracked
# topic, route elimination works again and the line class collapses
states = converge_topics(system, [observer], 2, {"near": near}, 10000, seed=42,
                         relay_metadata=True)
st = states["near"]
print(f"with relay metadata the same distance-1 source resolves to "
      f"{sorted(st.candidates)} in {st.rounds_observed} queries")
