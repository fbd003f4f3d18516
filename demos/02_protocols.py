"""Run both relay protocols and inspect what different parties see.

A query travels source -> relays -> proxy -> database and back.  Protocol 1
writes payloads every member of a space can read; protocol 2 encrypts them
to the addressed proxy.  The observer-view machinery below is exactly what
the adversary module consumes.  Writes demo_p2.jsonl and its sidecar
demo_p2.truth.json to the working directory.
"""

from collections import Counter

from gqupir import (
    QueryWorkload,
    UPIRSystem,
    build_w3,
    external_view,
    field,
    observer_view,
    path_choice_counts,
    proxy_counts,
    run_protocol,
    write_ground_truth,
    write_transcript,
)

gq = build_w3(field(3))
system = UPIRSystem(gq.base)
print(f"W(3,3) system: {system.n_users} users, diameter {system.diameter()}")

print()
print("== anatomy of one query ==")
work = QueryWorkload(source=0, topic="tea", count=1, protocol=1)
tr = run_protocol(system, work, 7)
for ev in tr.events:
    print(f"  seq={ev.seq} {ev.kind:14s} space={ev.space} proxy={ev.proxy} "
          f"path={ev.path}")
proxy = tr.events[0].proxy
d = system.user_distance(0, proxy)
print(f"source 0 to proxy {proxy}: distance {d}, so {2 * d + 2} events")

print()
print("== who sees what (protocol 1) ==")
work = QueryWorkload(source=0, topic="tea", count=50, protocol=1)
tr = run_protocol(system, work, 7)
for obs in (1, 13, 39):
    view = observer_view(tr, obs)
    readable = sum(1 for ev in view.events if ev.topic is not None)
    print(f"  user {obs} (distance {system.user_distance(0, obs)} from source): "
          f"{len(view.events)} events, {readable} with readable payload")
wire = external_view(tr)
print(f"  database wire: {len(wire)} events, all payloads in the clear")

print()
print("== who sees what (protocol 2) ==")
work2 = QueryWorkload(source=0, topic="tea", count=50, protocol=2)
tr2 = run_protocol(system, work2, 7)
for obs in (1, 13, 39):
    view = observer_view(tr2, obs)
    readable = sum(1 for ev in view.events if ev.topic is not None)
    print(f"  user {obs}: {len(view.events)} events, {readable} readable "
          "(only queries that picked this user as proxy)")

print()
print("== routing statistics ==")
work = QueryWorkload(source=0, topic="tea", count=20000, protocol=1)
tr = run_protocol(system, work, 11)
counts = proxy_counts(tr)
print(f"proxy spread over {len(counts)} users, "
      f"min {counts.min()}, max {counts.max()} "
      f"(expect about {20000 // system.n_users} each)")
routes = path_choice_counts(tr)
far_splits = Counter(len(per_route) for prx, per_route in routes.items()
                     if system.user_distance(0, prx) == 2)
print(f"distance-2 proxies route through {sorted(far_splits)} distinct "
      "middle spaces (t+1 = 4 shortest paths each)")

print()
print("== transcript files ==")
write_transcript(tr2, "demo_p2.jsonl")
write_ground_truth(tr2, "demo_p2.truth.json")
with open("demo_p2.jsonl") as fh:
    first = fh.readline().strip()
print(f"first line of demo_p2.jsonl:\n  {first}")
print("ground truth lives in a separate sidecar so the log itself stays "
      "observer-grade")
