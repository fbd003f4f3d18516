"""End-to-end acceptance runs, one per claim, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; the whole file takes on the order of a minute.
"""

import functools
import json
import math
import statistics
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import chdtrc, ndtri

from gqupir.adversary import (
    DegeneratePartition,
    analytic_coalition,
    analytic_single,
    coalition_sweep,
    converge_topics,
    place_coalition,
    security_margin,
)
from gqupir.cli import main
from gqupir.geometry import verify_gq
from gqupir.upir import (
    QueryWorkload,
    UPIRSystem,
    path_choice_counts,
    proxy_uniformity,
    run_protocol,
)

from conftest import get_gq, get_plane


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                print(f"[acceptance] C{num} {label}: FAIL", flush=True)
                raise
            line = f"[acceptance] C{num} {label}: PASS"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)
        return wrapper
    return deco


@criterion(1, "geometry exactness")
def test_geometry_exactness():
    cases = [("w3", q) for q in (2, 3, 5, 7)] + [("q4", q) for q in (2, 3, 5)]
    for family, q in cases:
        gq = get_gq(family, q)
        s, t = verify_gq(gq.base)
        assert (s, t) == (q, q)
        n = gq.base.n_points
        assert n == (s + 1) * (s * t + 1)
        assert s <= t * t and t <= s * s
        for x in range(n):
            near = len(gq.ball(x, 1))
            assert near == s * (t + 1)
            assert n - 1 - near == s * s * t
    return f"{len(cases)} geometries"


@criterion(2, "span sizes by family and parity")
def test_span_sizes_exhaustive():
    expected = {
        ("w3", 3): 4, ("w3", 5): 6,
        ("q4", 3): 2, ("q4", 5): 2,
        ("q4", 2): 3, ("q4", 4): 5,
    }
    pairs = 0
    for (family, q), size in expected.items():
        gq = get_gq(family, q)
        for x in range(gq.n_points):
            for y in range(x + 1, gq.n_points):
                if y not in gq.ball(x, 1):
                    assert len(gq.span((x, y)).members) == size, (family, q, x, y)
                    pairs += 1
    return f"{pairs} non-collinear pairs"


@criterion(3, "span exchange and intersection laws")
def test_span_laws_exhaustive():
    for family in ("w3", "q4"):
        gq = get_gq(family, 3)
        spans = set()
        for x in range(gq.n_points):
            for y in range(x + 1, gq.n_points):
                if y in gq.ball(x, 1):
                    continue
                members = gq.span((x, y)).members
                spans.add(members)
                for a in members:
                    if a != x:
                        assert gq.span((a, x)).members == members
        spans = sorted(spans, key=sorted)
        for i, sa in enumerate(spans):
            for sb in spans[i + 1 :]:
                assert len(sa & sb) <= 1
    return None


@criterion(4, "proxy and path-choice uniformity")
def test_uniform_routing():
    gq = get_gq("w3", 3)
    sys_ = UPIRSystem(gq.base)
    src = 0
    tr = run_protocol(sys_, QueryWorkload(src, "t", 100_000, protocol=1), 0)
    chi2, p = proxy_uniformity(tr)
    assert p >= 0.01, f"proxy chi-square p={p}"
    by_proxy = path_choice_counts(tr)
    far = [v for v in range(40) if v != src and v not in gq.ball(src, 1)]
    # each far proxy's t+1 route counts against uniform.  Every count lies
    # within a family-wise 1 % bound on its z-score (Bonferroni over the
    # 108 counts, |z| <= 3.91), so a bias on one route fails; a bound of 3
    # sigma on each count fails about a quarter of uniform streams.  One
    # chi-square test of all the counts at p >= 0.01, as for the proxies,
    # catches a bias spread over many routes.
    share = 1 / (gq.t + 1)
    bound = ndtri(1 - 0.01 / (2 * len(far) * (gq.t + 1)))
    route_chi2 = max_z = 0.0
    for v in far:
        routes = by_proxy[v]
        assert len(routes) == gq.t + 1
        total = sum(routes.values())
        mean, sigma = total * share, math.sqrt(total * share * (1 - share))
        for cnt in routes.values():
            z = (cnt - mean) / sigma
            assert abs(z) <= bound, (v, routes, z)
            max_z = max(max_z, abs(z))
            route_chi2 += (cnt - mean) ** 2 / mean
    route_p = chdtrc(len(far) * gq.t, route_chi2)
    assert route_p >= 0.01, f"route chi-square p={route_p}"
    return (f"chi-square p={p:.3f}, routes of {len(far)} proxies "
            f"p={route_p:.3f}, max |z|={max_z:.2f} <= {bound:.2f}")


@criterion(5, "plane plaintext sources fully resolved")
def test_plane_resolution():
    plane = get_plane(3)
    sys_ = UPIRSystem(plane.base)
    observer = 0
    rng = np.random.default_rng(np.random.SeedSequence([50, 1]))
    sources = {
        f"t{i:03d}": int(rng.choice([u for u in range(13) if u != observer]))
        for i in range(100)
    }
    states = converge_topics(sys_, (observer,), 1, sources, 10_000, seed=50)
    rounds = []
    for name, u in sources.items():
        st = states[name]
        assert st.converged and st.candidates == frozenset({u}), name
        rounds.append(st.rounds_observed)
    med = statistics.median(rounds)
    return f"100/100 resolved, median {med:.0f} rounds, max {max(rounds)}"


@criterion(6, "plaintext candidate floors on W(3,3)")
def test_plaintext_span_floor():
    gq = get_gq("w3", 3)
    sys_ = UPIRSystem(gq.base)
    c = 0
    part = analytic_single(gq, c, 1)
    rng = np.random.default_rng(np.random.SeedSequence([60, 1]))
    far = [u for u in range(40) if u != c and u not in gq.ball(c, 1)]
    sources = {f"d2_{i:03d}": int(rng.choice(far)) for i in range(100)}
    floors = {t: part.class_of(u) for t, u in sources.items()}
    last_len = {}

    def on_step(topic, rounds, cand):
        if len(cand) != last_len.get(topic):
            last_len[topic] = len(cand)
            assert floors[topic] <= cand, (topic, rounds)

    states = converge_topics(sys_, (c,), 1, sources, 4000, seed=60,
                             analytic=part, on_step=on_step)
    for topic, u in sources.items():
        st = states[topic]
        assert st.converged, topic
        assert st.candidates == floors[topic]
        assert len(st.candidates) == 3
    near_states = converge_topics(
        sys_, (c,), 1, {f"d1_{u}": u for u in sorted(gq.ball(c, 1))}, 4000,
        seed=61, analytic=part)
    for st in near_states.values():
        assert st.converged and st.candidates == frozenset({st.source})
    return "100/100 distance-2 runs hit the 3-user span floor; all 12 " \
           "distance-1 sources resolved"


@criterion(7, "encrypted distance-two class never shrinks")
def test_encrypted_floor():
    gq = get_gq("w3", 3)
    sys_ = UPIRSystem(gq.base)
    c = 0
    part = analytic_single(gq, c, 2)
    far = [u for u in range(40) if u != c and u not in gq.ball(c, 1)]
    floor = part.class_of(far[0])
    assert len(floor) == 27
    rng = np.random.default_rng(np.random.SeedSequence([70, 1]))
    sources = {f"r{i:03d}": int(rng.choice(far)) for i in range(100)}
    last_len = {}
    violations = []

    def on_step(topic, rounds, cand):
        if len(cand) != last_len.get(topic):
            last_len[topic] = len(cand)
            if not floor <= cand:
                violations.append((topic, rounds))

    states = converge_topics(sys_, (c,), 2, sources, 10_000, seed=70,
                             on_step=on_step)
    assert violations == []
    for st in states.values():
        assert st.candidates == floor
        assert st.rounds_observed == 10_000
    return "100 runs x 10000 queries, zero violations"


@criterion(8, "coalition sweep margins and bounds")
def test_coalition_sweep():
    geoms = [("w3", q, get_gq("w3", q)) for q in (3, 5, 7)]
    rows = coalition_sweep(geoms, 2, (1, 2, 3), ("random", "spread"), seed=80)
    spread_cap = {3: 1, 5: 2, 7: 3}
    for row in rows:
        if row.coalition_size == 1:
            assert row.giant == row.s * row.s * row.t, row
        if row.placement == "random":
            assert row.within_bound, row
        if row.placement == "spread" and row.coalition_size <= spread_cap[row.q]:
            assert row.epsilon_star > 0.0, row
    for _, q, gq in geoms:
        members = place_coalition(gq, gq.s + 1, "line", seed=81)
        meet = analytic_coalition(gq, members, 2)
        near = set()
        for m in members:
            near |= gq.ball(m, 1)
        near -= set(members)
        resolved = [u for u in near if meet.class_of(u) == frozenset({u})]
        assert resolved, f"line coalition resolved nobody at q={q}"
    return f"{len(rows)} rows, line coalitions bite at q=3,5,7"


@criterion(9, "odd-quadric degeneracy against plaintext only")
def test_degeneracy_contrast():
    gq = get_gq("q4", 3)
    plain = analytic_single(gq, 0, 1)
    assert plain.is_discrete()
    try:
        security_margin(plain)
        assert False, "expected a degenerate partition"
    except DegeneratePartition:
        pass
    encrypted = analytic_single(gq, 0, 2)
    m = security_margin(encrypted)
    assert m.giant == 27
    return "plaintext resolves all 40, encryption restores a 27-class"


@criterion(10, "byte-identical reruns")
def test_rerun_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sim_out = tmp / "sim.json"
        prefix = tmp / "run"
        sim_argv = ["simulate", "--family", "w3", "--q", "3", "--protocol",
                    "2", "--coalition", "0,13", "--topics", "2", "--queries",
                    "400", "--seed", "100", "--transcript", str(prefix),
                    "--out", str(sim_out)]
        sweep_out = tmp / "sweep.csv"
        sweep_argv = ["sweep", "--family", "w3,q4", "--q", "3,5",
                      "--protocol", "2", "--coalition-size", "1,2",
                      "--placement", "random,spread", "--seed", "100",
                      "--out", str(sweep_out)]

        def snapshot():
            assert main(sim_argv) == 0
            assert main(sweep_argv) == 0
            return (sim_out.read_bytes(),
                    (tmp / "run.jsonl").read_bytes(),
                    (tmp / "run.truth.json").read_bytes(),
                    sweep_out.read_bytes())

        first = snapshot()
        second = snapshot()
        assert first == second
        report = json.loads(first[0])
        assert report["sound"] is True
    return "simulate and sweep outputs stable"
