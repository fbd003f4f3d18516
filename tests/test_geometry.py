import json
import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir.fields import GF, field, normalize_point, projective_points
from gqupir.geometry import (
    AxiomViolation,
    CollinearGeneratorsError,
    Geometry,
    HigmanViolation,
    IncidenceStructure,
    VerificationFailed,
    _dumps,
    _form,
    _quadrangle,
    build_pg2,
    build_q4,
    build_w3,
    load_geometry,
    save_geometry,
    verify_gq,
    verify_plane,
)
from gqupir.upir import UPIRSystem
from conftest import get_gq, get_plane


def test_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 1, 1)])  # repeated point
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 1), (2, 3)])  # id out of range
    with pytest.raises(ValueError):
        IncidenceStructure(4, [(0, 1, 2)])  # point 3 uncovered
    with pytest.raises(ValueError):
        IncidenceStructure(2, [(0, 1), ()])  # empty block
    for bad in (1.5, 1.0, np.float64(1)):
        with pytest.raises(TypeError, match="^point ids must be integers$"):
            IncidenceStructure(3, [(0, bad), (1, 2)])
    assert IncidenceStructure(3, [(0, np.int64(1)), (1, 2)]).blocks == ((0, 1), (1, 2))


def reference_collinearity(inc):
    """Per point x, per point y, whether x != y share a block: the matrix
    as nested lists, from the set of point pairs of every block."""
    pairs = {(x, y) for blk in inc.blocks for x in blk for y in blk if x != y}
    n = inc.n_points
    return [[(x, y) in pairs for y in range(n)] for x in range(n)]


def test_structure_blocks_sorted_and_indexed():
    inc = IncidenceStructure(4, [(2, 3), (1, 0), (1, 2)])
    assert inc.blocks == ((0, 1), (1, 2), (2, 3))
    assert inc.point_to_blocks[1] == (0, 1)
    coll = inc.collinearity()
    assert coll.shape == (4, 1) and coll.dtype == np.uint8
    assert inc.collinear_rows(1).tolist() == [True, False, True, False]
    assert inc.collinearity() is coll
    assert not coll.flags.writeable
    # repeated blocks and blocks of one, two and three points
    mixed = IncidenceStructure(6, [(4, 3, 5), (2, 1), (1, 2), (0,), (1, 3)])
    assert mixed.blocks == ((0,), (1, 2), (1, 2), (1, 3), (3, 4, 5))
    for one in inc, mixed:
        assert one.collinear_rows(range(one.n_points)).tolist() == \
            reference_collinearity(one)


def _ragged():
    # blocks of one to four points, points on one to three blocks, and
    # n = 11, not a multiple of 8
    return IncidenceStructure(11, [(0, 1, 2, 3), (3, 4), (4, 5, 6), (9,),
                                   (0, 6, 7, 8), (8, 9, 10), (2, 10), (1, 5, 9)])


ORACLE_STRUCTURES = {
    **{f"{family}-{q}": (lambda family=family, q=q: get_gq(family, q).base)
       for family in ("w3", "q4") for q in (2, 3, 4, 5)},
    "pg2-2": lambda: get_plane(2).base,
    "ragged": _ragged,
}


@pytest.mark.parametrize("name", sorted(ORACLE_STRUCTURES))
def test_packed_rows_match_shared_blocks(name):
    # the structures of the brute-force builder oracle, W(3,2) with n = 15
    # and PG(2,2) with n = 7, and mixed block sizes and point degrees
    inc = ORACLE_STRUCTURES[name]()
    n = inc.n_points
    coll = inc.collinearity()
    assert coll.shape == (n, -(-n // 8)) and coll.dtype == np.uint8
    assert not np.unpackbits(coll, axis=1)[:, n:].any()  # pad bits clear
    want = reference_collinearity(inc)
    assert inc.collinear_rows(range(n)).tolist() == want
    for x in (0, n - 1):
        assert inc.collinear_rows(x).tolist() == want[x]
    assert inc.collinear_rows([]).shape == (0, n)


def test_collinear_rows_reject_bad_ids():
    inc = _ragged()
    for bad in (-1, 11):
        with pytest.raises(ValueError, match=f"^point {bad} out of range$"):
            inc.collinear_rows([0, bad])


def test_geometry_rejects_point_ids_out_of_range():
    # ids -1 and n once read row n - 1 and raised a bare IndexError
    gq = get_gq("w3", 3)
    for bad in (-1, gq.n_points):
        for call in (lambda: gq.ball(bad, 1), lambda: gq.ball(bad, 2),
                     lambda: gq.common_perp((bad, 0)),
                     lambda: gq.common_perp((0, bad)),
                     lambda: gq.span((bad, 0)), lambda: gq.span((0, bad))):
            with pytest.raises(ValueError, match=f"^point {bad} out of range$"):
                call()


def test_fano_plane():
    inc = build_pg2(GF(2)).base
    assert inc.n_points == 7 and inc.n_blocks == 7
    assert all(len(b) == 3 for b in inc.blocks)
    assert verify_plane(inc) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_pg2_pair_coverage(q):
    inc = build_pg2(GF(q)).base
    assert inc.n_points == q * q + q + 1 == inc.n_blocks
    count = {}
    for blk in inc.blocks:
        for pair in combinations(blk, 2):
            count[pair] = count.get(pair, 0) + 1
    assert all(c == 1 for c in count.values())
    assert len(count) == inc.n_points * (inc.n_points - 1) // 2


def test_pg2_is_not_a_gq():
    # a plane is full of triangles; the GQ verifier must object
    with pytest.raises(AxiomViolation):
        verify_gq(build_pg2(GF(2)).base)


@pytest.mark.parametrize(
    "family,q",
    [("w3", 2), ("w3", 3), ("w3", 4), ("w3", 5), ("q4", 2), ("q4", 3), ("q4", 4)],
)
def test_gq_counts(family, q):
    gq = get_gq(family, q)
    assert (gq.s, gq.t) == (q, q)
    assert gq.n_points == (q + 1) * (q * q + 1)
    assert gq.base.n_blocks == (q + 1) * (q * q + 1)
    assert all(len(b) == q + 1 for b in gq.base.blocks)


@pytest.mark.parametrize("family,q", [("w3", 2), ("w3", 3), ("q4", 3)])
def test_ball_partition(family, q):
    gq = get_gq(family, q)
    s, t = gq.s, gq.t
    for x in range(gq.n_points):
        b1, b2 = gq.ball(x, 1), gq.ball(x, 2)
        assert len(b1) == s * (t + 1)
        assert len(b2) == s * s * t
        assert not b1 & b2 and x not in b1 | b2
        assert len(b1) + len(b2) + 1 == gq.n_points
    with pytest.raises(ValueError):
        gq.ball(0, 3)


def _brute_force_blocks(f, family):
    """Every line of PG(n,q) through two points of the family's point set
    whose points all lie in the set, and for W(3,q) are also pairwise
    orthogonal under the symplectic form; as sorted point-id tuples."""

    def symp(u, v):
        return f.add(f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0])),
                     f.sub(f.mul(u[2], v[3]), f.mul(u[3], v[2])))

    def quadric(x):
        return f.sub(f.mul(x[0], x[0]),
                     f.add(f.mul(x[1], x[2]), f.mul(x[3], x[4])))

    if family == "w3":
        pts = projective_points(f, 3)
    else:
        pts = [p for p in projective_points(f, 4) if quadric(p) == 0]
    index = {p: i for i, p in enumerate(pts)}
    blocks = set()
    for u, v in combinations(pts, 2):
        line = {v} | {
            normalize_point(f, tuple(f.add(a, f.mul(lam, b)) for a, b in zip(u, v)))
            for lam in f.elements
        }
        if not all(p in index for p in line):
            continue
        if family == "w3" and any(symp(a, b) for a, b in combinations(line, 2)):
            continue
        blocks.add(tuple(sorted(index[p] for p in line)))
    return blocks


@pytest.mark.parametrize("family", ["w3", "q4"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_builders_match_brute_force(family, q):
    # q = 2, 4 (characteristic 2), 3 and 5 cover the polar form's cases
    assert set(get_gq(family, q).base.blocks) == _brute_force_blocks(GF(q), family)


def test_construction_deterministic():
    a, b = build_w3(GF(3)), build_w3(GF(3))
    assert a.base == b.base
    c, d = build_q4(GF(2)), build_q4(GF(2))
    assert c.base == d.base


def _scalar_form(f, terms, u, v):
    acc = 0
    for i, j, c in terms:
        acc = f.add(acc, f.mul(f.mul(c, u[i]), v[j]))
    return acc


FORM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 251, 256]


@pytest.mark.parametrize("q", FORM_ORDERS)
def test_form_matches_scalar_arithmetic(q):
    # p = 251 with 5 terms needs the widest digit slot, 2^8 and 3^5 the most
    # digits; half the coordinates are 0 so that B = 0 is common at every q
    f, rng = field(q), np.random.default_rng(q)
    for n_terms in range(1, 6):
        terms = [(int(rng.integers(5)), int(rng.integers(5)), int(rng.integers(q)))
                 for _ in range(n_terms)]
        u, v = (rng.integers(q, size=(m, 5)) * (rng.random((m, 5)) < 0.5)
                for m in (12, 40))
        tracemalloc.start()
        got = _form(f, terms, u, v)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 * 2**20  # no lookup table grows with k
        assert got.tolist() == [[_scalar_form(f, terms, a, b) == 0 for b in v]
                                for a in u]
        assert _form(f, terms, v).tolist() == [_scalar_form(f, terms, a, a) == 0
                                                for a in v]


def test_w3_16_memory_peak():
    # at most the 47.1 MiB that the build with table-gathered form sums
    # peaked at, stated in n^2 bytes (the size of the collinearity and of the
    # B(u, v) = 0 matrix) so that it holds across numpy versions
    field(16)  # built outside the traced region
    tracemalloc.start()
    n = build_w3(field(16)).n_points
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2.6 * n * n


def test_w3_16_collinearity_and_verify_memory_peak():
    # the packed rows are n^2 / 8 bytes, and no pass of the build or of the
    # check holds a temporary of the full width beside them; the dense
    # matrix they replaced peaked at 1.15 n^2 bytes here
    base = get_gq("w3", 16).base
    inc = IncidenceStructure(base.n_points, base.blocks)
    n = inc.n_points
    tracemalloc.start()
    inc.collinearity()
    assert verify_gq(inc) == (16, 16)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 0.2 * n * n


def test_w3_16_system_memory_peak():
    # the distance search holds a few packed levels of n^2 / 8 bytes; the
    # all-pairs distance table it replaced peaked at 6.5 n^2 bytes
    base = build_w3(field(16)).base
    base.collinearity()  # built outside the traced region
    n = base.n_points
    tracemalloc.start()
    system = UPIRSystem(base)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert system.diameter() == 2
    assert peak <= 1.5 * n * n


def test_quadrangle_rejects_nonisotropic_points():
    # under the dot form B(x, x) = 1 at (0, 0, 0, 1), point 0; unchecked, a
    # line uv would lack v and line assembly would never end
    f = GF(3)
    with pytest.raises(VerificationFailed, match=r"B\(x, x\) != 0 at point 0$"):
        _quadrangle(f, "w3", projective_points(f, 3), [(i, i, 1) for i in range(4)])


def _double_cyclic_33():
    # constant block size 3, constant degree 6, 33 = (2+1)(2*5+1) points,
    # which would force the impossible order (2,5)
    blocks = []
    for i in range(33):
        blocks.append(tuple(sorted((i, (i + 1) % 33, (i + 2) % 33))))
        blocks.append(tuple(sorted((i, (i + 4) % 33, (i + 8) % 33))))
    return IncidenceStructure(33, blocks)


def test_higman_violation():
    with pytest.raises(HigmanViolation):
        verify_gq(_double_cyclic_33())


def test_verify_gq_witnesses():
    # the 4-cycle is the trivial grid GQ(1,1); a 5-cycle has the wrong count
    assert verify_gq(IncidenceStructure(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == (1, 1)
    pent = IncidenceStructure(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(AxiomViolation) as e:
        verify_gq(pent)
    assert e.value.witness is not None


def test_grid_is_a_gq():
    # the 3x3 grid: rows + columns, order (2,1)
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    assert verify_gq(IncidenceStructure(9, rows + cols)) == (2, 1)


@pytest.mark.parametrize("family,q", [("w3", 2), ("w3", 3), ("q4", 3)])
def test_common_perp_sizes(family, q):
    gq = get_gq(family, q)
    for x in range(gq.n_points):
        for y in gq.ball(x, 2):
            assert len(gq.common_perp([x, y])) == gq.t + 1


def test_common_perp_errors():
    gq = get_gq("w3", 2)
    x = 0
    y = next(iter(gq.ball(x, 1)))
    with pytest.raises(CollinearGeneratorsError):
        gq.common_perp([x, y])
    with pytest.raises(CollinearGeneratorsError):
        gq.common_perp([x, x])
    with pytest.raises(ValueError):
        gq.common_perp([])
    assert gq.common_perp([x]) == set(gq.ball(x, 1))


@pytest.mark.parametrize(
    "family,q,size",
    [("w3", 3, 4), ("w3", 5, 6), ("q4", 3, 2), ("q4", 5, 2), ("q4", 2, 3), ("q4", 4, 5)],
)
def test_span_sizes(family, q, size):
    gq = get_gq(family, q)
    x = 0
    for y in sorted(gq.ball(x, 2))[:5]:
        sp = gq.span([x, y])
        assert len(sp.members) == size
        assert {x, y} <= sp.members
        assert sp.perp == gq.common_perp([x, y])


def test_span_members_pairwise_noncollinear():
    gq = get_gq("w3", 3)
    sp = gq.span([0, sorted(gq.ball(0, 2))[0]])
    for a, b in combinations(sorted(sp.members), 2):
        assert b not in gq.ball(a, 1)


def test_span_exchange_small():
    # spanning from any member pair reproduces the span: W(3,2) exhaustively
    gq = get_gq("w3", 2)
    for x in range(gq.n_points):
        for y in sorted(gq.ball(x, 2)):
            sp = gq.span([x, y])
            for a, b in combinations(sorted(sp.members), 2):
                assert gq.span([a, b]).members == sp.members


def test_from_structure_roundtrip():
    gq = get_gq("w3", 2)
    again = Geometry.from_structure(gq.base, "w3")
    assert (again.s, again.t) == (2, 2)
    plane = Geometry.from_structure(get_plane(3).base, "pg2")
    assert (plane.s, plane.t) == (3, None)
    with pytest.raises(AxiomViolation):
        Geometry.from_structure(get_plane(3).base, "w3")


def test_geometry_file_roundtrip(tmp_path):
    gq = build_w3(GF(3))
    path = tmp_path / "w3_3.json"
    save_geometry(path, gq.base, family="w3", q=3, s=3, t=3)
    loaded = load_geometry(path)
    assert loaded.structure == gq.base
    assert (loaded.family, loaded.q, loaded.s, loaded.t) == ("w3", 3, 3, 3)
    assert verify_gq(loaded.structure) == (3, 3)


def test_geometry_file_is_sorted(tmp_path):
    inc = build_pg2(GF(2)).base
    path = tmp_path / "fano.json"
    save_geometry(path, inc, family="pg2", q=2, s=2, t=2)
    data = json.loads(path.read_text())
    assert data["blocks"] == sorted(data["blocks"])
    assert data["points"] == list(range(7))


def test_geometry_file_accepts_custom_designs(tmp_path):
    # a hand-built pairwise balanced design with mixed block sizes
    data = {
        "family": "custom",
        "points": [0, 1, 2, 3, 4],
        "blocks": [[0, 1, 2], [0, 3], [0, 4], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
    }
    path = tmp_path / "pbd.json"
    path.write_text(json.dumps(data))
    loaded = load_geometry(path)
    assert loaded.structure.n_points == 5
    assert loaded.q is None


def test_geometry_file_rejects_bad_points(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "x", "points": [0, 2], "blocks": [[0, 2]]}))
    with pytest.raises(ValueError):
        load_geometry(path)


def test_failed_save_leaves_the_earlier_file(tmp_path):
    """A value JSON cannot encode raises json's TypeError before the file
    is opened, so a file already at the path keeps its bytes."""
    inc = get_gq("w3", 2).base
    path = tmp_path / "w3_2.json"
    save_geometry(path, inc, "w3", q=2, s=2, t=2)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        save_geometry(path, inc, "w3", q=np.int64(2), s=2, t=2)
    assert path.read_bytes() == before


# JSON values as json.dumps takes them, with the cases its encoder treats
# apart: ints past 64 bits, bools among ints, non-finite floats and -0.0,
# escapes, non-ASCII text and lone surrogates, tuples, and empty containers
_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"\\/\b\f\n\r\t\x00\x1f\x7f', "é✓😀", "\ud800", "a\udfffb"])
_INTS = (st.integers() | st.integers(min_value=2**64)
         | st.integers(max_value=-2**64))
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
_INT_LISTS = st.lists(_INTS) | st.lists(_INTS).map(tuple)
_MIXED_LISTS = st.lists(_INTS | st.booleans(), min_size=1)


def _json_values(keys):
    return st.recursive(
        _SCALARS | _INT_LISTS | _MIXED_LISTS,
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                       | st.dictionaries(keys, inner)),
        max_leaves=25)


@pytest.mark.parametrize("sort_keys,keys", [
    (True, _TEXT),
    (False, _TEXT | _INTS | _FLOATS | st.booleans() | st.none()),
], ids=["sorted", "unsorted"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dumps_matches_json_dumps(sort_keys, keys, data):
    value = data.draw(_json_values(keys))
    assert _dumps(value, sort_keys) == json.dumps(value, indent=1,
                                                  sort_keys=sort_keys)


@pytest.mark.parametrize("value,sort_keys", [
    (np.int64(2), False),
    ([1, 2, np.int64(3)], False),
    ({"q": np.int64(2)}, True),
    ({"a": [[0, 1], (np.int64(2),)]}, False),
    ({(1, 2): 0}, False),
    ({1: 0, "a": 1}, True),
    ({1, 2}, False),
])
def test_dumps_raises_what_json_dumps_raises(value, sort_keys):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=1, sort_keys=sort_keys)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        _dumps(value, sort_keys)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_file_roundtrip_random_structures(tmp_path_factory, data):
    n = data.draw(st.integers(min_value=2, max_value=9))
    blocks = data.draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n),
            min_size=1,
            max_size=12,
        )
    )
    if set().union(*blocks) != set(range(n)):
        blocks.append(set(range(n)))
    inc = IncidenceStructure(n, blocks)
    assert inc.collinear_rows(range(n)).tolist() == reference_collinearity(inc)
    path = tmp_path_factory.mktemp("geo") / "r.json"
    save_geometry(path, inc, family="custom")
    assert load_geometry(path).structure == inc


def test_field_cache_shared_with_constructions():
    assert build_pg2(field(2)).base == build_pg2(field(2)).base
