"""The axiom verifiers against the loops they replaced.

verify_gq and verify_plane check their family's defining axiom once per
block or point and derive the rest by counting.  reference_verify_gq and
reference_verify_plane below are the verifiers they replaced, kept as the
reference, which check every axiom with its own loop.  On mutants of small
planes and quadrangles both must agree on accept/reject and on the order,
and every witness the new verifiers raise must be a real violation.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqupir.geometry import (
    AxiomViolation,
    IncidenceStructure,
    verify_gq,
    verify_plane,
)

from conftest import get_gq, get_plane


def collinear_sets(inc):
    """Per point, the set of other points sharing a block with it, built
    from the blocks."""
    coll = [set() for _ in range(inc.n_points)]
    for blk in inc.blocks:
        for x in blk:
            coll[x].update(blk)
    for x, near in enumerate(coll):
        near.discard(x)
    return coll


def reference_verify_gq(inc):
    """Check every defining axiom of a generalised quadrangle on ``inc``.

    Returns the order (s, t).  Raises AxiomViolation (HigmanViolation for the
    parameter bound) with a concrete witness on the first failure.  Checks,
    in order: constant block size, constant point degree, total point count,
    Higman's inequality, pairwise block intersections, the one-point
    projection axiom for non-incident point/block pairs, and independently
    that no triangle of blocks exists.
    """
    sizes = {len(b) for b in inc.blocks}
    if len(sizes) != 1:
        raise AxiomViolation(f"block sizes not constant: {sorted(sizes)}", sorted(sizes))
    s = sizes.pop() - 1
    degrees = {len(bs) for bs in inc.point_to_blocks}
    if len(degrees) != 1:
        raise AxiomViolation(f"point degrees not constant: {sorted(degrees)}", sorted(degrees))
    t = degrees.pop() - 1
    if s < 1 or t < 1:
        raise AxiomViolation(f"degenerate order ({s},{t})", (s, t))
    if inc.n_points != (s + 1) * (s * t + 1):
        raise AxiomViolation(
            f"point count {inc.n_points} != (s+1)(st+1) = {(s + 1) * (s * t + 1)}",
            inc.n_points,
        )
    if inc.n_blocks != (t + 1) * (s * t + 1):
        raise AxiomViolation(
            f"block count {inc.n_blocks} != (t+1)(st+1) = {(t + 1) * (s * t + 1)}",
            inc.n_blocks,
        )
    if s > 1 and t > 1 and (s > t * t or t > s * s):
        raise HigmanViolation(f"order ({s},{t}) violates s <= t^2 and t <= s^2", (s, t))

    for (i, a), (j, b) in combinations(enumerate(inc.block_sets), 2):
        common = a & b
        if len(common) > 1:
            raise AxiomViolation(
                f"blocks {i} and {j} share {sorted(common)}", (i, j, sorted(common))
            )

    coll = collinear_sets(inc)
    for li, blk in enumerate(inc.blocks):
        bset = inc.block_sets[li]
        for x in range(inc.n_points):
            if x in bset:
                continue
            hits = sum(1 for y in blk if y in coll[x])
            if hits != 1:
                raise AxiomViolation(
                    f"point {x} sees {hits} points of block {li}, expected 1",
                    (x, li, hits),
                )

    # triangle-freeness, checked independently of the projection axiom:
    # two blocks through x plus any collinear pair straddling them close a
    # triangle of three blocks meeting pairwise in three distinct points
    for x in range(inc.n_points):
        through = inc.point_to_blocks[x]
        for bi, bj in combinations(through, 2):
            for y in inc.blocks[bi]:
                if y == x:
                    continue
                for z in inc.blocks[bj]:
                    if z != x and z in coll[y]:
                        raise AxiomViolation(
                            f"triangle on points {x},{y},{z}", (x, y, z)
                        )
    return s, t


def reference_verify_plane(inc):
    """Check projective-plane axioms on ``inc``; returns the order q.

    Every pair of points lies on exactly one block, every pair of blocks
    meets in exactly one point, block size is constant q+1, there are
    q^2+q+1 points and blocks, and a quadrilateral (4 points, no 3 on a
    block) exists.
    """
    sizes = {len(b) for b in inc.blocks}
    if len(sizes) != 1:
        raise AxiomViolation(f"block sizes not constant: {sorted(sizes)}", sorted(sizes))
    q = sizes.pop() - 1
    if q < 2:
        raise AxiomViolation(f"order {q} too small for a plane", q)
    expect = q * q + q + 1
    if inc.n_points != expect or inc.n_blocks != expect:
        raise AxiomViolation(
            f"expected {expect} points and blocks, got {inc.n_points}/{inc.n_blocks}",
            (inc.n_points, inc.n_blocks),
        )
    pair_count = {}
    for blk in inc.blocks:
        for a, b in combinations(blk, 2):
            pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
            if pair_count[(a, b)] > 1:
                raise AxiomViolation(f"points {a},{b} on two blocks", (a, b))
    if len(pair_count) != inc.n_points * (inc.n_points - 1) // 2:
        missing = next(
            (a, b)
            for a, b in combinations(range(inc.n_points), 2)
            if (a, b) not in pair_count
        )
        raise AxiomViolation(f"points {missing} on no common block", missing)
    for (i, a), (j, b) in combinations(enumerate(inc.block_sets), 2):
        if len(a & b) != 1:
            raise AxiomViolation(f"blocks {i},{j} meet in {len(a & b)} points", (i, j))
    # quadrilateral: a,b on L; c off L; d off L and off the blocks a-c, b-c
    L = inc.block_sets[0]
    a, b = inc.blocks[0][0], inc.blocks[0][1]
    c = next(x for x in range(inc.n_points) if x not in L)
    blocked = set(L)
    for bi in inc.point_to_blocks[c]:
        if a in inc.block_sets[bi] or b in inc.block_sets[bi]:
            blocked |= inc.block_sets[bi]
    d = next((x for x in range(inc.n_points) if x not in blocked), None)
    if d is None:
        raise AxiomViolation("no quadrilateral: plane is degenerate", None)
    return q


def _grid_33():
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    cols = [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return IncidenceStructure(9, rows + cols)


BASES = {
    "w3-2": lambda: get_gq("w3", 2).base,
    "q4-2": lambda: get_gq("q4", 2).base,
    "w3-3": lambda: get_gq("w3", 3).base,
    "q4-3": lambda: get_gq("q4", 3).base,
    "grid-3x3": _grid_33,
    "pg2-2": lambda: get_plane(2).base,
    "pg2-3": lambda: get_plane(3).base,
    "pg2-4": lambda: get_plane(4).base,
}

PAIRS = [(verify_gq, reference_verify_gq), (verify_plane, reference_verify_plane)]


def _outcome(verify, inc):
    try:
        return verify(inc), None
    except AxiomViolation as exc:
        return None, exc


def assert_real_violation(inc, exc, ref_exc):
    """The witness of exc names a real failure of inc."""
    w = exc.witness
    coll = collinear_sets(inc)
    if str(exc).startswith("point ") and " sees " in str(exc):
        z, i, hits = w  # a point off block i seeing none of its points
        assert z not in inc.block_sets[i]
        assert hits == sum(y in coll[z] for y in inc.blocks[i]) == 0
    elif str(exc).endswith("on no common block"):
        x, y = w  # a pair of points on no common block
        assert x != y and y not in coll[x]
    else:
        # the degree, count, Higman and quadrilateral checks are the
        # reference's own, reached in the same order
        assert type(exc) is type(ref_exc) and str(exc) == str(ref_exc)


def assert_agrees(inc):
    for verify, reference in PAIRS:
        got, exc = _outcome(verify, inc)
        want, ref_exc = _outcome(reference, inc)
        assert got == want
        assert (exc is None) == (ref_exc is None)
        if exc is not None:
            assert_real_violation(inc, exc, ref_exc)


def _swap(blocks, i, a, j, b):
    """blocks with point a of block i and point b of block j exchanged, or
    None when that would repeat a point within a block."""
    x, y = blocks[i][a], blocks[j][b]
    if i == j or y in blocks[i] or x in blocks[j]:
        return None
    out = [list(blk) for blk in blocks]
    out[i][a], out[j][b] = y, x
    return out


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_agree(name):
    assert_agrees(BASES[name]())


@pytest.mark.parametrize("name", ["w3-2", "grid-3x3", "pg2-2"])
def test_every_single_swap_agrees(name):
    base = BASES[name]()
    blocks = base.blocks
    k = len(blocks[0])
    for i, j in combinations(range(len(blocks)), 2):
        for a in range(k):
            for b in range(k):
                swapped = _swap(blocks, i, a, j, b)
                if swapped is not None:
                    assert_agrees(IncidenceStructure(base.n_points, swapped))


@st.composite
def mutants(draw):
    """A base with 1-3 point swaps, replacements or relabellings applied."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]()
    n = base.n_points
    blocks = [list(blk) for blk in base.blocks]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["swap", "replace", "relabel"]))
        i = draw(st.integers(0, len(blocks) - 1))
        a = draw(st.integers(0, len(blocks[i]) - 1))
        if op == "swap":
            j = draw(st.integers(0, len(blocks) - 1))
            swapped = _swap(blocks, i, a, j, draw(st.integers(0, len(blocks[j]) - 1)))
            blocks = swapped if swapped is not None else blocks
        elif op == "replace":
            p = draw(st.integers(0, n - 1))
            if p not in blocks[i]:
                blocks[i][a] = p
        else:
            perm = draw(st.permutations(range(n)))
            blocks = [[perm[x] for x in blk] for blk in blocks]
    try:
        return IncidenceStructure(n, blocks)
    except ValueError:  # a replacement left a point on no block
        return base


@settings(max_examples=300, deadline=None)
@given(mutants())
def test_mutants_agree(inc):
    assert_agrees(inc)

