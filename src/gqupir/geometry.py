"""Finite incidence geometries: projective planes and generalised quadrangles.

Constructions
-------------
``build_pg2(f)``   the projective plane PG(2,q): canonical points of the
                   plane, blocks = kernels of the linear forms.
``build_w3(f)``    the symplectic quadrangle W(3,q): all points of PG(3,q),
                   blocks = the lines that are totally isotropic for the
                   alternating form <u,v> = u0*v1 - u1*v0 + u2*v3 - u3*v2.
                   Order (q,q).
``build_q4(f)``    the parabolic quadrangle Q(4,q): points of the quadric
                   x0^2 = x1*x2 + x3*x4 in PG(4,q), blocks = lines of
                   PG(4,q) lying entirely on the quadric.  Order (q,q).

Both quadrangles come from one line enumerator: the line through two
points u, v of the point set belongs to the geometry iff B(u,v) = 0 for
the family's bilinear form B (the alternating form for W(3,q), the polar
form of the quadric for Q(4,q)).

Every constructor returns a Geometry.  Point ids are assigned by
lexicographic order of canonical coordinates and blocks are sorted
lexicographically, so identical parameters always produce the identical
structure.  Every constructor routes its output through the verifier
before returning; a failure there is an implementation bug and aborts with
VerificationFailed.

A generalised quadrangle of order (s,t) is a point/block geometry in which
blocks have s+1 points, points lie on t+1 blocks, two points share at most
one block, and for every non-incident point/block pair (x, L) exactly one
point of L is collinear with x.  Consequences used throughout: there are
(s+1)(st+1) points and (t+1)(st+1) blocks, no triangles, |B1(x)| = s(t+1)
and |B2(x)| = s^2*t, and s <= t^2, t <= s^2 whenever s,t > 1 (Higman).
"""

import json
from dataclasses import dataclass
from itertools import combinations

from .fields import dot, normalize_point, projective_points, vec_add, vec_scale


class AxiomViolation(Exception):
    """A defining axiom or counting identity failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class HigmanViolation(AxiomViolation):
    """Constant degrees exist but violate s <= t^2 or t <= s^2."""


class VerificationFailed(Exception):
    """A freshly constructed structure failed verification (internal bug)."""


class CollinearGeneratorsError(ValueError):
    """Perp/span generators must be pairwise non-collinear."""


class IncidenceStructure:
    """Points 0..n-1 and blocks as sorted tuples of point ids.

    Blocks are stored sorted lexicographically.  Every block must be a set
    (no repeated points) and every point must lie on at least one block.
    """

    def __init__(self, n_points, blocks, label=""):
        if n_points < 1:
            raise ValueError("need at least one point")
        cleaned = []
        for blk in blocks:
            tup = tuple(sorted(blk))
            if len(set(tup)) != len(tup):
                raise ValueError(f"block {blk!r} repeats a point")
            if not tup:
                raise ValueError("empty block")
            if tup[0] < 0 or tup[-1] >= n_points:
                raise ValueError(f"block {blk!r} uses an id outside 0..{n_points - 1}")
            cleaned.append(tup)
        cleaned.sort()
        self.n_points = n_points
        self.blocks = tuple(cleaned)
        self.label = label
        per_point = [[] for _ in range(n_points)]
        for bi, blk in enumerate(self.blocks):
            for x in blk:
                per_point[x].append(bi)
        uncovered = [x for x, bs in enumerate(per_point) if not bs]
        if uncovered:
            raise ValueError(f"points {uncovered[:5]} lie on no block")
        self.point_to_blocks = tuple(tuple(bs) for bs in per_point)
        self.block_sets = tuple(frozenset(b) for b in self.blocks)
        self._coll = None

    @property
    def n_blocks(self):
        return len(self.blocks)

    def collinearity(self):
        """Per point, the frozenset of other points sharing a block with it.

        Computed on the first call; later calls return the same tuple.
        """
        if self._coll is None:
            coll = []
            for x, through in enumerate(self.point_to_blocks):
                near = set()  # one point at a time keeps the peak small
                for bi in through:
                    near.update(self.blocks[bi])
                near.discard(x)
                coll.append(frozenset(near))
            self._coll = tuple(coll)
        return self._coll

    def __eq__(self, other):
        return (
            isinstance(other, IncidenceStructure)
            and self.n_points == other.n_points
            and self.blocks == other.blocks
        )

    def __repr__(self):
        lbl = f" {self.label}" if self.label else ""
        return f"<IncidenceStructure{lbl}: {self.n_points} points, {self.n_blocks} blocks>"


def verify_gq(inc):
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

    coll = inc.collinearity()
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


def verify_plane(inc):
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


class Geometry:
    """A verified projective plane or generalised quadrangle.

    ``base`` is the IncidenceStructure, ``(s, t)`` its order (a plane of
    order q has s = q and t = None) and ``coll`` the collinearity of every
    point.
    """

    def __init__(self, base, s, t):
        self.base = base
        self.s = s
        self.t = t
        self.coll = base.collinearity()

    @classmethod
    def from_structure(cls, inc, family):
        """Verify ``inc`` as a projective plane when ``family`` is "pg2" and
        as a generalised quadrangle otherwise.  Raises AxiomViolation, with a
        witness, on the first failed axiom."""
        if family == "pg2":
            return cls(inc, verify_plane(inc), None)
        return cls(inc, *verify_gq(inc))

    @property
    def n_points(self):
        return self.base.n_points

    def ball(self, x, r):
        """Points at collinearity distance exactly r from x (r = 1 or 2)."""
        if r == 1:
            return set(self.coll[x])
        if r == 2:
            return set(range(self.n_points)) - self.coll[x] - {x}
        raise ValueError("r must be 1 or 2")

    def common_perp(self, gens):
        """Points collinear with every generator.

        Generators must be pairwise non-collinear (CollinearGeneratorsError
        otherwise).  For a non-collinear pair in a GQ of order (s,t) this is
        the t+1 common neighbours.
        """
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        if len(set(gens)) != len(gens):
            raise CollinearGeneratorsError(f"repeated generator in {gens}")
        for a, b in combinations(gens, 2):
            if b in self.coll[a]:
                raise CollinearGeneratorsError(f"generators {a},{b} are collinear")
        perp = set(self.coll[gens[0]])
        for g in gens[1:]:
            perp &= self.coll[g]
        return perp

    def span(self, gens):
        """The span of the generators: the perp of their common perp."""
        gens = tuple(gens)
        perp = self.common_perp(gens)
        members = None
        for w in perp:
            members = set(self.coll[w]) if members is None else members & self.coll[w]
        return SpanSet(generators=frozenset(gens), perp=frozenset(perp),
                       members=frozenset(members if members is not None else ()))


@dataclass(frozen=True)
class SpanSet:
    """Span closure: generators, their common perp, and the members.

    Members contain the generators and are pairwise non-collinear; a span is
    already closed (spanning any two of its members reproduces it).
    """

    generators: frozenset
    perp: frozenset
    members: frozenset


def _checked(inc, family):
    """Geometry.from_structure for a fresh construction, where a failure is
    an implementation bug."""
    try:
        return Geometry.from_structure(inc, family)
    except AxiomViolation as exc:
        raise VerificationFailed(f"{inc.label} failed verification: {exc}") from exc


def build_pg2(f):
    """The projective plane PG(2,q)."""
    pts = projective_points(f, 2)
    index = {p: i for i, p in enumerate(pts)}
    blocks = []
    for form in pts:  # the plane is self-dual: forms enumerate like points
        blocks.append(tuple(sorted(index[p] for p in pts if dot(f, form, p) == 0)))
    return _checked(IncidenceStructure(len(pts), blocks, label=f"pg2(q={f.q})"), "pg2")


def _line_points(f, u, v):
    """All q+1 canonical points of the projective line through u and v."""
    pts = [normalize_point(f, v)]
    for lam in f.elements:
        pts.append(normalize_point(f, vec_add(f, u, vec_scale(f, lam, v))))
    return pts


def _polar_gq(f, family, pts, polar):
    """The quadrangle on ``pts`` whose blocks are the lines uv, for u, v in
    ``pts`` with polar(u, v) = 0.  The caller guarantees that every such
    line lies inside ``pts``."""
    index = {p: i for i, p in enumerate(pts)}
    blocks = set()
    covered = set()
    for i, u in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if (i, j) in covered or polar(u, pts[j]) != 0:
                continue
            line = tuple(sorted(index[p] for p in _line_points(f, u, pts[j])))
            blocks.add(line)
            covered.update(combinations(line, 2))
    return _checked(IncidenceStructure(len(pts), blocks, label=f"{family}(q={f.q})"),
                    family)


def build_w3(f):
    """The symplectic quadrangle W(3,q) over GF(q)."""

    def symp(u, v):
        a = f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0]))
        b = f.sub(f.mul(u[2], v[3]), f.mul(u[3], v[2]))
        return f.add(a, b)

    return _polar_gq(f, "w3", projective_points(f, 3), symp)


def build_q4(f):
    """The parabolic quadrangle Q(4,q) over GF(q).

    With Q(x) = x0^2 - x1*x2 - x3*x4 and its polar form
    B(u,v) = Q(u+v) - Q(u) - Q(v) = 2*u0*v0 - u1*v2 - u2*v1 - u3*v4 - u4*v3,
    Q(lam*u + mu*v) = lam*mu*B(u,v) whenever Q(u) = Q(v) = 0, so in every
    characteristic the line through two points of the quadric lies on it
    exactly when B(u,v) = 0.
    """

    def qform(x):
        return f.sub(f.mul(x[0], x[0]), f.add(f.mul(x[1], x[2]), f.mul(x[3], x[4])))

    def polar(u, v):
        d = f.mul(u[0], v[0])
        a = f.add(f.mul(u[1], v[2]), f.mul(u[2], v[1]))
        b = f.add(f.mul(u[3], v[4]), f.mul(u[4], v[3]))
        return f.sub(f.add(d, d), f.add(a, b))

    return _polar_gq(f, "q4", [p for p in projective_points(f, 4) if qform(p) == 0],
                     polar)


# -- geometry interchange files --


@dataclass
class GeometryFile:
    """A loaded geometry file: the structure plus its metadata."""

    structure: IncidenceStructure
    family: str
    q: int | None
    s: int | None
    t: int | None


def save_geometry(path, inc, family, q=None, s=None, t=None):
    """Write the interchange JSON: family, q, s, t, points, blocks.

    Blocks are sorted lexicographically; point ids are dense 0..n-1.
    """
    data = {
        "family": family,
        "q": q,
        "s": s,
        "t": t,
        "points": list(range(inc.n_points)),
        "blocks": [list(b) for b in sorted(inc.blocks)],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _is_int_list(value):
    return isinstance(value, list) and all(isinstance(x, int) for x in value)


def load_geometry(path):
    """Read an interchange JSON.  Accepts arbitrary incidence structures
    (hand-built designs included); structural validation happens in the
    IncidenceStructure constructor.  A missing or ill-typed ``points`` or
    ``blocks`` field raises ValueError naming it."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("geometry file must hold a JSON object")
    points = data.get("points")
    if not _is_int_list(points):
        raise ValueError("geometry file needs 'points', a list of integers")
    blocks = data.get("blocks")
    if not (isinstance(blocks, list) and all(_is_int_list(b) for b in blocks)):
        raise ValueError("geometry file needs 'blocks', a list of integer lists")
    if sorted(points) != list(range(len(points))):
        raise ValueError("points must be exactly 0..n-1")
    family = data.get("family", "custom")
    inc = IncidenceStructure(len(points), blocks, label=family)
    return GeometryFile(
        structure=inc,
        family=family,
        q=data.get("q"),
        s=data.get("s"),
        t=data.get("t"),
    )
