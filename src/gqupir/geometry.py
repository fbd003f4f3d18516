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

All three come from one form evaluator.  A bilinear form B is given as
data, a list of terms (i, j, c) standing for the sum of c*u_i*v_j, and the
evaluator returns the boolean matrix of B(u,v) = 0 over the point set, a
fixed number of rows at a time (or B(x,x) = 0 pointwise).  It adds field
elements as integers whose w-bit slots hold their base-p digits, w wide
enough that a sum of one digit per term never carries: each term adds rows
of a q x n table of the packed products a*v_j, and B(u,v) = 0 when every
slot of the sum is 0 mod p, which a table of at most 2^16 entries reads a
few slots at a time.  The plane is self-dual, so its blocks are the rows
of that matrix for the dot form.  For a quadrangle B is the alternating
form for W(3,q) and the polar form of the quadric for Q(4,q): the line
through two points u != v of the point set belongs to the geometry iff
B(u,v) = 0, and B(x,x) = 0 on the point set.  That line is the AND of rows
u and v: every point of it lies in both, and a common point w off it would
be collinear with u and with v, a triangle, which a quadrangle has none of.
Each line is kept once, from its smallest point.

Collinearity has one form, IncidenceStructure.collinearity(): n x n bits
packed along rows, one _or_step from the identity.  UPIRSystem's search and
the verifiers run that step too; other readers unpack collinear_rows().

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

After the counts, verify_gq checks that every point is on each block L or
collinear with a point of L, verify_plane that every two points are
collinear; the other axioms follow by counting, as their docstrings prove.
"""

import json
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .fields import _digits, projective_points


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
        given = list(blocks)
        self.n_points = n_points
        self.blocks = tuple(sorted(tuple(sorted(blk)) for blk in given))
        self.block_sets = tuple(map(frozenset, self.blocks))
        self.label = label
        # _or_step's int32 incidences: the blocks' points, each block's from
        # _block_at, then the points' blocks, each point's from _point_at
        ids = np.array([0, *chain.from_iterable(self.blocks)])[1:]  # int dtype if empty
        sizes = np.fromiter(map(len, self.blocks), np.intp, len(given))
        if (ids.dtype.kind not in "iu" or sum(map(len, self.block_sets)) != len(ids)
                or not sizes.all() or ((ids < 0) | (ids >= n_points)).any()):
            for blk in given:  # the first bad block, in the order given
                tup = sorted(blk)
                if len(set(tup)) != len(tup):
                    raise ValueError(f"block {blk!r} repeats a point")
                if not tup:
                    raise ValueError("empty block")
                if tup[0] < 0 or tup[-1] >= n_points:
                    raise ValueError(f"block {blk!r} uses an id outside 0..{n_points - 1}")
            raise TypeError("point ids must be integers")
        degrees = np.bincount(ids, minlength=n_points)
        uncovered = np.flatnonzero(degrees == 0)[:5].tolist()
        if uncovered:
            raise ValueError(f"points {uncovered} lie on no block")
        key = np.sort(ids * len(given) + np.repeat(np.arange(len(given)), sizes))
        self._members, self._spaces = ids.astype(np.int32), (key % len(given)).astype(np.int32)
        self._block_at, self._point_at = np.cumsum(sizes) - sizes, np.cumsum(degrees) - degrees
        flat, ends = self._spaces.tolist(), np.cumsum(degrees).tolist()
        self.point_to_blocks = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
        self._coll = None

    @property
    def n_blocks(self):
        return len(self.blocks)

    def collinearity(self):
        """The read-only n x ceil(n/8) uint8 array whose row x, packed eight
        points to a byte (np.packbits order), is set at the other points on a
        block with x: one _or_step from the identity, diagonal cleared, cached."""
        if self._coll is None:
            n = self.n_points
            coll = np.empty((n, -(-n // 8)), np.uint8)
            _or_step(self, out=coll)
            x = np.arange(n)
            coll[x, x >> 3] ^= (0x80 >> (x & 7)).astype(np.uint8)
            coll.flags.writeable = False
            self._coll = coll
        return self._coll

    def collinear_rows(self, points):
        """collinearity()'s rows at ``points``, an id or ids, unpacked to n
        bools each; an id outside 0..n-1 is a ValueError naming it."""
        idx = np.asarray(points, np.intp)
        bad = idx[(idx < 0) | (idx >= self.n_points)]
        if bad.size:
            raise ValueError(f"point {bad.flat[0]} out of range")
        return np.unpackbits(self.collinearity()[idx], -1, self.n_points).view(bool)

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and (self.n_points, self.blocks) == (other.n_points, other.blocks))

    def __repr__(self):
        lbl = f" {self.label}" if self.label else ""
        return f"<IncidenceStructure{lbl}: {self.n_points} points, {self.n_blocks} blocks>"


def _or_step(inc, reach=None, points=True, out=None):
    """One OR step of the packed relation ``reach`` (None: the identity), 64
    columns at a time: per block the OR of its points' rows, then, when
    ``points``, per point the OR of its blocks'.  Writes the rows to ``out``
    if given; returns the least row lacking a point, or None.  The memory
    beyond ``out`` is a uint64 per incidence."""
    n = inc.n_points
    full = np.packbits(np.arange(-(-n // 64) * 64) < n).view(np.uint64)
    ok = True
    for j, lo in enumerate(range(0, n, 64)):
        cols, width = slice(lo // 8, lo // 8 + 8), min(8, -(-(n - lo) // 8))
        word = np.zeros((n, 8), np.uint8)
        if reach is None:
            x = np.arange(lo, min(lo + 64, n))
            word[x, x >> 3 & 7] = 0x80 >> (x & 7)
        else:
            word[:, :width] = reach[:, cols]
        # astype and an intp gather beat numpy's own gather by int32 indices
        part = np.bitwise_or.reduceat(word.view(np.uint64).ravel()[
            inc._members.astype(np.intp)], inc._block_at)
        if points:
            part = np.bitwise_or.reduceat(part[inc._spaces.astype(np.intp)], inc._point_at)
        ok &= part == full[j]
        if out is not None:
            out[:, cols] = part.view(np.uint8).reshape(n, 8)[:, :width]
    return None if np.all(ok) else int(np.argmin(ok))


def verify_gq(inc):
    """Check that ``inc`` is a generalised quadrangle; returns its order (s, t).

    Raises AxiomViolation (HigmanViolation for the parameter bound) with a
    concrete witness on the first failure.  Checks, in order: constant block
    size s+1, constant point degree t+1, s, t >= 1, the point count
    v = (s+1)(st+1), Higman's inequality, and for each block L that every
    point is on L or collinear with a point of L; the witness of a failure
    is the least point that sees no point of L.

    The remaining axioms follow by counting.  Each point x of L sees at most
    t*s points off L, s on each of its t other blocks, so the s+1 points of
    L see at most (s+1)*t*s points off L.  That is exactly v - (s+1), the
    number of points off L, and each is seen at least once, so each is seen
    exactly once: the projection axiom.  Equality also means that the t+1
    blocks through x meet only in x, and every point lies on a block, so two
    points share at most one block.  No triangle follows from the projection
    axiom, and the block count (t+1)(st+1) from b(s+1) = v(t+1).
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
    n = inc.n_points
    if n != (s + 1) * (s * t + 1):
        raise AxiomViolation(
            f"point count {n} != (s+1)(st+1) = {(s + 1) * (s * t + 1)}", n)
    if s > 1 and t > 1 and (s > t * t or t > s * s):
        raise HigmanViolation(f"order ({s},{t}) violates s <= t^2 and t <= s^2", (s, t))
    # the OR of L's rows holds L itself too, as s >= 1
    i = _or_step(inc, inc.collinearity(), points=False)
    if i is not None:
        z = int(inc.collinear_rows(inc.blocks[i]).any(0).argmin())
        raise AxiomViolation(
            f"point {z} sees 0 points of block {i}, expected 1", (z, i, 0))
    return s, t


def verify_plane(inc):
    """Check that ``inc`` is a projective plane; returns its order q.

    Checks constant block size q+1 with q >= 2, q^2+q+1 points and blocks,
    and that every point is collinear with the other n-1.  The witness of a
    missing pair is the least pair (x, y) on no common block.

    The remaining axioms follow by counting.  The blocks cover
    b*C(q+1,2) = C(n,2) point pairs counted with multiplicity, and every
    pair is covered, so none is covered twice: every pair of points lies on
    exactly one block.  Each point then lies on (n-1)/q = q+1 blocks; the q
    further blocks through each of the q+1 points of a block L are
    distinct, and (q+1)q = b-1 accounts for every other block, so two
    blocks meet in exactly one point.  A quadrilateral exists: for a, b on
    a block L and c off it, the blocks L, ac and bc meet pairwise in a, b
    and c, so they cover 3(q+1) - 3 = 3q points and leave (q-1)^2 >= 1
    points off all three, any of which completes a, b, c.
    """
    sizes = {len(b) for b in inc.blocks}
    if len(sizes) != 1:
        raise AxiomViolation(f"block sizes not constant: {sorted(sizes)}", sorted(sizes))
    q = sizes.pop() - 1
    if q < 2:
        raise AxiomViolation(f"order {q} too small for a plane", q)
    n = q * q + q + 1
    if inc.n_points != n or inc.n_blocks != n:
        raise AxiomViolation(f"expected {n} points and blocks, got {inc.n_points}/"
                             f"{inc.n_blocks}", (inc.n_points, inc.n_blocks))
    x = _or_step(inc)
    if x is not None:  # every row before x is full, so holds x
        y = x + 1 + int(inc.collinear_rows(x)[x + 1:].argmin())
        raise AxiomViolation(f"points {(x, y)} on no common block", (x, y))
    return q


class Geometry:
    """A verified projective plane or generalised quadrangle.

    ``base`` is the IncidenceStructure and ``(s, t)`` its order (a plane of
    order q has s = q and t = None).  Balls, perps and spans read rows of
    base.collinear_rows(), which rejects a point id outside 0..n-1.
    """

    def __init__(self, base, s, t):
        self.base = base
        self.s = s
        self.t = t

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
        if r not in (1, 2):
            raise ValueError("r must be 1 or 2")
        row = self.base.collinear_rows(x)
        return set(np.flatnonzero(row if r == 1 else ~row).tolist()) - {x}

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
        rows = self.base.collinear_rows(gens)
        for (i, a), (_, b) in combinations(enumerate(gens), 2):
            if rows[i, b]:
                raise CollinearGeneratorsError(f"generators {a},{b} are collinear")
        return set(np.flatnonzero(rows.all(0)).tolist())

    def span(self, gens):
        """The span of the generators: the perp of their common perp."""
        gens = tuple(gens)
        perp = self.common_perp(gens)
        members = self.base.collinear_rows(sorted(perp)).all(0) if perp else ()
        return SpanSet(generators=frozenset(gens), perp=frozenset(perp),
                       members=frozenset(np.flatnonzero(members).tolist()))


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


# A bilinear form as data: B(u, v) = the sum of c*u[i]*v[j] over its terms
# (i, j, c), c a field element.
_ROWS = 256  # rows at a time: points in _form and _quadrangle


def _form(f, terms, u, v=None):
    """B(u, v) = 0 for the points u against the points v, n x d arrays of
    field elements: the len(u) x len(v) matrix, evaluated _ROWS rows at a
    time so the working memory beyond it stays O(_ROWS * n), or B(x, x) = 0
    for each point x of u when v is None (see the module docstring)."""
    p, k, mul = f.p, f.k, f.mul_table
    w = (len(terms) * (p - 1)).bit_length()  # bits per slot: no carry
    g = min(k, 16 // w)  # slots per lookup
    # zero_at[x]: all g w-bit slots of x are 0 mod p (symmetric in the slots)
    zero_at = (np.indices((1 << w,) * g, np.uint16) % p == 0).all(0).ravel()
    packed = (_digits(p, k, range(f.q)) << w * np.arange(k)).sum(1)[mul]
    packed = packed.astype(np.min_scalar_type((1 << w * k) - 1))

    def zero(acc):
        ok = zero_at[acc & (1 << g * w) - 1]
        for i in range(g, k, g):
            ok &= zero_at[acc >> w * i & (1 << g * w) - 1]
        return ok

    if v is None:
        return zero(sum(packed[mul[c][u[:, i]], u[:, j]] for i, j, c in terms))
    cols = {j: packed[:, v[:, j]] for _, j, _ in terms}  # q x n: a*v_j
    out = np.empty((len(u), len(v)), bool)
    for lo in range(0, len(u), _ROWS):
        rows = u[lo:lo + _ROWS]
        out[lo:lo + _ROWS] = zero(sum(cols[j][mul[c][rows[:, i]]] for i, j, c in terms))
    return out


def build_pg2(f):
    """The projective plane PG(2,q).

    The plane is self-dual: the kernel of the linear form with the
    coordinates of u is the block u^perp of the dot form."""
    pts = np.array(projective_points(f, 2))
    blocks = [np.flatnonzero(row).tolist()
              for row in _form(f, [(i, i, 1) for i in range(3)], pts, pts)]
    return _checked(IncidenceStructure(len(pts), blocks, label=f"pg2(q={f.q})"), "pg2")


def _quadrangle(f, family, pts, terms):
    """The quadrangle on the points ``pts`` (n x d) whose blocks are the
    lines uv, for u != v with B(u, v) = 0, each the AND of rows u and v of
    the B(u, v) = 0 matrix (see the module docstring) and kept once, from
    its smallest point; the caller guarantees that every such line lies
    inside ``pts``.  A point with B(x, x) != 0 raises VerificationFailed
    naming the least one.  Lines are assembled for _ROWS points u at a time
    in rounds, each taking for every u the least v > u on none of its lines
    so far: at most t + 1 rounds for a quadrangle of order (s, t)."""
    pts = np.asarray(pts)
    perps = _form(f, terms, pts, pts)
    off = np.flatnonzero(~perps.diagonal())
    if len(off):
        raise VerificationFailed(f"{family}(q={f.q}): B(x, x) != 0 at point {off[0]}")
    n = len(pts)
    blocks = []
    for lo in range(0, n, _ROWS):
        u = np.arange(lo, min(lo + _ROWS, n))
        rest = perps[u] & (np.arange(n) > u[:, None])
        while (live := rest.any(1)).any():
            u, rest = u[live], rest[live]
            line = perps[u] & perps[rest.argmax(1)]
            rest &= ~line
            mine = line[line.argmax(1) == u]
            cols = (np.flatnonzero(mine) % n).tolist()
            ends = np.cumsum(mine.sum(1)).tolist()
            blocks += [cols[a:b] for a, b in zip([0] + ends, ends)]
    del perps  # freed before verification builds the collinearity
    return _checked(IncidenceStructure(n, blocks, label=f"{family}(q={f.q})"), family)


def build_w3(f):
    """The symplectic quadrangle W(3,q) over GF(q)."""
    m1 = f.neg(1)
    symp = [(0, 1, 1), (1, 0, m1), (2, 3, 1), (3, 2, m1)]
    return _quadrangle(f, "w3", projective_points(f, 3), symp)


def build_q4(f):
    """The parabolic quadrangle Q(4,q) over GF(q).

    With Q(x) = x0^2 - x1*x2 - x3*x4 and its polar form
    B(u,v) = Q(u+v) - Q(u) - Q(v) = 2*u0*v0 - u1*v2 - u2*v1 - u3*v4 - u4*v3,
    Q(lam*u + mu*v) = lam*mu*B(u,v) whenever Q(u) = Q(v) = 0, so in every
    characteristic the line through two points of the quadric lies on it
    exactly when B(u,v) = 0.
    """
    m1 = f.neg(1)
    quadric = [(0, 0, 1), (1, 2, m1), (3, 4, m1)]  # Q(x) = this form at (x, x)
    polar = [(0, 0, f.add(1, 1)), (1, 2, m1), (2, 1, m1), (3, 4, m1), (4, 3, m1)]
    space = np.array(projective_points(f, 4))
    return _quadrangle(f, "q4", space[_form(f, quadric, space)], polar)


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

    Blocks are sorted lexicographically; point ids are dense 0..n-1.  The
    text is built whole before the file is opened, so a value JSON cannot
    encode (a numpy integer q, say) raises TypeError and leaves an
    existing file as it was.
    """
    text = _dumps({
        "family": family,
        "q": q,
        "s": s,
        "t": t,
        "points": list(range(inc.n_points)),
        "blocks": sorted(inc.blocks),
    })
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _dumps(obj, sort_keys=False):
    """json.dumps(obj, indent=1, sort_keys=sort_keys), character for
    character.

    CPython runs json.dumps with an indent in its pure-Python encoder, a
    generator step per item.  Here a list or tuple whose items are all
    plain ints (type int, so not bool, IntEnum or numpy ints) is joined in
    one str.join; other containers are walked as json walks them, and
    scalars and keys go through json.dumps, so every value json rejects
    raises its TypeError.
    """

    def encode(o, pad):
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = pad + " "
            if {*map(type, o)} <= {int}:
                items = map(str, o)
            else:
                items = [encode(x, inner) for x in o]
            return f"[{inner}{(',' + inner).join(items)}{pad}]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = pad + " "
            pairs = sorted(o.items()) if sort_keys else o.items()
            items = [f"{key(k)}: {encode(v, inner)}" for k, v in pairs]
            return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
        return json.dumps(o)

    def key(k):
        if isinstance(k, str):
            return json.dumps(k)
        if isinstance(k, (int, float)) or k is None:
            return f'"{json.dumps(k)}"'
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")

    return encode(obj, "\n")


def _is_int_list(value):
    return isinstance(value, list) and {*map(type, value)} <= {int}


def load_geometry(path):
    """Read an interchange JSON.  Accepts arbitrary incidence structures
    (hand-built designs included); structural validation happens in the
    IncidenceStructure constructor.  A missing or ill-typed ``points`` or
    ``blocks`` field, a ``family`` that is not a string, or a ``q``, ``s``
    or ``t`` that is neither an integer nor null raises ValueError naming
    it, as does JSON nested too deep to parse.  JSON booleans are not
    integers here."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("geometry file nests JSON too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("geometry file must hold a JSON object")
    points = data.get("points")
    if not _is_int_list(points):
        raise ValueError("geometry file needs 'points', a list of integers")
    blocks = data.get("blocks")
    if not (isinstance(blocks, list) and all(map(_is_int_list, blocks))):
        raise ValueError("geometry file needs 'blocks', a list of integer lists")
    if sorted(points) != list(range(len(points))):
        raise ValueError("points must be exactly 0..n-1")
    family = data.get("family", "custom")
    if not isinstance(family, str):
        raise ValueError("geometry file's 'family' must be a string")
    order = {key: data.get(key) for key in ("q", "s", "t")}
    for key, value in order.items():
        if value is not None and type(value) is not int:
            raise ValueError(f"geometry file's '{key}' must be an integer or null")
    inc = IncidenceStructure(len(points), blocks, label=family)
    return GeometryFile(structure=inc, family=family, **order)
