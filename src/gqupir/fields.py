"""Arithmetic in Galois fields GF(q), q <= 256, plus projective-point helpers.

Every order q = p^k is built the same way, as GF(p)[x] / (m) with m the
smallest monic irreducible polynomial of degree k over GF(p).  Candidates
x^k + c_{k-1} x^{k-1} + ... + c_0 are ordered by their lower coefficients
read as the base-p number c_{k-1} ... c_1 c_0, so the choice never changes
between runs.  For k = 1 the first candidate, m = x, is irreducible and the
quotient is GF(p) itself; the first few prime powers get

    GF(4) = GF(2)[x] / (x^2 + x + 1)
    GF(8) = GF(2)[x] / (x^3 + x + 1)
    GF(9) = GF(3)[x] / (x^2 + 1)

An element is an integer in range(q) whose base-p digits are the polynomial
coefficients, least-significant digit = constant term.  So in GF(9) the
element 3*h + l stands for h*x + l.  Scalar operations index q x q uint8
tables (``add_table``, ``mul_table``) built once; bulk sums may add digits
mod p instead (geometry's form evaluator).  A candidate m is irreducible
exactly when its quotient ring has no zero divisors; a reducible m has a
factor of degree at most k/2, so only products of such elements are searched.

Vectors over a field are plain tuples of elements; a projective point is a
vector scaled so its first nonzero coordinate is 1.
"""

from itertools import product

import numpy as np

MAX_ORDER = 256  # elements fit in uint8


class NotAPrimePowerError(ValueError):
    """The requested order has at least two distinct prime factors."""


class UnsupportedOrderError(ValueError):
    """Prime-power order above MAX_ORDER."""


class ZeroVectorError(ValueError):
    """The zero vector has no projective normalization."""


def _factor_prime_power(q):
    """Return (p, k) with q == p**k, or raise NotAPrimePowerError."""
    if not isinstance(q, int) or q < 2:
        raise NotAPrimePowerError(f"field order must be an integer >= 2, got {q!r}")
    m, p = q, None
    for cand in range(2, q + 1):
        if cand * cand > q and p is None:
            return q, 1  # q itself is prime
        if m % cand == 0:
            p = cand
            break
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotAPrimePowerError(f"{q} has at least two distinct prime factors")
    return p, k


def _digits(p, k, elements):
    """Base-p digits of each element, constant term first: shape (len, k)."""
    return np.asarray(elements)[:, None] // p ** np.arange(k) % p


def _products(p, k, lower, rows):
    """The products a*b in GF(p)[x] / (x^k + lower(x)) for a in ``rows`` and
    every b, as an array of shape (len(rows), p^k).

    ``lower`` holds the coefficients below x^k, constant term first.
    """
    # reduce[d] = the digits of x^d mod m for d < 2k - 1: x^k == -lower
    reduce = np.zeros((2 * k - 1, k), dtype=np.int64)
    cur = np.eye(1, k, dtype=np.int64)[0]
    for d in range(2 * k - 1):
        reduce[d] = cur
        cur = (np.concatenate(([0], cur[:-1])) - cur[-1] * np.asarray(lower)) % p
    # a*b = sum over i, j of a_i b_j x^(i+j); reduce[i + j] folds in m
    fold = np.array([[reduce[i + j] for j in range(k)] for i in range(k)])
    by_power = np.einsum("ai,ijc->ajc", _digits(p, k, rows), fold) % p
    prods = np.einsum("bj,ajc->abc", _digits(p, k, range(p ** k)), by_power) % p
    return prods @ p ** np.arange(k)


class GF:
    """GF(q) with element encoding stable across runs.

    Supported orders: every prime power q <= MAX_ORDER.  Larger integers
    raise UnsupportedOrderError before any factoring; other orders raise
    NotAPrimePowerError.  The tables pass check_axioms on construction.
    """

    def __init__(self, q):
        if isinstance(q, int) and q > MAX_ORDER:
            raise UnsupportedOrderError(
                f"GF({q}) not supported: orders go up to {MAX_ORDER}")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        # candidates in order; a reducible m has a factor of degree <= k/2,
        # a zero divisor
        digits = _digits(p, k, range(q))
        low = range(1, p ** (k // 2 + 1))
        for lower in digits:
            if _products(p, k, lower, low)[:, 1:].all():
                break
        self.modulus = tuple(lower.tolist()) + (1,)
        add = (digits[:, None, :] + digits[None, :, :]) % p @ p ** np.arange(k)
        self.add_table = add.astype(np.uint8)
        self.mul_table = _products(p, k, lower, range(q)).astype(np.uint8)
        self._neg = np.argmax(self.add_table == 0, axis=1)
        self._inv = np.argmax(self.mul_table == 1, axis=1)
        self.check_axioms()

    @property
    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self.add_table.item(a, b)

    def neg(self, a):
        return self._neg.item(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.mul_table.item(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv.item(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def check_axioms(self):
        """Exhaustive field-axiom sweep over the tables; raises
        AssertionError on any failure.

        The q^3 triples of associativity and distributivity are checked one
        first operand at a time, so memory stays O(q^2).
        """
        q = self.q
        add, mul = self.add_table, self.mul_table
        els = np.arange(q)
        assert (add < q).all() and (mul < q).all()
        assert (add == add.T).all() and (mul == mul.T).all()
        assert (add[:, 0] == els).all() and (mul[:, 1] == els).all()
        assert (add[els, self._neg] == 0).all()
        assert (mul[els[1:], self._inv[1:]] == 1).all()
        for a in els:
            # (a+b)+c == a+(b+c), (ab)c == a(bc), a(b+c) == ab+ac over (b, c)
            assert (add[add[a]] == add[a][add]).all()
            assert (mul[mul[a]] == mul[a][mul]).all()
            assert (mul[a][add] == add[mul[a][:, None], mul[a][None, :]]).all()
        return True

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))


_FIELD_CACHE = {}


def field(q):
    """Cached GF(q) factory."""
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = GF(q)
    return _FIELD_CACHE[q]


# -- projective points --


def normalize_point(f, v):
    """Canonical projective representative: first nonzero coordinate is 1.

    Scaling invariance makes this a well-defined map on projective points:
    normalize_point(f, c*v) == normalize_point(f, v) for every nonzero c.
    Raises ZeroVectorError on the zero vector.
    """
    for a in v:
        if a:
            if a == 1:
                return tuple(v)
            s = f.inv(a)
            return tuple(f.mul(s, b) for b in v)
    raise ZeroVectorError(f"zero vector {v!r} has no projective point")


def projective_points(f, dim):
    """All points of PG(dim, q) as canonical tuples, in lexicographic order.

    There are (q**(dim+1) - 1) / (q - 1) of them.
    """
    pts = []
    for lead in range(dim + 1):
        head = (0,) * lead + (1,)
        for tail in product(f.elements, repeat=dim - lead):
            pts.append(head + tail)
    pts.sort()
    return pts
