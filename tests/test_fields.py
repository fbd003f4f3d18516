import copy
from itertools import product

import numpy as np
import pytest

from gqupir.fields import (
    GF,
    MAX_ORDER,
    NotAPrimePowerError,
    UnsupportedOrderError,
    ZeroVectorError,
    field,
    normalize_point,
    projective_points,
)

SUPPORTED = [2, 3, 4, 5, 7, 8, 9]


def test_order_validation():
    for bad in (6, 10, 12, 15, 100):
        with pytest.raises(NotAPrimePowerError):
            GF(bad)
    for bad in (0, 1, -4):
        with pytest.raises(NotAPrimePowerError):
            GF(bad)
    # every prime power up to the cap constructs; above it nothing does,
    # and the cap is checked before factoring (2^61 - 1 is prime)
    for q in (16, 25, 27, 32, 49, 81):
        assert GF(q).q == q
    for unsupported in (MAX_ORDER + 1, 1000003, 2 ** 61 - 1):
        with pytest.raises(UnsupportedOrderError):
            GF(unsupported)
    assert GF(11).q == 11
    assert GF(13).inv(2) == 7


def test_moduli_of_small_prime_powers():
    # the search reproduces the polynomials once listed by hand, constant
    # term first: x^2+x+1, x^3+x+1, x^2+1; a prime field is GF(p)[x]/(x)
    assert GF(4).modulus == (1, 1, 1)
    assert GF(8).modulus == (1, 1, 0, 1)
    assert GF(9).modulus == (1, 0, 1)
    assert GF(7).modulus == (0, 1)


def test_prime_arith_values():
    f = GF(7)
    assert f.inv(3) == 5
    assert f.mul(3, 5) == 1
    assert f.add(4, 5) == 2
    assert f.sub(1, 3) == 5
    assert GF(2).add(1, 1) == 0
    assert GF(5).neg(2) == 3
    # a prime field's tables are modular arithmetic
    for q in (2, 3, 5, 7, 11, 13, 251):
        f, a = GF(q), np.arange(q)
        assert (f.add_table == (a[:, None] + a) % q).all()
        assert (f.mul_table == a[:, None] * a % q).all()


def test_gf4_table_values():
    # x = 2, x+1 = 3; x*x = x+1 mod (x^2+x+1)
    f = GF(4)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1  # x * (x+1) = x^2+x = 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3 and f.inv(3) == 2


def test_gf8_table_values():
    # x = 2; x^3 = x+1 = 3 mod (x^3+x+1)
    f = GF(8)
    assert f.mul(4, 2) == 3  # x^2 * x
    assert f.mul(2, 5) == 1  # x * (x^2+1) = x^3+x = 1
    assert f.inv(2) == 5


def test_gf9_table_values():
    # x = 3; x^2 = -1 = 2 mod (x^2+1)
    f = GF(9)
    assert f.mul(3, 3) == 2
    assert f.mul(3, 6) == 1  # x * 2x = 2x^2 = -2 = 1
    assert f.add(3, 3) == 6
    assert f.neg(3) == 6


def test_division_by_zero():
    for q in SUPPORTED:
        with pytest.raises(ZeroDivisionError):
            GF(q).inv(0)
        with pytest.raises(ZeroDivisionError):
            GF(q).div(1, 0)


def test_axiom_sweep_all_supported():
    for q in SUPPORTED:
        assert GF(q).check_axioms()


@pytest.mark.parametrize("q", [16, 25, 27, 32, 49, 64, 81, 128, 243, 256])
def test_axiom_sweep_large_prime_powers(q):
    assert GF(q).check_axioms()


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
def test_axiom_sweep_rejects_a_changed_entry(table):
    f = copy.copy(GF(9))
    changed = getattr(f, table).copy()
    changed[4, 4] = (changed[4, 4] + 1) % 9  # symmetric, so commutativity holds
    setattr(f, table, changed)
    with pytest.raises(AssertionError):
        f.check_axioms()


def test_field_cache():
    assert field(3) is field(3)
    assert field(3) == GF(3)


def test_normalize_basic():
    f = GF(3)
    assert normalize_point(f, (2, 1, 0)) == (1, 2, 0)
    assert normalize_point(f, (0, 2, 2)) == (0, 1, 1)
    assert normalize_point(f, (1, 0, 2)) == (1, 0, 2)
    f5 = GF(5)
    assert normalize_point(f5, (0, 0, 3, 0)) == (0, 0, 1, 0)
    with pytest.raises(ZeroVectorError):
        normalize_point(f5, (0, 0, 0))


def test_normalize_scale_invariance_exhaustive():
    # full sweep where cheap: every nonzero vector, every nonzero scalar
    for q, dim in [(2, 5), (3, 5), (4, 4), (5, 4), (7, 3), (8, 3), (9, 3)]:
        f = GF(q)
        for v in product(f.elements, repeat=dim):
            if not any(v):
                continue
            canon = normalize_point(f, v)
            assert canon[next(i for i, a in enumerate(canon) if a)] == 1
            for c in range(1, q):
                scaled = tuple(f.mul(c, a) for a in v)
                assert normalize_point(f, scaled) == canon


def test_normalize_idempotent():
    f = GF(9)
    for v in product(f.elements, repeat=3):
        if any(v):
            canon = normalize_point(f, v)
            assert normalize_point(f, canon) == canon


def test_projective_point_counts():
    for q in [2, 3, 4, 5, 7]:
        f = GF(q)
        for d in (2, 3, 4):
            pts = projective_points(f, d)
            assert len(pts) == (q ** (d + 1) - 1) // (q - 1)
            assert pts == sorted(pts)
            assert len(set(pts)) == len(pts)
            # canonical: first nonzero coordinate is 1
            for p in pts:
                assert p[next(i for i, a in enumerate(p) if a)] == 1


def test_projective_points_cover_all_directions():
    # every nonzero vector normalizes to exactly one enumerated point
    f = GF(3)
    pts = set(projective_points(f, 2))
    seen = set()
    for v in product(f.elements, repeat=3):
        if any(v):
            c = normalize_point(f, v)
            assert c in pts
            seen.add(c)
    assert seen == pts

