"""Dense polynomial helpers (ascending coefficient tuples)."""

import random
from fractions import Fraction

from martinpoly.polynomial import (
    add,
    derivative,
    evaluate,
    mul,
    scale,
    shift,
    trim,
)


def test_trim_strips_leading_zeros():
    assert trim([0, 1, 0, 0]) == (0, 1)
    assert trim([0, 0]) == ()
    assert trim([]) == ()
    assert trim([5]) == (5,)


def test_add_and_mul_basics():
    # (x + 1)(x - 1) = x^2 - 1
    assert mul((1, 1), (-1, 1)) == (-1, 0, 1)
    assert add((1, 2), (0, -2, 3)) == (1, 0, 3)
    assert add((1,), (-1,)) == ()
    assert mul((), (1, 2)) == ()
    assert scale((1, 2, 3), 0) == ()


def test_evaluate_matches_horner_by_hand():
    p = (0, 36, 15)  # 15x^2 + 36x
    assert evaluate(p, 0) == 0
    assert evaluate(p, 2) == 15 * 4 + 36 * 2
    assert evaluate(p, -2) == 15 * 4 - 36 * 2
    assert evaluate(p, Fraction(1, 3)) == Fraction(15, 9) + 12


def test_derivative():
    assert derivative((7,)) == ()
    assert derivative((0, 36, 15)) == (36, 30)
    assert derivative(()) == ()


def test_shift_is_composition():
    rng = random.Random(97)
    for _ in range(30):
        p = tuple(rng.randrange(-6, 7) for _ in range(rng.randrange(0, 6)))
        a = rng.randrange(-4, 5)
        q = shift(p, a)
        for x in range(-3, 4):
            assert evaluate(q, x) == evaluate(p, x + a)


def test_shifted_power_basis_definition():
    # 2(x+3)^0 + 5(x+3)^2 evaluated directly
    counts = (2, 0, 5)
    p = shift(counts, 3)
    for x in range(-5, 6):
        assert evaluate(p, x) == 2 + 5 * (x + 3) ** 2


def test_ring_identities_random():
    rng = random.Random(98)

    def rand_poly():
        return tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 7)))

    for _ in range(40):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert add(p, q) == add(q, p)
        assert mul(p, q) == mul(q, p)
        assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
        assert derivative(mul(p, q)) == add(
            mul(derivative(p), q), mul(p, derivative(q))
        )
        x = rng.randrange(-5, 6)
        assert evaluate(mul(p, q), x) == evaluate(p, x) * evaluate(q, x)
