"""Tiny dense univariate polynomial helpers (coefficient tuples, ascending
powers, exact integer/Fraction arithmetic).  Nothing here knows about graphs."""

from __future__ import annotations


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p, c):
    return trim([c * a for a in p])


def evaluate(p, x):
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def derivative(p):
    return trim([i * a for i, a in enumerate(p)][1:])


def shift(p, a):
    """Coefficients of p(x + a), by Horner's rule."""
    out = []
    for c in reversed(p):
        out = [a * x + y for x, y in zip(out + [0], [0] + out)]
        out[0] += c
    return trim(out)
