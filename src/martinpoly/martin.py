"""The Martin polynomial and Martin invariant of even multigraphs, computed
by memoized vertex expansion, plus the handful of closed forms with known
values and the transition-counting symmetry factors.

The invariant recursion works entirely in exact integers once the graph has
at least three vertices; the one- and two-vertex values are the only
fractional ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import polynomial as poly
from .multigraph import (Multigraph, TransitionMatrix, apply_transition,
                         canonical_form, connected_components, duplicate,
                         enumerate_transition_matrices,
                         transition_classes_with_loops, _symmetric_matrices)
from .structure import EXHAUSTIVE_CUT_LIMIT, EdgeCut, _all_cuts, _vertices, \
    edge_connectivity, split_edge_cut

_INVARIANT_MEMO = {}
_POLY_MEMO = {}


def _normalize(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _check_even_degrees(g):
    if g.n == 0:
        raise ValueError("empty graph")
    degs = g.degrees()
    if any(d % 2 for d in degs):
        raise ValueError("all vertex degrees must be even")
    return degs


@lru_cache(maxsize=None)
def _class_count(profile, with_loops):
    """Number of transition classes at a pivot whose sorted neighbor
    multiplicities are `profile` (used only to rank pivot candidates)."""
    d = list(profile)
    if not d:
        return 1
    if with_loops:
        total = 0
        # reuse the full generator through a dummy star graph
        star = Multigraph(len(d) + 1,
                          {(0, i + 1): d[i] for i in range(len(d))})
        for _ in transition_classes_with_loops(star, 0):
            total += 1
        return total
    if len(d) == 1:
        return 0
    return sum(1 for _ in _symmetric_matrices(d))


def _pick_pivot(g, policy, with_loops):
    if policy == "first":
        return 0
    if policy != "fewest-classes":
        raise ValueError("unknown pivot policy %r" % (policy,))
    best, best_score = None, None
    for v in range(g.n):
        if g.loops.get(v, 0):
            continue
        profile = tuple(sorted(g.neighbors(v).values()))
        score = _class_count(profile, with_loops)
        if best_score is None or score < best_score:
            best, best_score = v, score
    return best


# -- Martin polynomial ---------------------------------------------------


def _rose_polynomial(k):
    """m of a single vertex with k loops: x(x+2)...(x+2k-4), empty for k=1."""
    out = (1,)
    for t in range(k - 1):
        out = poly.mul(out, (2 * t, 1))
    return out


def _mpoly(g, policy, memo):
    key = canonical_form(g)
    got = memo.get(key)
    if got is not None:
        return got
    comps = connected_components(g)
    if len(comps) > 1:
        result = (1,)
        for comp in comps:
            lab = {v: i for i, v in enumerate(comp)}
            mult = {(lab[a], lab[b]): m for (a, b), m in g.mult.items()
                    if a in lab and b in lab}
            loops = {lab[v]: c for v, c in g.loops.items() if v in lab}
            result = poly.mul(result, _mpoly(Multigraph(len(comp), mult, loops),
                                             policy, memo))
        for _ in range(len(comps) - 1):
            result = poly.mul(result, (-2, 1))
        memo[key] = result
        return result
    if g.n == 1:
        k = g.loops.get(0, 0)
        if k == 0:
            raise ValueError("edgeless component has no Martin polynomial")
        result = _rose_polynomial(k)
        memo[key] = result
        return result
    if g.loops:
        # strip self-loops: one factor (x + d - 4) per loop, d the current degree
        factor = (1,)
        degs = g.degrees()
        for v, c in g.loops.items():
            d = degs[v]
            for t in range(c):
                factor = poly.mul(factor, (d - 4 - 2 * t, 1))
        stripped = Multigraph(g.n, g.mult, {})
        result = poly.mul(factor, _mpoly(stripped, policy, memo))
        memo[key] = result
        return result
    pivot = _pick_pivot(g, policy, with_loops=True)
    result = ()
    for nbrs, D, L, coeff in transition_classes_with_loops(g, pivot):
        child = apply_transition(g, pivot, TransitionMatrix(nbrs, D),
                                 extra_loops=L)
        result = poly.add(result, poly.scale(_mpoly(child, policy, memo), coeff))
    memo[key] = result
    return result


def martin_polynomial(g, pivot_policy="fewest-classes"):
    """Exact transition-system generating polynomial m(g, x): the sum of
    (x-2)^(circuits-1) over all transition systems."""
    _check_even_degrees(g)
    for comp in connected_components(g):
        if len(comp) == 1 and not g.loops.get(comp[0], 0):
            raise ValueError("edgeless component has no Martin polynomial")
    memo = _POLY_MEMO if pivot_policy == "fewest-classes" else {}
    return _mpoly(g, pivot_policy, memo)


def circuit_partition_polynomial(g, pivot_policy="fewest-classes"):
    """J(g, x) = x * m(g, x + 2); its linear coefficient counts Eulerian
    circuits."""
    m = martin_polynomial(g, pivot_policy)
    return poly.mul((0, 1), poly.shift(m, 2))


# -- Martin invariant ----------------------------------------------------


def _k4_closed_form(g, k):
    """Loop-free regular 4-vertex multigraphs have opposite-edge multiplicity
    pairs (a, b, c); the invariant is a!b!c!/((k-a)!(k-b)!(k-c)!) when every
    multiplicity is at most k, and 0 otherwise."""
    a = g.mult.get((0, 1), 0)
    b = g.mult.get((0, 2), 0)
    c = g.mult.get((0, 3), 0)
    if (g.mult.get((2, 3), 0) != a or g.mult.get((1, 3), 0) != b
            or g.mult.get((1, 2), 0) != c or a + b + c != 2 * k):
        raise ValueError("not a regular loop-free 4-vertex graph")
    if a > k or b > k or c > k:
        return 0
    num = factorial(a) * factorial(b) * factorial(c)
    den = factorial(k - a) * factorial(k - b) * factorial(k - c)
    if num % den:
        raise AssertionError("k4 closed form did not divide evenly")
    return num // den


def _minv(g, k, policy, memo):
    """Invariant of a loop-free 2k-regular graph with >= 3 vertices."""
    if g.n == 3:
        return 1
    key = canonical_form(g)
    got = memo.get(key)
    if got is not None:
        return got
    if len(connected_components(g)) > 1:
        memo[key] = 0
        return 0
    if g.n == 4:
        result = _k4_closed_form(g, k)
        memo[key] = result
        return result
    # one scan: connectivity defect and a nontrivial minimum cut, if any
    shortcut_side = None
    if g.n <= EXHAUSTIVE_CUT_LIMIT:
        for side, size, count in _all_cuts(g):
            if size < 2 * k:
                memo[key] = 0
                return 0
            if size == 2 * k and shortcut_side is None \
                    and 2 <= count <= g.n - 2:
                shortcut_side = side
    else:
        if edge_connectivity(g) < 2 * k:
            memo[key] = 0
            return 0
    if shortcut_side is not None:
        g1, g2 = split_edge_cut(g, EdgeCut(_vertices(shortcut_side), 2 * k))
        result = factorial(k) * _minv(g1, k, policy, memo) \
            * _minv(g2, k, policy, memo)
        memo[key] = result
        return result
    pivot = _pick_pivot(g, policy, with_loops=False)
    result = 0
    for tm, coeff in enumerate_transition_matrices(g, pivot):
        child = apply_transition(g, pivot, tm)
        result += coeff * _minv(child, k, policy, memo)
    memo[key] = result
    return result


def martin_invariant(g, pivot_policy="fewest-classes"):
    """Exact Martin invariant of a 2k-regular multigraph: the normalized
    derivative of the Martin polynomial at 4-2k, computed by the recursion.

    Integer for three or more vertices; 2^k/(2k)! for the k-rose and 1/k!
    for the 2k-dipole.
    """
    degs = set(_check_even_degrees(g))
    if len(degs) != 1:
        raise ValueError("the Martin invariant needs a regular graph")
    d = degs.pop()
    if d == 0:
        raise ValueError("degree must be positive")
    k = d // 2
    if g.n == 1:
        return _normalize(Fraction(2 ** k, factorial(2 * k)))
    if g.loops:
        return 0
    if g.n == 2:
        return _normalize(Fraction(1, factorial(k)))
    memo = _INVARIANT_MEMO if pivot_policy == "fewest-classes" else {}
    return _minv(g, k, pivot_policy, memo)


def martin_sequence(g, r_max):
    """[M(g^[1]), ..., M(g^[r_max])]; for odd-degree graphs only even powers
    are even-regular, so those are returned: [M(g^[2]), M(g^[4]), ...]."""
    if r_max < 1:
        raise ValueError("r_max must be positive")
    odd = any(d % 2 for d in g.degrees())
    rs = [r for r in range(1, r_max + 1) if not (odd and r % 2)]
    return [martin_invariant(duplicate(g, r)) for r in rs]


# -- closed forms --------------------------------------------------------


def closed_form_circulant(n):
    """M of the doubled-jump circulant on n >= 5 vertices (jumps 1 and 2)."""
    if n < 5:
        raise ValueError("closed form needs n >= 5")
    num = (3 * n - 2) * 2 ** (n - 3) - 2 * (-1) ** n
    if num % 9:
        raise AssertionError("circulant closed form did not divide evenly")
    return num // 9


def closed_form_prism(ell):
    """M of the doubled prism over an (ell+1)-gon, ell >= 2."""
    if ell < 2:
        raise ValueError("closed form needs ell >= 2")
    return 4 ** (2 * ell - 1) * (3 ** (ell - 2) * (4 * ell - 1) - 1)


def closed_form_K5_power(r):
    """M of the r-fold power of the complete graph on five vertices."""
    if r < 1:
        raise ValueError("r must be positive")
    total = 0
    for a in range(r + 1):
        for b in range(r + 1 - a):
            c = r - a - b
            term = 1
            for x in (a, b, c):
                term *= comb(r + x, x) * comb(r, x)
            total += term
    return factorial(r) ** 4 * total


# -- symmetry factors ----------------------------------------------------


def symmetry_factor(g, N, decompleted=False):
    """Transition-count weights of a 4-regular graph: 3^-n * J(g, N), or for
    the decompleted graph (m(g, x)/x at x = N+2) / 3^(n-1).  The decompleted
    variant at N = -2 equals 2 * 3^(2-n) * M(g)."""
    degs = set(g.degrees())
    if degs != {4}:
        raise ValueError("symmetry factors are for 4-regular graphs")
    N = Fraction(N)
    m = martin_polynomial(g)
    if decompleted:
        if m and m[0]:
            raise AssertionError("Martin polynomial has a nonzero constant term")
        reduced = m[1:]
        return _normalize(Fraction(poly.evaluate(reduced, N + 2),
                                   3 ** (g.n - 1)))
    return _normalize(Fraction(N * poly.evaluate(m, N + 2), 3 ** g.n))
