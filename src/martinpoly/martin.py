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
from itertools import combinations
from math import comb, factorial

from . import polynomial as poly
from .multigraph import (Multigraph, _classes, apply_transition,
                         canonical_form, connected_components, duplicate,
                         induced_subgraph, regular_degree,
                         regular_half_degree, transition_classes)
from .structure import EdgeCut, _all_cuts, _vertices, split_edge_cut

_INVARIANT_MEMO = {}
_POLY_MEMO = {}
# labelled graph (Multigraph.key) -> canonical_form; the recursions reach the
# same labelled node again when they remove one vertex set in another order,
# and when M and the polynomial run on one graph
_FRONT = {}


def _normalize(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _pick_pivot(g, with_loops):
    """The vertex of the loop-free g with the fewest transition classes,
    counting only the loop-free ones when with_loops is unset.  For the
    invariant (with_loops unset), ties go to the vertex with the most
    adjacent neighbour pairs, i.e. the most triangles through it: its
    transitions add edges to pairs that already have some, so the children
    carry more k-bundles and small cuts, which the invariant recursion
    settles without expanding.  The polynomial recursion has no such
    shortcut and keeps the lowest label; so do the remaining ties."""
    adj = g.adjacency()
    best, best_rank = None, None
    for v in range(g.n):
        nbrs = adj[v]
        score = len(_classes(tuple(sorted(nbrs.values())), with_loops))
        if best_rank is not None and score > best_rank[0]:
            continue
        triangles = 0 if with_loops else sum(
            1 for a, b in combinations(nbrs, 2) if b in adj[a])
        rank = (score, -triangles)
        if best_rank is None or rank < best_rank:
            best, best_rank = v, rank
    return best


def _memo_key(g):
    """canonical_form(g), through _FRONT."""
    label = g.key()
    key = _FRONT.get(label)
    if key is None:
        key = _FRONT[label] = canonical_form(g)
    return key


# -- Martin polynomial ---------------------------------------------------


@lru_cache(maxsize=None)
def _loop_factor(looped):
    """The factor of m that loops contribute, for the sorted (degree, loop
    count) pairs of the looped vertices: (x + d - 4 - 2t) for the t-th of
    c loops at a vertex of current degree d."""
    out = (1,)
    for d, c in looped:
        for t in range(c):
            out = poly.mul(out, (d - 4 - 2 * t, 1))
    return out


def _mpoly(g):
    comps = connected_components(g)
    factor = None
    if g.loops and g.n > 1 and len(comps) == 1:
        # strip self-loops before keying, so that every placement of loops
        # on one loop-free graph shares its memo entry
        degs = g.degrees()
        factor = _loop_factor(tuple(sorted((degs[v], c)
                                           for v, c in g.loops.items())))
        g = Multigraph(g.n, g.mult, {})
    key = _memo_key(g)
    result = _POLY_MEMO.get(key)
    if result is None:
        result = _POLY_MEMO[key] = _expand_polynomial(g, comps)
    return result if factor is None else poly.mul(factor, result)


def _expand_polynomial(g, comps):
    """m of g, which is disconnected (with components comps), a rose, or
    connected and loop-free."""
    if len(comps) > 1:
        result = (1,)
        for comp in comps:
            result = poly.mul(result, _mpoly(induced_subgraph(g, comp)[0]))
        for _ in range(len(comps) - 1):
            result = poly.mul(result, (-2, 1))
        return result
    if g.n == 1:
        k = g.loops.get(0, 0)
        if k == 0:
            raise ValueError("edgeless component has no Martin polynomial")
        # a rose with k loops: x(x+2)...(x+2k-4), the loop factor of k-1
        # loops at degree 2k
        return _loop_factor(((2 * k, k - 1),))
    pivot = _pick_pivot(g, with_loops=True)
    result = ()
    for D, L, coeff in transition_classes(g, pivot):
        child = apply_transition(g, pivot, D, L)
        result = poly.add(result, poly.scale(_mpoly(child), coeff))
    return result


def martin_polynomial(g):
    """Exact transition-system generating polynomial m(g, x): the sum of
    (x-2)^(circuits-1) over all transition systems."""
    if g.n == 0:
        raise ValueError("empty graph")
    if any(d % 2 for d in g.degrees()):
        raise ValueError("all vertex degrees must be even")
    return _mpoly(g)


def circuit_partition_polynomial(g):
    """J(g, x) = x * m(g, x + 2); its linear coefficient counts Eulerian
    circuits."""
    m = martin_polynomial(g)
    return poly.mul((0, 1), poly.shift(m, 2))


# -- Martin invariant ----------------------------------------------------


def _k4_closed_form(g, k):
    """Loop-free regular 4-vertex multigraphs have opposite-edge multiplicity
    pairs (a, b, c); the invariant is a!b!c!/((k-a)!(k-b)!(k-c)!).  Called
    only after _minv's k-bundle pass, so every multiplicity is below k."""
    a = g.mult.get((0, 1), 0)
    b = g.mult.get((0, 2), 0)
    c = g.mult.get((0, 3), 0)
    if (g.mult.get((2, 3), 0) != a or g.mult.get((1, 3), 0) != b
            or g.mult.get((1, 2), 0) != c or a + b + c != 2 * k):
        raise ValueError("not a regular loop-free 4-vertex graph")
    num = factorial(a) * factorial(b) * factorial(c)
    den = factorial(k - a) * factorial(k - b) * factorial(k - c)
    if num % den:
        raise AssertionError("k4 closed form did not divide evenly")
    return num // den


def _minv(g, k):
    """Invariant of a loop-free 2k-regular graph with >= 3 vertices.

    M vanishes when some proper cut has fewer than 2k edges, and factors as
    k! M(g1) M(g2) across a nontrivial 2k-cut S (split_edge_cut: g1 keeps S
    and contracts the rest, g2 the other way round).  Two of the steps below
    use a 2k-cut without first ruling out a smaller cut elsewhere: the
    k-bundle pass, before any canonical form, and the cut scan, which stops
    at the first defect or nontrivial 2k-cut.  That is sound because a cut
    T with d(T) < 2k makes a factor vanish as well.  If T does not cross S,
    then T or its complement lies inside S or inside the rest, and is a cut
    of the same size in g1 or g2.  If T crosses S (all four corners S & T,
    S - T, T - S and the rest nonempty), submodularity gives
    d(S & T) + d(S | T) <= d(S) + d(T) < 4k, so d(S & T) < 2k, a proper cut
    of g1 avoiding its contracted vertex, or d(S | T) < 2k, a proper cut of
    g2 containing its contracted vertex.  Either way the product is 0, as M
    of g is."""
    if g.n == 3:
        return 1
    # k-bundles: a pair {u, v} joined by m edges has a cut of 4k - 2m
    bundle = None
    for e, m in g.mult.items():
        if m > k:
            return 0
        if m == k and bundle is None:
            bundle = e
    if bundle is not None:
        # g1 is the triangle on the bundle's ends and the contracted rest,
        # with M = 1
        g2 = split_edge_cut(g, EdgeCut(bundle, 2 * k))[1]
        return factorial(k) * _minv(g2, k)
    if len(connected_components(g)) > 1:
        return 0
    if g.n == 4:
        return _k4_closed_form(g, k)
    key = _memo_key(g)
    got = _INVARIANT_MEMO.get(key)
    if got is not None:
        return got
    # one scan of the cuts of size <= 2k: first defect or first nontrivial
    # 2k-cut
    shortcut_side = None
    for side, size, count in _all_cuts(g, 2 * k):
        if size < 2 * k:
            _INVARIANT_MEMO[key] = 0
            return 0
        if 2 <= count <= g.n - 2:
            shortcut_side = side
            break
    if shortcut_side is not None:
        g1, g2 = split_edge_cut(g, EdgeCut(_vertices(shortcut_side), 2 * k))
        result = factorial(k) * _minv(g1, k) * _minv(g2, k)
        _INVARIANT_MEMO[key] = result
        return result
    pivot = _pick_pivot(g, with_loops=False)
    result = 0
    for D, _, coeff in transition_classes(g, pivot, False):
        result += coeff * _minv(apply_transition(g, pivot, D), k)
    _INVARIANT_MEMO[key] = result
    return result


def martin_invariant(g):
    """Exact Martin invariant of a 2k-regular multigraph: the normalized
    derivative of the Martin polynomial at 4-2k, computed by the recursion.

    Integer for three or more vertices; 2^k/(2k)! for the k-rose and 1/k!
    for the 2k-dipole.
    """
    k = regular_half_degree(g)
    if g.n == 1:
        return _normalize(Fraction(2 ** k, factorial(2 * k)))
    if g.loops:
        return 0
    if g.n == 2:
        return _normalize(Fraction(1, factorial(k)))
    return _minv(g, k)


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
    if regular_degree(g) != 4:
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
