"""Brute-force ground truth: spanning-tree enumeration, tree-partition and
tree/forest-partition counters, diagonal coefficients of tree polynomials,
edge-cut enumeration, raw transition-system sums, and exact Kirchhoff
evaluations.

Everything in this module is deliberately naive.  It exists so the clever
recursions elsewhere have something slow and obviously-correct to answer to.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import factorial

from . import polynomial as poly
from .multigraph import Multigraph, is_connected


class BudgetExceeded(RuntimeError):
    """An enumeration would take more elementary steps than allowed."""


MartinValue = namedtuple("MartinValue", ["polynomial", "invariant"])


# -- spanning trees and forests -----------------------------------------


def _nonloop_instances(g):
    out = []
    for (u, v) in sorted(g.mult):
        out.extend((u, v, i) for i in range(g.mult[(u, v)]))
    return out


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[rb] = ra
        return True


def _acyclic(n, edges):
    uf = _UnionFind(n)
    for (u, v, _) in edges:
        if not uf.union(u, v):
            return None
    return uf


def spanning_trees(g):
    """Every spanning tree, as a frozenset of edge instances (u, v, i).
    Parallel copies are distinguishable, so a doubled edge doubles counts."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("spanning trees require a connected graph")
    if g.n == 1:
        return [frozenset()]
    inst = _nonloop_instances(g)
    out = []
    for combo in itertools.combinations(inst, g.n - 1):
        if _acyclic(g.n, combo) is not None:
            out.append(frozenset(combo))
    return out


def spanning_two_forests(g, a, b, c):
    """Spanning forests with exactly two components, one holding both a and b,
    the other holding c; frozensets of edge instances."""
    if g.n < 2:
        return []
    inst = _nonloop_instances(g)
    out = []
    for combo in itertools.combinations(inst, g.n - 2):
        uf = _acyclic(g.n, combo)
        if uf is None:
            continue
        ra, rb, rc = uf.find(a), uf.find(b), uf.find(c)
        if ra == rb and ra != rc:
            out.append(frozenset(combo))
    return out


# -- partition counters --------------------------------------------------


def count_tree_partitions(g, k, ordered=True):
    """Partitions of all edge instances into k spanning trees of g.

    Returns 0 whenever the edge count makes this impossible (wrong total,
    loops present, disconnected).  A single vertex admits exactly the empty
    partition.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if g.n == 1:
        return 1 if g.edge_count() == 0 else 0
    if g.edge_count() != k * (g.n - 1) or g.loops or not is_connected(g):
        return 0
    inst = _nonloop_instances(g)
    index = {e: i for i, e in enumerate(inst)}
    tree_masks = []
    for t in spanning_trees(g):
        m = 0
        for e in t:
            m |= 1 << index[e]
        tree_masks.append(m)
    full = (1 << len(inst)) - 1
    memo = {0: 1}

    def count(mask):
        if mask in memo:
            return memo[mask]
        total = 0
        for tm in tree_masks:
            if tm & mask == tm:
                total += count(mask & ~tm)
        memo[mask] = total
        return total

    n_ordered = count(full)
    if ordered:
        return n_ordered
    assert n_ordered % factorial(k) == 0
    return n_ordered // factorial(k)


def diagonal_coefficient(g, k, r):
    """Coefficient of (x_1 ... x_m)^r in the k*r-th power of the spanning-tree
    polynomial: the number of ordered lists of k*r spanning trees using each
    edge instance exactly r times."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    if g.n == 1:
        return 1 if g.edge_count() == 0 else 0
    if g.edge_count() * r != k * r * (g.n - 1) or g.loops or not is_connected(g):
        return 0
    inst = _nonloop_instances(g)
    index = {e: i for i, e in enumerate(inst)}
    trees = []
    for t in spanning_trees(g):
        trees.append(tuple(sorted(index[e] for e in t)))
    memo = {}

    def count(cap, slots):
        if slots == 0:
            return 1
        key = cap
        if key in memo:
            return memo[key]
        total = 0
        for t in trees:
            if all(cap[i] for i in t):
                nxt = list(cap)
                for i in t:
                    nxt[i] -= 1
                total += count(tuple(nxt), slots - 1)
        memo[key] = total
        return total

    return count(tuple([r] * len(inst)), k * r)


class MarkedGraph:
    """A multigraph with three distinct marked vertices: a pair {a, b} of one
    color and a single vertex c of the other."""

    __slots__ = ("graph", "pair", "single")

    def __init__(self, graph, pair, single):
        a, b = pair
        if len({a, b, single}) != 3:
            raise ValueError("marked vertices must be distinct")
        for v in (a, b, single):
            if not 0 <= v < graph.n:
                raise ValueError("marked vertex out of range")
        self.graph = graph
        self.pair = (a, b) if a < b else (b, a)
        self.single = single

    def __repr__(self):
        return "MarkedGraph(%r, pair=%r, single=%r)" % (
            self.graph, self.pair, self.single)


def count_tree_forest_partitions(h, r):
    """Ordered partitions of the edge instances of the marked graph into
    r spanning trees followed by r spanning two-forests whose components
    separate the marked pair from the marked single vertex."""
    if r < 1:
        raise ValueError("r must be positive")
    g = h.graph
    n = g.n
    if g.loops:
        return 0
    if g.edge_count() != r * (n - 1) + r * (n - 2) or not is_connected(g):
        return 0
    a, b = h.pair
    c = h.single
    inst = _nonloop_instances(g)
    index = {e: i for i, e in enumerate(inst)}

    def to_mask(edge_set):
        m = 0
        for e in edge_set:
            m |= 1 << index[e]
        return m

    tree_masks = [to_mask(t) for t in spanning_trees(g)]
    forest_masks = [to_mask(f) for f in spanning_two_forests(g, a, b, c)]
    full = (1 << len(inst)) - 1
    memo = {}

    def count(mask, trees_left, forests_left):
        if trees_left == 0 and forests_left == 0:
            return 1 if mask == 0 else 0
        key = (mask, trees_left)
        if key in memo:
            return memo[key]
        total = 0
        if trees_left:
            for tm in tree_masks:
                if tm & mask == tm:
                    total += count(mask & ~tm, trees_left - 1, forests_left)
        else:
            for fm in forest_masks:
                if fm & mask == fm:
                    total += count(mask & ~fm, 0, forests_left - 1)
        memo[key] = total
        return total

    return count(full, r, r)


# -- edge cuts -------------------------------------------------------------


def cut_size(g, side):
    """Edge instances with exactly one end in side (loops never cross)."""
    return sum(m for (u, v), m in g.mult.items() if (u in side) != (v in side))


def all_cuts(g):
    """Yield (side, size) over every proper bipartition, side a frozenset
    containing vertex 0, by side size and then lexicographically."""
    rest = list(range(1, g.n))
    for r in range(0, g.n - 1):
        for extra in itertools.combinations(rest, r):
            side = frozenset((0,) + extra)
            yield side, cut_size(g, side)


# -- transition-system enumeration --------------------------------------


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for m in _perfect_matchings(rest):
            yield [(first, items[i])] + m


def martin_brute_force(g, budget=10 ** 8):
    """Transition-system sum, the slow way: enumerate every system (a perfect
    matching of the half-edges at each vertex), trace its circuits, and add
    up (x-2)^(circuits-1).  Returns the polynomial and, for 2k-regular
    graphs, the derivative-normalized invariant."""
    if g.n == 0:
        raise ValueError("empty graph")
    degs = g.degrees()
    if any(d % 2 for d in degs):
        raise ValueError("all degrees must be even")
    # half-edge ids: instance t gets halves 2t and 2t+1
    inst = g.edge_instances()
    at = [[] for _ in range(g.n)]
    for t, (u, v, _) in enumerate(inst):
        at[u].append(2 * t)
        at[v].append(2 * t + 1)
    systems = 1
    for v in range(g.n):
        d = len(at[v])
        dd = 1
        while d > 1:
            dd *= d - 1
            d -= 2
        systems *= dd
    steps = systems * (len(inst) + 1)
    if steps > budget:
        raise BudgetExceeded("%d steps needed, budget is %d" % (steps, budget))

    matchings = [list(_perfect_matchings(at[v])) for v in range(g.n)]
    nhalf = 2 * len(inst)
    counts = []
    succ = [0] * nhalf
    for choice in itertools.product(*matchings):
        for m in choice:
            for (h1, h2) in m:
                succ[h1] = h2
                succ[h2] = h1
        # circuits: orbits of h -> succ(twin(h)), collapsing each orbit with
        # its reversal by marking both darts of every traversed edge
        seen = [False] * nhalf
        circuits = 0
        for h0 in range(nhalf):
            if seen[h0]:
                continue
            circuits += 1
            h = h0
            while not seen[h]:
                seen[h] = True
                t = h ^ 1
                seen[t] = True
                h = succ[t]
        while len(counts) < circuits:
            counts.append(0)
        counts[circuits - 1] += 1
    m_poly = poly.shifted_power_basis(counts, -2)
    return MartinValue(m_poly, invariant_from_polynomial(m_poly, g))


def invariant_from_polynomial(m_poly, g):
    """Normalize a Martin polynomial to the invariant when the graph is
    2k-regular; None otherwise.  For k >= 2 this is the derivative at 4-2k,
    scaled; the 2-regular case is degenerate (1 when connected, else 0)."""
    degs = set(g.degrees())
    if len(degs) != 1:
        return None
    d = degs.pop()
    if d % 2 or d == 0:
        return None
    k = d // 2
    if k == 1:
        return 1 if is_connected(g) else 0
    dm = poly.evaluate(poly.derivative(m_poly), 4 - 2 * k)
    val = Fraction(4 * (-1) ** k, factorial(k - 2) * factorial(2 * k)) * dm
    return int(val) if val.denominator == 1 else val


# -- Kirchhoff evaluations ----------------------------------------------


def _det_bareiss(mat):
    """Exact determinant (fraction-free for integers, also fine on Fractions)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if not a[i][i]:
            for r in range(i + 1, n):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                num = a[r][c] * a[i][i] - a[r][i] * a[i][c]
                if isinstance(num, int):
                    a[r][c] = num // prev
                else:
                    a[r][c] = num / prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def kirchhoff_evaluate(g, assignment, variant="trees"):
    """Evaluate a tree polynomial at one point, one value per edge instance
    in the order of g.edge_instances().

    variant="trees": sum over spanning trees of the product of tree-edge
    values (reduced weighted-Laplacian determinant; loop values are ignored
    since no tree contains them).

    variant="complements": sum over spanning trees of the product over edges
    NOT in the tree, via the block determinant [[diag(x), At], [-A, 0]] with
    A a reduced signed incidence matrix.  Loop columns of A are zero, so each
    loop value multiplies the total, as it should.

    Disconnected graphs evaluate to 0 in both variants.
    """
    inst = g.edge_instances()
    if len(assignment) != len(inst):
        raise ValueError("need exactly one value per edge instance")
    n, m = g.n, len(inst)
    if n == 0:
        raise ValueError("empty graph")
    if variant == "trees":
        if n == 1:
            return 1
        L = [[0] * (n - 1) for _ in range(n - 1)]
        for t, (u, v, _) in enumerate(inst):
            if u == v:
                continue
            x = assignment[t]
            if u < n - 1:
                L[u][u] += x
            if v < n - 1:
                L[v][v] += x
            if u < n - 1 and v < n - 1:
                L[u][v] -= x
                L[v][u] -= x
        return _det_bareiss(L)
    if variant == "complements":
        size = m + n - 1
        M = [[0] * size for _ in range(size)]
        for t in range(m):
            M[t][t] = assignment[t]
        for t, (u, v, _) in enumerate(inst):
            if u == v:
                continue
            # column t of A carries +1 at row u, -1 at row v (rows < n-1 kept)
            if u < n - 1:
                M[t][m + u] = 1        # At block
                M[m + u][t] = -1       # -A block
            if v < n - 1:
                M[t][m + v] = -1
                M[m + v][t] = 1
        return _det_bareiss(M)
    raise ValueError("variant must be 'trees' or 'complements'")
