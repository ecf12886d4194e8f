"""Modular invariants: the graph permanent (exact, with its squared residue),
denominator point counts of the dual tree polynomial over prime fields, and
the c2 residue computed three independent ways."""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import factorial

from .martin import martin_invariant
from .multigraph import Multigraph, delete_vertex, duplicate
from .oracle import BudgetExceeded, MarkedGraph, count_tree_forest_partitions
from .multigraph import is_connected

ResidueReport = namedtuple("ResidueReport", ["modulus", "residue", "provenance"])


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- graph permanent ------------------------------------------------------


def _regular_k(g):
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("need a regular graph")
    d = degs.pop()
    if d % 2 or d == 0:
        raise ValueError("need positive even degree")
    return d // 2


def _ryser_permanent(rows):
    """Permanent of a square integer matrix (list of row tuples) by Ryser's
    formula with Gray-code column updates."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    sums = [0] * n
    total = 0
    popcount = 0
    for s in range(1, 1 << n):
        j = (s & -s).bit_length() - 1  # column toggled by this Gray step
        if (s ^ (s >> 1)) & (1 << j):
            popcount += 1
            for i in range(n):
                sums[i] += rows[i][j]
        else:
            popcount -= 1
            for i in range(n):
                sums[i] -= rows[i][j]
        prod = 1
        for v in sums:
            if not v:
                prod = 0
                break
            prod *= v
        if prod:
            total += prod if (n - popcount) % 2 == 0 else -prod
    return total


def default_orientation(g, vinf):
    """One direction flag per edge instance of g not incident to vinf, in
    edge-instance order: 0 orients the instance from its smaller endpoint."""
    return [0 for (u, v, _) in g.edge_instances() if u != vinf and v != vinf]


def graph_permanent(g, v0, vinf, orientation=None):
    """Exact permanent of the k-fold stacked reduced incidence matrix of
    g minus vinf (rows: vertices other than v0 and vinf; columns: remaining
    edge instances, oriented).  Any self-loop away from vinf produces a zero
    column, hence 0; choices change only the sign of the underlying
    permanent before squaring."""
    k = _regular_k(g)
    if v0 == vinf or not (0 <= v0 < g.n and 0 <= vinf < g.n):
        raise ValueError("v0 and vinf must be distinct vertices")
    if g.loops.get(vinf, 0):
        raise ValueError("the vertex at infinity must be loop-free")
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    inst = [(u, v) for (u, v, _) in g.edge_instances()
            if u != vinf and v != vinf]
    if orientation is None:
        orientation = [0] * len(inst)
    if len(orientation) != len(inst):
        raise ValueError("orientation must flag every remaining edge instance")
    rows_idx = {w: i for i, w in enumerate(v for v in range(g.n)
                                           if v not in (v0, vinf))}
    nrows = len(rows_idx)
    ncols = len(inst)
    if ncols != k * nrows:
        raise ValueError("edge/vertex count mismatch: %d columns for %d rows"
                         % (ncols, nrows))
    if any((u == v) for (u, v) in inst):
        return 0  # self-loop column is identically zero
    base = [[0] * ncols for _ in range(nrows)]
    for c, ((u, v), flip) in enumerate(zip(inst, orientation)):
        a, b = (v, u) if flip else (u, v)
        if a in rows_idx:
            base[rows_idx[a]][c] = 1
        if b in rows_idx:
            base[rows_idx[b]][c] = -1
    stacked = [tuple(r) for r in base] * k
    value = _ryser_permanent(stacked)
    if value % factorial(k) ** nrows:
        raise AssertionError("stacked permanent is not divisible by k!^rows")
    return value


def permanent_square_residue(g, v0=None, vinf=None, orientation=None):
    """Perm(g)^2 mod (k+1); the square kills the sign ambiguity, so the
    residue is independent of all choices.  For composite k+1 the residue
    is trivially zero and reported as such without computing."""
    k = _regular_k(g)
    modulus = k + 1
    if not is_prime(modulus):
        return ResidueReport(modulus, 0,
                             {"method": "permanent", "trivial": "composite modulus"})
    if vinf is None:
        loopfree = [v for v in range(g.n) if not g.loops.get(v, 0)]
        if not loopfree:
            # every vertex is looped: whatever finite part we pick has a zero
            # column, so the permanent vanishes
            return ResidueReport(modulus, 0,
                                 {"method": "permanent", "trivial": "all vertices looped"})
        vinf = loopfree[-1]
    if v0 is None:
        v0 = next(v for v in range(g.n) if v != vinf)
    value = graph_permanent(g, v0, vinf, orientation)
    return ResidueReport(modulus, value * value % modulus,
                         {"method": "permanent", "v0": v0, "vinf": vinf})


def extended_permanent(g, r_list):
    """Squared permanent residues of the powers g^[r], modulus k*r + 1; every
    requested modulus must be prime."""
    k = _regular_k(g)
    out = []
    for r in r_list:
        modulus = k * r + 1
        if not is_prime(modulus):
            raise ValueError("k*r + 1 = %d is composite for r = %d" % (modulus, r))
        rep = permanent_square_residue(duplicate(g, r))
        out.append(ResidueReport(modulus, rep.residue,
                                 dict(rep.provenance, r=r)))
    return out


# -- point counts and c2 ---------------------------------------------------


def _det_mod_p(mat, p):
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for i in range(n):
        piv = None
        for r in range(i, n):
            if a[r][i] % p:
                piv = r
                break
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        inv = pow(a[i][i], p - 2, p)
        det = det * a[i][i] % p
        for r in range(i + 1, n):
            f = a[r][i] * inv % p
            if f:
                for c in range(i, n):
                    a[r][c] = (a[r][c] - f * a[i][c]) % p
    return det % p


def point_count(g, p, budget=4 * 10 ** 6):
    """Number of points x in F_p^m with Psi_g(x) = 0, where Psi is the sum
    over spanning trees of the product of the non-tree variables.

    The sweep is literal: every point is visited and the block-determinant
    value tested for zero.  Per point, the pivots on nonzero coordinates are
    taken first, which reduces the test to a single small weighted-Laplacian
    determinant on the graph with the zero-coordinate edges contracted.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if g.n < 3 or g.edge_count() < 2:
        raise ValueError("point counts need >= 3 vertices and >= 2 edges")
    inst = g.edge_instances()
    m = len(inst)
    if p ** m > budget:
        raise BudgetExceeded("p^m = %d points exceed the budget %d"
                             % (p ** m, budget))
    if not is_connected(g):
        return p ** m  # no spanning trees: Psi is identically zero
    n = g.n
    inv = [0] + [pow(x, p - 2, p) for x in range(1, p)]
    nonloop = [(u, v) for (u, v, _) in inst]
    count = 0
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for point in itertools.product(range(p), repeat=m):
        # contract zero-coordinate edges; a zero loop coordinate kills Psi
        for i in range(n):
            parent[i] = i
        zero_loop = False
        acyclic = True
        for x, (u, v) in zip(point, nonloop):
            if x:
                continue
            if u == v:
                zero_loop = True
                break
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[rv] = ru
        if zero_loop:
            count += 1
            continue
        if not acyclic:
            count += 1  # no tree contains a cycle, so every term vanishes
            continue
        comps = {}
        for i in range(n):
            comps.setdefault(find(i), len(comps))
        nc = len(comps)
        if nc == 1:
            continue  # all terms collapse to a nonzero product
        # weighted Laplacian (weights 1/x) of the contracted graph, reduced
        L = [[0] * (nc - 1) for _ in range(nc - 1)]
        for x, (u, v) in zip(point, nonloop):
            if not x or u == v:
                continue
            a, b = comps[find(u)], comps[find(v)]
            if a == b:
                continue
            w = inv[x]
            if a < nc - 1:
                L[a][a] = (L[a][a] + w) % p
            if b < nc - 1:
                L[b][b] = (L[b][b] + w) % p
            if a < nc - 1 and b < nc - 1:
                L[a][b] = (L[a][b] - w) % p
                L[b][a] = (L[b][a] - w) % p
        if _det_mod_p(L, p) == 0:
            count += 1
    return count


def c2(g, p, budget=4 * 10 ** 6):
    """The point count divided by p^2, reduced mod p."""
    n_points = point_count(g, p, budget)
    if n_points % (p * p):
        raise AssertionError("point count is not divisible by p^2")
    return ResidueReport(p, (n_points // (p * p)) % p,
                         {"method": "point-count", "points": n_points})


def c2_from_martin(g, p, allow_small=False):
    """c2 of any decompletion of the 4-regular graph g, read off the Martin
    invariant: M(g^[p-1]) / (3p) mod p.

    The identity is guaranteed from 6 vertices up.  With allow_small,
    5-vertex completions are admitted anyway: the identity does hold for the
    complete graph on 5 vertices, but fails for some other 5-vertex
    multigraphs at p = 3, so the caller takes responsibility.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    degs = set(g.degrees())
    if degs != {4}:
        raise ValueError("need a 4-regular completion")
    if g.n < 6 and not allow_small:
        raise ValueError("the Martin route needs >= 6 vertices")
    M = martin_invariant(duplicate(g, p - 1))
    if p == 3:
        if M % 9:
            raise ValueError("Martin invariant not divisible by 9")
        residue = (M // 9) % 3
    else:
        if M % p:
            raise ValueError("Martin invariant not divisible by p")
        residue = (M // p) * pow(3, p - 2, p) % p
    return ResidueReport(p, residue, {"method": "martin", "M": M})


def c2_from_trees_forests(g, v, w, p):
    """c2 of g minus v via tree/forest partition counts: -N mod p with
    r = p-1, where N is the partition count on g^[r] with v and w deleted
    and w's three other neighbours marked (the pair {a,b} against the
    single c), normalized by (r!)^m for the m edges of the base graph.

    The normalization divides out the labelling of the r parallel copies of
    each base edge: trees and forests are acyclic, so every part uses at
    most one copy per base edge, and each unlabelled configuration lifts to
    exactly (r!)^m labelled partitions.  The normalized count is the
    diagonal coefficient of the forest-times-tree polynomial power that the
    congruence is actually about; the division below is exact."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    degs = set(g.degrees())
    if degs != {4}:
        raise ValueError("need a 4-regular completion")
    if g.n < 5:
        raise ValueError("need at least 5 vertices")
    if g.loops:
        raise ValueError("need a loop-free graph")
    e = (v, w) if v < w else (w, v)
    if g.mult.get(e, 0) != 1:
        raise ValueError("v and w must be joined by exactly one edge")
    marks = []
    for x, mult in sorted(g.neighbors(w).items()):
        if x != v:
            marks.extend([x] * mult)
    if len(marks) != 3 or len(set(marks)) != 3:
        raise ValueError("w needs three distinct single-edge neighbours besides v")
    r = p - 1
    h = duplicate(g, r)
    first, second = max(v, w), min(v, w)
    h, map1 = delete_vertex(h, first, return_map=True)
    h, map2 = delete_vertex(h, map1[second], return_map=True)
    a, b, c = (map2[map1[x]] for x in marks)
    n_rr = count_tree_forest_partitions(MarkedGraph(h, (a, b), c), r)
    base_edges = h.edge_count() // r
    denom = factorial(r) ** base_edges
    if n_rr % denom:
        raise AssertionError("copy-labelling factor did not divide evenly")
    coeff = n_rr // denom
    return ResidueReport(p, (-coeff) % p,
                         {"method": "trees-forests", "v": v, "w": w,
                          "N": n_rr, "marks": (a, b, c)})
