"""Modular invariants: the graph permanent (exact, with its squared residue),
denominator point counts of the dual tree polynomial over prime fields, and
the c2 residue computed three independent ways."""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb, factorial
from operator import sub

from .martin import _order, martin_invariant
from .multigraph import (Multigraph, canonical_form, duplicate,
                         induced_subgraph, is_connected, regular_degree,
                         regular_half_degree)
from .oracle import BudgetExceeded, MarkedGraph, count_tree_forest_partitions

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


def _ryser_permanent(rows):
    """Permanent of a square integer matrix (list of row tuples) by Ryser's
    formula on the transpose, with identical rows grouped.

    With distinct rows r_1..r_d taken k_1..k_d times, a row subset is fixed
    up to relabelling by how many copies c_t of each it takes, so

        perm = sum over 0 <= c_t <= k_t of (-1)^(N - sum c) prod C(k_t, c_t)
               prod_j (sum_t c_t r_t[j]),

    (k_1+1)...(k_d+1) terms instead of 2^N; with all rows distinct it is
    plain Ryser, 2^N terms.  The c vectors are visited in reflected
    mixed-radix Gray order, so each step moves one c_t by one and updates
    the column sums by one row.  oracle.ryser_permanent is the ungrouped
    reference.

    Nothing in the library calls it: graph_permanent is a frontier DP, and
    this is the reference its differential tests hold it to.  It stays here
    only because benchmark/layers.py hooks it for the residues.permanent_s
    and residues.ryser_terms metrics; it moves to the tests once those hook
    graph_permanent."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    copies = {}
    for r in rows:
        copies[tuple(r)] = copies.get(tuple(r), 0) + 1
    distinct = list(copies)
    ks = [copies[r] for r in distinct]
    binoms = [[comb(k, i) for i in range(k + 1)] for k in ks]
    d = len(distinct)
    c = [0] * d
    step = [1] * d
    sums = [0] * n
    taken = 0
    total = 0
    while True:
        t = 0
        while t < d and not 0 <= c[t] + step[t] <= ks[t]:
            step[t] = -step[t]
            t += 1
        if t == d:
            return total
        delta = step[t]
        c[t] += delta
        taken += delta
        row = distinct[t]
        for j in range(n):
            sums[j] += delta * row[j]
        prod = 1
        for v in sums:
            if not v:
                break
            prod *= v
        else:
            for b, ct in zip(binoms, c):
                prod *= b[ct]
            total += prod if (n - taken) % 2 == 0 else -prod


def graph_permanent(g, v0, vinf, orientation=None):
    """Exact permanent of the k-fold stacked reduced incidence matrix of
    g minus vinf (rows: vertices other than v0 and vinf, k copies each;
    columns: remaining edge instances, oriented, 1 in the tail's rows and -1
    in the head's).  Any self-loop away from vinf produces a zero column,
    hence 0; choices change only the sign of the underlying permanent before
    squaring.

    A term of the permanent puts each column in a copy of one of its end
    rows, k columns to each row, and the k! ways to spread a row's columns
    over its copies give one product.  So the permanent is (k!)^rows times
    a signed count of the ways to send each edge instance to an end row, k
    to each row: an instance sent to its head counts -1, and one at v0 goes
    to its other end.  The count is a frontier DP along martin._order(g): a
    state holds what each frontier row still needs, and a row leaves once
    its bundles to later rows are placed.  j of a bundle's m instances go to
    its earlier end v in C(m, j) ways, each of sign (-1)^(t + j) when t of
    them are tailed at v: an instance goes to its head when it is tailed at
    v and goes on, or tailed on and stays."""
    k = regular_half_degree(g)
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
    need = {w: k for w in range(g.n) if w not in (v0, vinf)}
    nrows = len(need)
    ncols = len(inst)
    if ncols != k * nrows:
        raise ValueError("edge/vertex count mismatch: %d columns for %d rows"
                         % (ncols, nrows))
    if any((u == v) for (u, v) in inst):
        return 0  # self-loop column is identically zero
    sign = 1
    bundles = {}  # (u, v) between rows -> [instances, those tailed at u]
    for (u, v), flip in zip(inst, orientation):
        tail = v if flip else u
        if v0 in (u, v):
            w = u + v - v0
            need[w] -= 1
            if w != tail:
                sign = -sign
        else:
            bundle = bundles.setdefault((u, v), [0, 0])
            bundle[0] += 1
            bundle[1] += tail == u
    if min(need.values()) < 0:
        return 0  # a row holds more than k instances at v0
    order = [v for v in _order(g) if v in need]
    rank = {v: i for i, v in enumerate(order)}
    later = {v: [] for v in order}  # row -> (later row, m, tailed at row)
    for (u, v), (m, t) in bundles.items():
        if rank[u] < rank[v]:
            later[u].append((v, m, t))
        else:
            later[v].append((u, m, m - t))
    states = {(): 1}
    front = []
    for v in order:
        nbrs = later[v]
        new = [u for u, _, _ in nbrs if u not in front]
        nfront = [u for u in front if u != v] + new
        pos = [nfront.index(u) for u, _, _ in nbrs]
        # splits[s]: the ways v's bundles send s instances to v, each as what
        # they send on to each row of nfront, with its weight
        splits = [[] for _ in range(need[v] + 1)]
        parity = sum(t for _, _, t in nbrs)
        for js in itertools.product(*[range(max(m - need[u], 0), m + 1)
                                      for u, m, _ in nbrs]):
            s = sum(js)
            if s > need[v]:
                continue
            sent = [0] * len(nfront)
            weight = -1 if (parity + s) % 2 else 1
            for p, (_, m, _), j in zip(pos, nbrs, js):
                sent[p] = m - j
                weight *= comb(m, j)
            splits[s].append((tuple(sent), weight))
        at = front.index(v) if v in front else None
        fresh = tuple(need[u] for u in new)
        children = {}
        for state, value in states.items():
            if at is None:
                s, kept = need[v], state + fresh
            else:
                s, kept = state[at], state[:at] + state[at + 1:] + fresh
            for sent, weight in splits[s]:
                child = tuple(map(sub, kept, sent))
                if min(child, default=0) >= 0:
                    children[child] = children.get(child, 0) + weight * value
        states, front = children, nfront
    return sign * factorial(k) ** nrows * states.get((), 0)


def permanent_square_residue(g):
    """Perm(g)^2 mod (k+1), at vinf the last loop-free vertex and v0 the
    first other; the square kills the sign, so every choice graph_permanent
    takes gives this residue.  It is zero, reported as trivial without
    computing, for a composite k+1 or a loop at every vertex."""
    k = regular_half_degree(g)
    modulus = k + 1
    if not is_prime(modulus):
        return ResidueReport(modulus, 0,
                             {"method": "permanent", "trivial": "composite modulus"})
    loopfree = [v for v in range(g.n) if not g.loops.get(v, 0)]
    if not loopfree:
        return ResidueReport(modulus, 0,
                             {"method": "permanent", "trivial": "no loop-free vinf"})
    vinf = loopfree[-1]
    v0 = 1 if vinf == 0 else 0
    value = graph_permanent(g, v0, vinf)
    return ResidueReport(modulus, value * value % modulus,
                         {"method": "permanent", "v0": v0, "vinf": vinf})


def extended_permanent(g, r_list):
    """Squared permanent residues of the powers g^[r], modulus k*r + 1; every
    requested modulus must be prime."""
    k = regular_half_degree(g)
    out = []
    for r in r_list:
        if r < 1:
            raise ValueError("r must be positive, got %d" % r)
        modulus = k * r + 1
        if not is_prime(modulus):
            raise ValueError("k*r + 1 = %d is composite for r = %d" % (modulus, r))
        rep = permanent_square_residue(duplicate(g, r))
        out.append(ResidueReport(modulus, rep.residue,
                                 dict(rep.provenance, r=r)))
    return out


# -- point counts and c2 ---------------------------------------------------


def _eliminate(a, steps, p):
    """Gaussian elimination mod p, in place, of the first `steps` columns of
    the square matrix a, pivoting within its first `steps` rows.  Returns
    the determinant of that leading block mod p (0 if it is singular); the
    trailing block is then its Schur complement."""
    n = len(a)
    det = 1
    for i in range(steps):
        piv = None
        for r in range(i, steps):
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

    The points are counted by their set Z of zero coordinates, never one at
    a time (the point-by-point sweep is oracle.point_count_sweep):

      * every term of Psi holds every loop variable, so the loops factor
        out and the count reduces to the loop-free part;
      * when Z holds a cycle, Psi vanishes on the whole stratum, which is
        counted in closed form as the complement of the forest strata;
      * when Z is a forest, Psi is Psi of the graph with Z contracted.  The
        edges that became loops are free nonzero factors, and Psi vanishes
        exactly when the reduced Laplacian of what is left, weighted by
        1/x, is singular.  1/x permutes F_p^*, and a bundle of k parallel
        edges enters only through its weight sum s, taken by
        c_k(s) = #{w in (F_p^*)^k : sum w = s} weightings;
      * the bundles at two rows of that Laplacian, those joining the
        dropped vertex r to its neighbours a and b and the one joining a
        to b, are settled in closed form: one elimination of the other
        rows per weighting of the other bundles leaves either a 2x2 Schur
        complement (the other rows nonsingular) or a determinant affine in
        the deferred weight sums (singular), and the count over the
        deferred bundles is a table lookup on what it leaves
        (_nonsingular_weightings).

    Forests with the same contraction are gathered first.  The count for
    each contracted graph is an isomorphism invariant (the reduced
    Laplacian's determinant is the weighted spanning-tree sum, whichever
    vertex is dropped), so it is memoized across calls in _STRATUM_MEMO,
    keyed by (canonical form of the contracted multigraph, p); a dict keyed
    by the labelled graph sits in front of it for the call, so a labelled
    repeat costs no canonical form.  Related graphs, such as the
    decompletions of one completed graph, share most of their strata.  The
    eliminations this takes stay far under the p^m points of a sweep (at
    p = 5, C7(1,2) minus a vertex takes 44,066 eliminations of at most 5
    rows for its 5^10 points); the budget still bounds p^m.

    The whole sum over the loop-free part is an isomorphism invariant too,
    and is memoized in _NONVANISHING_MEMO under (canonical form of that
    part, p), so an isomorphic input, such as another decompletion of a
    vertex-transitive completion, costs one canonical form.  The lookup
    comes after the argument, budget and connectivity checks, so a call
    over budget raises even when its class is memoized.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if g.n < 3 or g.edge_count() < 2:
        raise ValueError("point counts need >= 3 vertices and >= 2 edges")
    m = g.edge_count()
    if p ** m > budget:
        raise BudgetExceeded("p^m = %d points exceed the budget %d"
                             % (p ** m, budget))
    if not is_connected(g):
        return p ** m  # no spanning trees: Psi is identically zero
    n_loops = sum(g.loops.values())
    key = (canonical_form(Multigraph(g.n, g.mult)), p)
    nonvanishing = _NONVANISHING_MEMO.get(key)
    if nonvanishing is None:
        nonvanishing = _NONVANISHING_MEMO[key] = _nonvanishing(g.n, g.mult, p)
    return p ** m - (p - 1) ** n_loops * nonvanishing


def _bundle_weights(k, p):
    """[c_k(s) for s in F_p]: the weightings of k parallel edges by F_p^*
    with weight sum s.  They total (p-1)^k, and every s != 0 has the same
    count, which falls short of c_k(0) by (-1)^k (c_0 = [1, 0, ...])."""
    zero = ((p - 1) ** k + (-1) ** k * (p - 1)) // p
    other = ((p - 1) ** k - (-1) ** k) // p
    return [zero] + [other] * (p - 1)


# (canonical form of a contracted stratum graph, p) -> its nonsingular
# weightings, and (canonical form of a point-counted graph's loop-free part,
# p) -> its _nonvanishing count; kept for the life of the process, like
# martin._INVARIANT_MEMO
_STRATUM_MEMO = {}
_NONVANISHING_MEMO = {}


def _stratum_count(nc, bundles, p):
    """_nonsingular_weightings of the loop-free multigraph on nc vertices
    with the given bundles, memoized by isomorphism class and p."""
    if nc == 1:
        return 1
    key = (canonical_form(Multigraph(nc, dict(bundles))), p)
    got = _STRATUM_MEMO.get(key)
    if got is None:
        got = _STRATUM_MEMO[key] = _nonsingular_weightings(nc, bundles, p)
    return got


def _nonvanishing(n, mult, p):
    """Points of F_p^m at which Psi of the connected loop-free multigraph
    (n, mult) is nonzero: a sum over the forests Z of zero coordinates."""
    m = sum(mult.values())
    # vertex -> least vertex of its block, for each partition of the
    # vertices that a forest of zero coordinates induces, with the number
    # of such forests (a bundle of k edges offers k choices)
    forests = {tuple(range(n)): 1}
    for (u, v), k in sorted(mult.items()):
        nxt = dict(forests)
        for block, ways in forests.items():
            a, b = block[u], block[v]
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            merged = tuple(lo if x == hi else x for x in block)
            nxt[merged] = nxt.get(merged, 0) + ways * k
        forests = nxt
    memo = {}
    total = 0
    for block, ways in forests.items():
        index = {}
        for x in block:
            index.setdefault(x, len(index))
        bundles = {}
        for (u, v), k in mult.items():
            a, b = index[block[u]], index[block[v]]
            if a != b:
                e = (a, b) if a < b else (b, a)
                bundles[e] = bundles.get(e, 0) + k
        key = (len(index), tuple(sorted(bundles.items())))
        if key not in memo:
            memo[key] = _stratum_count(key[0], key[1], p)
        loops = m - (n - len(index)) - sum(bundles.values())
        total += ways * (p - 1) ** loops * memo[key]
    return total


def _nonsingular_weightings(nc, bundles, p):
    """Weightings of the edges of the connected loop-free multigraph on
    nc >= 2 vertices by F_p^* whose reduced Laplacian is nonsingular mod p.
    bundles lists ((a, b), k) with a < b.

    At nc = 2 the Laplacian is the one bundle's weight sum s, so the count
    is (p-1)^k - c_k(0).  From nc = 3 on, a vertex r with two distinct
    neighbours a and b is dropped, a triangle r-a-b preferred, and a and b
    take the last two rows.  The bundles (a, r), (b, r) and (a, b), with
    weight sums s_ar, s_br and s_ab, are left out of the enumeration: they
    add only

        E = [[alpha, -gamma], [-gamma, beta]],  alpha = s_ar + s_ab,
                                                beta = s_br + s_ab,
                                                gamma = s_ab

    to the trailing 2x2 block.  With M0 the matrix without them, A its
    leading block and C its cofactors,

        det(M0 + E) = det M0 + alpha C_aa + beta C_bb - 2 gamma C_ab
                      + (alpha beta - gamma^2) det A.

    One elimination of A per weighting of the other bundles settles every
    value of (s_ar, s_br, s_ab):

      * if det A != 0 mod p, det(M0 + E) = det A det(S + E), with S the
        2x2 Schur complement that the elimination leaves;
      * if det A = 0, det(M0 + E) is affine, given by det M0, C_aa, C_bb
        and C_ab.  Where the elimination stopped, the matrix left below
        is a Schur complement whose determinant and cofactors are these
        four times one nonzero factor, so they are taken from it.

    Either way the count over the deferred bundles depends only on those
    values mod p, so it is tabulated once per key, from at most p^3 triples
    of weight sums.  At nc = 3 the leading block is empty and det A = 1."""
    if nc == 2:
        [(_, k)] = bundles
        return (p - 1) ** k - _bundle_weights(k, p)[0]
    size = nc - 1
    mult = dict(bundles)
    nbrs = [set() for _ in range(nc)]
    for u, v in mult:
        nbrs[u].add(v)
        nbrs[v].add(u)
    pairs = [(r, a, b) for r in range(nc)
             for a, b in itertools.combinations(sorted(nbrs[r]), 2)]
    r, a, b = next((t for t in pairs if t[2] in nbrs[t[1]]), pairs[0])
    # matrix index of each vertex, with a and b last and r, dropped, at size
    order = [v for v in range(nc) if v not in (r, a, b)] + [a, b, r]
    pos = {v: i for i, v in enumerate(order)}

    def sums(u, v):
        k = mult.get((min(u, v), max(u, v)), 0)
        return [(s, w) for s, w in enumerate(_bundle_weights(k, p)) if w]

    deferred = {(min(u, v), max(u, v)) for u, v in ((a, r), (b, r), (a, b))}
    others = []
    choices = []
    for (u, v), k in bundles:
        if (u, v) not in deferred:
            others.append((min(pos[u], pos[v]), max(pos[u], pos[v])))
            choices.append(sums(u, v))
    ar_sums, br_sums, ab_sums = sums(a, r), sums(b, r), sums(a, b)

    def deferred_count(key):
        # the deferred weightings at which c0 + alpha c_aa + beta c_bb
        # - 2 gamma c_ab + (alpha beta - gamma^2) d is nonzero
        d, c0, c_aa, c_bb, c_ab = key
        total = 0
        for gamma, w_ab in ab_sums:
            for x, w_ar in ar_sums:
                alpha = x + gamma
                for y, w_br in br_sums:
                    beta = y + gamma
                    if (c0 + alpha * c_aa + beta * c_bb - 2 * gamma * c_ab
                            + (alpha * beta - gamma * gamma) * d) % p:
                        total += w_ab * w_ar * w_br
        return total

    table = {}
    count = 0
    for assignment in itertools.product(*choices):
        lap = [[0] * size for _ in range(size)]
        ways = 1
        for (u, v), (s, w) in zip(others, assignment):
            ways *= w
            lap[u][u] += s
            if v < size:
                lap[v][v] += s
                lap[u][v] -= s
                lap[v][u] -= s
        if _eliminate(lap, size - 2, p):
            # det(S + E) = det S + alpha S_bb + beta S_aa + 2 gamma S_ab
            #              + alpha beta - gamma^2
            s_aa, s_ab, s_bb = lap[-2][-2], lap[-2][-1], lap[-1][-1]
            key = (1, (s_aa * s_bb - s_ab * s_ab) % p, s_bb % p, s_aa % p,
                   -s_ab % p)
        else:
            # the elimination stopped at the first column i without a
            # pivot, so lap[i][i] = 0 below i nonzero pivots, and left t;
            # the minors drop row and column a or b, and C_ab carries the
            # cofactor sign -1
            i = next(j for j in range(size) if not lap[j][j] % p)
            t = [row[i:] for row in lap[i:]]
            n = size - i
            without_b = list(range(n - 1))
            without_a = without_b[:-1] + [n - 1]
            c_aa = _eliminate([[t[x][y] for y in without_a]
                               for x in without_a], n - 1, p)
            c_bb = _eliminate([[t[x][y] for y in without_b]
                               for x in without_b], n - 1, p)
            c_ab = -_eliminate([[t[x][y] for y in without_b]
                                for x in without_a], n - 1, p) % p
            key = (0, _eliminate(t, n, p), c_aa, c_bb, c_ab)
        got = table.get(key)
        if got is None:
            got = table[key] = deferred_count(key)
        count += ways * got
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
    if regular_degree(g) != 4:
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
    if regular_degree(g) != 4:
        raise ValueError("need a 4-regular completion")
    if g.n < 5:
        raise ValueError("need at least 5 vertices")
    if g.loops:
        raise ValueError("need a loop-free graph")
    e = (v, w) if v < w else (w, v)
    if g.mult.get(e, 0) != 1:
        raise ValueError("v and w must be joined by exactly one edge")
    marks = []
    for x, mult in sorted(g.adjacency()[w].items()):
        if x != v:
            marks.extend([x] * mult)
    if len(marks) != 3 or len(set(marks)) != 3:
        raise ValueError("w needs three distinct single-edge neighbours besides v")
    r = p - 1
    h = duplicate(g, r)
    h, lab = induced_subgraph(h, [u for u in range(h.n) if u not in (v, w)])
    a, b, c = (lab[x] for x in marks)
    n_rr = count_tree_forest_partitions(MarkedGraph(h, (a, b), c), r)
    base_edges = h.edge_count() // r
    denom = factorial(r) ** base_edges
    if n_rr % denom:
        raise AssertionError("copy-labelling factor did not divide evenly")
    coeff = n_rr // denom
    return ResidueReport(p, (-coeff) % p,
                         {"method": "trees-forests", "v": v, "w": w,
                          "N": n_rr, "marks": (a, b, c)})
