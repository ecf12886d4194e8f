"""Connectivity and cut surgery: minimum edge cuts, cyclic connectivity,
cut splitting, decomposition into cyclically-connected factors, 3-vertex-cut
splitting with completion, and the 4-cut twist.

Every cut question is answered by one bounded enumerator, `_all_cuts`,
which yields the bipartitions whose cut is at most a given size and prunes
the rest by branch and bound.  It has no vertex limit: the work grows with
the number of small cuts and near-cuts, not with 2^n."""

from __future__ import annotations

import itertools
from collections import namedtuple

from .multigraph import (Multigraph, canonical_form, connected_components,
                         induced_subgraph, regular_degree)

EdgeCut = namedtuple("EdgeCut", ["side", "size"])


def _cut_size(g, side):
    w = 0
    for (u, v), m in g.mult.items():
        if (u in side) != (v in side):
            w += m
    return w


def _all_cuts(g, bound=None):
    """Yield (side, size, count) for each proper bipartition whose cut has
    at most `bound` edges (every one when bound is None): side is a bitmask
    of the vertices on vertex 0's side, count their number, size the cut's
    edge count with multiplicity.  Loops never cross a cut.

    Branch and bound: the vertices join vertex 0's side or the rest in
    breadth-first order from 0.  An unplaced vertex with weights a and b
    into the two placed parts adds at least min(a, b) to the final cut, so
    a partial assignment whose crossing edges plus those minima (its slack)
    exceed the bound has no completion to yield."""
    n = g.n
    if n < 2:
        return
    adj = g.adjacency()
    order, seen = [0], {0}
    for v in order:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                order.append(u)
    order += [v for v in range(n) if v not in seen]
    pos = {v: p for p, v in enumerate(order)}
    # position p's edges to later positions
    later = [[(pos[u], m) for u, m in adj[v].items() if pos[u] > p]
             for p, v in enumerate(order)]
    if bound is None:
        bound = sum(g.mult.values())
    # each position's edge weight into the placed side and into the rest
    ins, out = [0] * n, [0] * n
    for u, m in later[0]:
        ins[u] += m
    full = (1 << n) - 1
    # side, cut size and slack before position p is placed
    sides, sizes, slacks = [1] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    placed = [0] * n  # 0 not yet, 1 on the side, 2 on the rest
    p = 1
    while p:
        if p == n:
            side = sides[n]
            if side != full:
                yield side, sizes[n], side.bit_count()
            p -= 1
            continue
        was = placed[p]
        if was == 2:
            for u, m in later[p]:
                out[u] -= m
            placed[p] = 0
            p -= 1
            continue
        a, b = ins[p], out[p]
        slack = slacks[p] - (a if a < b else b)
        if was:
            # move p from the side to the rest
            placed[p] = 2
            side, size = sides[p], sizes[p] + a
            for u, m in later[p]:
                x, y = ins[u] - m, out[u]
                ins[u], out[u] = x, y + m
                if y < x:
                    slack += min(y + m, x) - y
        else:
            placed[p] = 1
            side, size = sides[p] | 1 << order[p], sizes[p] + b
            for u, m in later[p]:
                x, y = ins[u], out[u]
                ins[u] = x + m
                if x < y:
                    slack += min(x + m, y) - x
        if size + slack <= bound:
            p += 1
            sides[p], sizes[p], slacks[p] = side, size, slack


def _vertices(mask):
    """The vertices of a side bitmask, in increasing order."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def edge_connectivity(g):
    """Minimum edge-cut size over all vertex bipartitions, with multiplicity;
    0 exactly when the graph is disconnected. Loops never cross a cut.  The
    smallest trivial cut bounds the minimum, so the scan needs no larger
    cut."""
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    bound = min(sum(a.values()) for a in g.adjacency())
    return min(size for _, size, _ in _all_cuts(g, bound))


def nontrivial_cuts(g, size):
    """All cuts of exactly the given size with >= 2 vertices on both sides,
    as frozensets containing vertex 0, ordered by side size and then
    lexicographically."""
    out = []
    for side, sz, count in _all_cuts(g, size):
        if sz == size and 2 <= count <= g.n - 2:
            out.append(_vertices(side))
    out.sort(key=lambda vs: (len(vs), vs))
    return [frozenset(vs) for vs in out]


def is_cyclically_connected(g, threshold):
    """Whether every edge cut smaller than the threshold is trivial (isolates
    one vertex).  Returns (flag, witness): witness is the nontrivial EdgeCut
    that is smallest by (size, side size, sorted side vertices) when the
    answer is False, else None."""
    regular_degree(g)  # raises unless g is regular
    if g.n < 4:
        return True, None
    best = min(((sz, count, _vertices(side))
                for side, sz, count in _all_cuts(g, threshold - 1)
                if 2 <= count <= g.n - 2), default=None)
    if best is None:
        return True, None
    size, _, vs = best
    return False, EdgeCut(frozenset(vs), size)


def split_edge_cut(g, cut):
    """Split along an edge cut: each part keeps one side intact and contracts
    the entire other side to a single new vertex absorbing the cut edges."""
    side = set(cut.side)
    if not side or len(side) >= g.n:
        raise ValueError("cut side must be a proper nonempty vertex subset")
    actual = _cut_size(g, side)
    if cut.size != actual:
        raise ValueError("cut size %d does not match the bipartition (%d)"
                         % (cut.size, actual))
    if actual != regular_degree(g):
        raise ValueError("cut size must equal the degree of the regular graph")

    def contract(keep):
        h, lab = induced_subgraph(g, keep)
        w = h.n
        mult = dict(h.mult)
        for (a, b), m in g.mult.items():
            if (a in lab) != (b in lab):
                e = (lab[a] if a in lab else lab[b], w)
                mult[e] = mult.get(e, 0) + m
        return Multigraph(w + 1, mult, h.loops)

    return contract(side), contract(set(range(g.n)) - side)


def _decompose_graphs(g, rng=None):
    d = regular_degree(g)
    if d % 2 or d == 0:
        raise ValueError("decomposition needs even positive degree")
    if g.n < 3:
        raise ValueError("decomposition needs at least 3 vertices")
    if edge_connectivity(g) != d:
        raise ValueError("graph is not %d-edge connected" % d)
    factors = []
    stack = [g]
    while stack:
        h = stack.pop()
        if h.n < 4:
            factors.append(h)
            continue
        cuts = nontrivial_cuts(h, d)
        if not cuts:
            factors.append(h)
            continue
        side = cuts[0] if rng is None else cuts[rng.randrange(len(cuts))]
        h1, h2 = split_edge_cut(h, EdgeCut(side, d))
        stack.append(h1)
        stack.append(h2)
    return factors


def decompose(g, rng=None):
    """Multiset (sorted tuple) of canonical keys of the cyclically-connected
    factors obtained by repeatedly splitting nontrivial minimum cuts.  The
    multiset does not depend on the order of cuts; rng, if given, randomizes
    the order (used to exercise exactly that)."""
    return tuple(sorted(canonical_form(f) for f in _decompose_graphs(g, rng)))


def is_totally_decomposable(g):
    """True when every decomposition factor is a triangle (3 vertices)."""
    return all(f.n == 3 for f in _decompose_graphs(g))


def _split_sides(g, cut, side_edges):
    """Split g's edges at the vertex set cut: side_edges (a dict pair ->
    multiplicity, a sub-multiset of g.mult) on one side, the rest on the
    other.  Returns (e1, v1, e2, v2): each side's edges and vertices, the
    cut included in both; a loop goes with its vertex, to the second side
    when that vertex touches no side edge.  Raises when a vertex outside the
    cut lies on both sides."""
    e1 = {}
    for (a, b), m in side_edges.items():
        e = (a, b) if a < b else (b, a)
        if m <= 0 or g.mult.get(e, 0) < m:
            raise ValueError("side edges must be a sub-multiset of the graph")
        e1[e] = m
    e2 = {e: m - e1.get(e, 0) for e, m in g.mult.items() if m > e1.get(e, 0)}
    v1, v2 = set(cut), set(cut)
    for vs, edges in ((v1, e1), (v2, e2)):
        for e in edges:
            vs.update(e)
    v2.update(v for v in g.loops if v not in v1 - set(cut))
    if v1 & v2 != set(cut):
        raise ValueError("a vertex outside the cut lies on both sides")
    return e1, v1, e2, v2


def split_three_vertex_cut(g, cut_vertices, side_edges):
    """Split at a 3-vertex cut.  side_edges assigns one side's edges (a dict
    pair -> multiplicity, a sub-multiset of g.mult); the rest form the other
    side.  Each part is completed to a regular graph by adding n_ij edges
    between the cut vertices, where n_ij is half of (d_i + d_j - d_l) computed
    from the opposite side's degrees at the cut."""
    cut = tuple(cut_vertices)
    if len(set(cut)) != 3:
        raise ValueError("need three distinct cut vertices")
    d = regular_degree(g)
    if any(v in g.loops for v in cut):
        raise ValueError("cut vertices must be loop-free")
    e1, v1, e2, v2 = _split_sides(g, cut, side_edges)
    if v1 | v2 != set(range(g.n)):
        raise ValueError("sides do not cover the graph")

    def build(vs, edges, other_edges):
        ends = {c: 0 for c in cut}
        for (a, b), m in other_edges.items():
            if a in ends:
                ends[a] += m
            if b in ends:
                ends[b] += m
        d1, d2, d3 = (ends[c] for c in cut)
        ns = {(0, 1): (d1 + d2 - d3), (0, 2): (d1 + d3 - d2), (1, 2): (d2 + d3 - d1)}
        h, lab = induced_subgraph(Multigraph(g.n, edges, g.loops), vs)
        mult = dict(h.mult)
        for (i, j), twice_n in ns.items():
            if twice_n % 2:
                raise ValueError("completion counts are not integral")
            n = twice_n // 2
            if n < 0:
                raise ValueError(
                    "negative completion count; the graph cannot be "
                    "%d-edge connected" % d)
            if n:
                x, y = lab[cut[i]], lab[cut[j]]
                e = (x, y) if x < y else (y, x)
                mult[e] = mult.get(e, 0) + n
        return Multigraph(h.n, mult, h.loops)

    return build(v1, e1, e2), build(v2, e2, e1)


def twist(g, s, side_edges, sigma):
    """Twist at a 4-vertex cut: reattach every side edge's endpoints inside
    S = (s0, s1, s2, s3) according to the double transposition sigma (given as
    the image tuple of the four positions).  Requires the side's edge-end
    counts at S to be constant on both sigma-swapped pairs."""
    s = tuple(s)
    if len(set(s)) != 4:
        raise ValueError("S must be four distinct vertices")
    sigma = tuple(sigma)
    if sorted(sigma) != [0, 1, 2, 3] or any(sigma[i] == i for i in range(4)) \
            or any(sigma[sigma[i]] != i for i in range(4)):
        raise ValueError("sigma must be a fixed-point-free involution of 0..3")
    e1, _, mult, _ = _split_sides(g, s, side_edges)
    pos = {v: i for i, v in enumerate(s)}
    ends = [0, 0, 0, 0]
    for (a, b), m in e1.items():
        if a in pos:
            ends[pos[a]] += m
        if b in pos:
            ends[pos[b]] += m
    for i in range(4):
        if ends[i] != ends[sigma[i]]:
            raise ValueError("side degrees at S are not sigma-symmetric")

    def image(v):
        return s[sigma[pos[v]]] if v in pos else v

    # the rest plus the side's image; an image pair may come out reversed,
    # and the constructor adds it to its ordered twin
    for (a, b), m in e1.items():
        e = (image(a), image(b))
        mult[e] = mult.get(e, 0) + m
    return Multigraph(g.n, mult, g.loops)


def four_vertex_cuts(g):
    """Candidate (S, side_edges) pairs for the twist: 4-vertex subsets whose
    removal splits the rest, with one group of components (plus its edges to
    S) as the chosen side.  S-S edges stay on the other side."""
    out = []
    for s in itertools.combinations(range(g.n), 4):
        rest = [v for v in range(g.n) if v not in s]
        if len(rest) < 2:
            continue
        # components of g - S, in g's labels
        comps = [[rest[i] for i in comp] for comp in
                 connected_components(induced_subgraph(g, rest)[0])]
        if len(comps) < 2:
            continue
        for r in range(1, len(comps)):
            for group in itertools.combinations(range(len(comps)), r):
                chosen = {v for gi in group for v in comps[gi]}
                side = {}
                for (a, b), m in g.mult.items():
                    if a in chosen or b in chosen:
                        side[(a, b)] = m
                out.append((s, side))
    return out
