"""Connectivity and cut surgery: minimum edge cuts, cyclic connectivity,
cut splitting, decomposition into cyclically-connected factors, 3-vertex-cut
splitting with completion, and the 4-cut twist.

Every cut question on at most EXHAUSTIVE_CUT_LIMIT vertices is answered by
one exhaustive scan, `_all_cuts`, which walks the proper bipartitions in
Gray-code order and updates the cut size incrementally.  Above the limit
only the minimum cut value is available (Stoer-Wagner): the recursion's
cut-product shortcut never fires there, and `nontrivial_cuts` and
`is_cyclically_connected` raise."""

from __future__ import annotations

import itertools
from collections import namedtuple

from .multigraph import Multigraph, canonical_form, connected_components, is_connected

EXHAUSTIVE_CUT_LIMIT = 16

EdgeCut = namedtuple("EdgeCut", ["side", "size"])


def _cut_size(g, side):
    w = 0
    for (u, v), m in g.mult.items():
        if (u in side) != (v in side):
            w += m
    return w


def _all_cuts(g):
    """Yield (side, size, count) for each of the 2^(n-1) - 1 proper
    bipartitions: side is a bitmask of the vertices on vertex 0's side,
    count their number, size the cut's edge count with multiplicity.

    The sides come in Gray-code order over vertices 1..n-1, skipping the
    one code that puts every vertex on the side: step s toggles vertex
    (s & -s).bit_length(), so each step changes the cut size by
    deg(v) - 2 * (weight of v's edges into the side), and costs one pass
    over v's distinct neighbours.  Loops never cross a cut."""
    n = g.n
    if n < 2:
        return
    adj = g.adjacency()
    nbrs = [tuple(a.items()) for a in adj]
    deg = [sum(a.values()) for a in adj]
    into = [0] * n
    for u, m in nbrs[0]:
        into[u] += m
    full = (1 << n) - 1
    side, size, count = 1, deg[0], 1
    yield side, size, count
    for s in range(1, 1 << (n - 1)):
        v = (s & -s).bit_length()
        side ^= 1 << v
        if side >> v & 1:
            size += deg[v] - 2 * into[v]
            count += 1
            for u, m in nbrs[v]:
                into[u] += m
        else:
            size -= deg[v] - 2 * into[v]
            count -= 1
            for u, m in nbrs[v]:
                into[u] -= m
        if side != full:
            yield side, size, count


def _vertices(mask):
    """The vertices of a side bitmask, in increasing order."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _stoer_wagner(g):
    """Global min cut weight of a connected weighted graph (maximum adjacency
    order, contracting the last two vertices each phase)."""
    w = {v: {} for v in range(g.n)}
    for (a, b), m in g.mult.items():
        w[a][b] = w[a].get(b, 0) + m
        w[b][a] = w[b].get(a, 0) + m
    vertices = set(range(g.n))
    best = None
    while len(vertices) > 1:
        order = []
        weight_to = {v: 0 for v in vertices}
        remaining = set(vertices)
        while remaining:
            u = max(remaining, key=lambda v: (weight_to[v], -v))
            remaining.discard(u)
            order.append(u)
            for x, m in w[u].items():
                if x in remaining:
                    weight_to[x] += m
        s, t = order[-2], order[-1]
        cut_of_phase = weight_to[t]
        if best is None or cut_of_phase < best:
            best = cut_of_phase
        # merge t into s
        for x, m in w[t].items():
            if x == s:
                continue
            w[s][x] = w[s].get(x, 0) + m
            w[x][s] = w[x].get(s, 0) + m
            del w[x][t]
        w[s].pop(t, None)
        del w[t]
        vertices.discard(t)
    return best


def edge_connectivity(g):
    """Minimum edge-cut size over all vertex bipartitions, with multiplicity;
    0 exactly when the graph is disconnected. Loops never cross a cut.

    Up to EXHAUSTIVE_CUT_LIMIT vertices this is the minimum over the
    Gray-code scan; above it, Stoer-Wagner gives the value alone."""
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    if not is_connected(g):
        return 0
    if g.n <= EXHAUSTIVE_CUT_LIMIT:
        return min(size for _, size, _ in _all_cuts(g))
    return _stoer_wagner(g)


def nontrivial_cuts(g, size):
    """All cuts of exactly the given size with >= 2 vertices on both sides,
    as frozensets containing vertex 0, ordered by side size and then
    lexicographically.  Found by the exhaustive Gray-code scan, so graphs
    above EXHAUSTIVE_CUT_LIMIT vertices raise ValueError."""
    if g.n > EXHAUSTIVE_CUT_LIMIT:
        raise ValueError("nontrivial cut enumeration is exhaustive; graph too big")
    out = []
    for side, sz, count in _all_cuts(g):
        if sz == size and 2 <= count <= g.n - 2:
            out.append(_vertices(side))
    out.sort(key=lambda vs: (len(vs), vs))
    return [frozenset(vs) for vs in out]


def is_cyclically_connected(g, threshold):
    """Whether every edge cut smaller than the threshold is trivial (isolates
    one vertex).  Returns (flag, witness): witness is a minimal nontrivial
    EdgeCut when the answer is False, else None.  The check is the
    exhaustive Gray-code scan, so graphs above EXHAUSTIVE_CUT_LIMIT vertices
    raise ValueError."""
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("cyclic connectivity is defined here for regular graphs")
    if g.n < 4:
        return True, None
    if g.n > EXHAUSTIVE_CUT_LIMIT:
        raise ValueError("cyclic connectivity check is exhaustive; graph too big")
    best_side, best_size = None, threshold
    for side, sz, count in _all_cuts(g):
        if sz < best_size and 2 <= count <= g.n - 2:
            best_side, best_size = side, sz
    if best_side is None:
        return True, None
    return False, EdgeCut(frozenset(_vertices(best_side)), best_size)


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
    degs = set(g.degrees())
    if len(degs) != 1 or actual != next(iter(degs)):
        raise ValueError("cut size must equal the degree of the regular graph")

    def contract(keep):
        keep_sorted = sorted(keep)
        lab = {v: i for i, v in enumerate(keep_sorted)}
        w = len(keep_sorted)
        mult = {}
        for (a, b), m in g.mult.items():
            ina, inb = a in keep, b in keep
            if ina and inb:
                mult[(lab[a], lab[b])] = mult.get((lab[a], lab[b]), 0) + m
            elif ina or inb:
                x = lab[a] if ina else lab[b]
                e = (x, w) if x < w else (w, x)
                mult[e] = mult.get(e, 0) + m
        loops = {lab[v]: c for v, c in g.loops.items() if v in keep}
        return Multigraph(w + 1, mult, loops)

    return contract(side), contract(set(range(g.n)) - side)


def _decompose_graphs(g, rng=None):
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("decomposition needs a regular graph")
    d = next(iter(degs))
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


def split_three_vertex_cut(g, cut_vertices, side_edges):
    """Split at a 3-vertex cut.  side_edges assigns one side's edges (a dict
    pair -> multiplicity, a sub-multiset of g.mult); the rest form the other
    side.  Each part is completed to a regular graph by adding n_ij edges
    between the cut vertices, where n_ij is half of (d_i + d_j - d_l) computed
    from the opposite side's degrees at the cut."""
    cut = tuple(cut_vertices)
    if len(set(cut)) != 3:
        raise ValueError("need three distinct cut vertices")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("3-vertex-cut splitting needs a regular graph")
    d = next(iter(degs))
    if any(v in g.loops for v in cut):
        raise ValueError("cut vertices must be loop-free")
    e1 = {}
    for (a, b), m in side_edges.items():
        e = (a, b) if a < b else (b, a)
        if m <= 0 or g.mult.get(e, 0) < m:
            raise ValueError("side edges must be a sub-multiset of the graph")
        e1[e] = m
    e2 = {}
    for e, m in g.mult.items():
        rest = m - e1.get(e, 0)
        if rest:
            e2[e] = rest
    v1 = set(cut)
    for (a, b) in e1:
        v1.add(a)
        v1.add(b)
    v2 = set(cut)
    for (a, b) in e2:
        v2.add(a)
        v2.add(b)
    for v, c in g.loops.items():
        (v1 if v in v1 - set(cut) else v2).add(v)
    if v1 & v2 != set(cut):
        raise ValueError("sides share vertices beyond the cut")
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
        vs_sorted = sorted(vs)
        lab = {v: i for i, v in enumerate(vs_sorted)}
        mult = {}
        for (a, b), m in edges.items():
            x, y = lab[a], lab[b]
            e = (x, y) if x < y else (y, x)
            mult[e] = mult.get(e, 0) + m
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
        loops = {lab[v]: c for v, c in g.loops.items() if v in vs}
        return Multigraph(len(vs_sorted), mult, loops)

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
    e1 = {}
    for (a, b), m in side_edges.items():
        e = (a, b) if a < b else (b, a)
        if m <= 0 or g.mult.get(e, 0) < m:
            raise ValueError("side edges must be a sub-multiset of the graph")
        e1[e] = m
    sset = set(s)
    inside1 = set()
    inside2 = set()
    for (a, b), m in g.mult.items():
        m1 = e1.get((a, b), 0)
        for v in (a, b):
            if v not in sset:
                if m1:
                    inside1.add(v)
                if m - m1:
                    inside2.add(v)
    if inside1 & inside2:
        raise ValueError("a non-cut vertex touches both sides; S is not a 4-cut")
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

    mult = {}

    def put(a, b, m):
        e = (a, b) if a < b else (b, a)
        mult[e] = mult.get(e, 0) + m

    for (a, b), m in g.mult.items():
        m1 = e1.get((a, b), 0)
        if m - m1:
            put(a, b, m - m1)
        if m1:
            put(image(a), image(b), m1)
    return Multigraph(g.n, mult, dict(g.loops))


def four_vertex_cuts(g):
    """Candidate (S, side_edges) pairs for the twist: 4-vertex subsets whose
    removal splits the rest, with one group of components (plus its edges to
    S) as the chosen side.  S-S edges stay on the other side."""
    out = []
    for s in itertools.combinations(range(g.n), 4):
        sset = set(s)
        rest = [v for v in range(g.n) if v not in sset]
        if len(rest) < 2:
            continue
        # components of g - S
        adj = g.adjacency()
        seen = set()
        comps = []
        for start in rest:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in sset and y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            comps.append(comp)
        if len(comps) < 2:
            continue
        for r in range(1, len(comps)):
            for group in itertools.combinations(range(len(comps)), r):
                chosen = set()
                for gi in group:
                    chosen |= comps[gi]
                side = {}
                for (a, b), m in g.mult.items():
                    if a in chosen or b in chosen:
                        side[(a, b)] = m
                out.append((s, side))
    return out
