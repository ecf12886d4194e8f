"""Undirected multigraphs with self-loops, and the elementary surgery on them.

Conventions used throughout the package:

  * vertices are the dense integers 0..n-1;
  * ``mult`` maps an unordered pair (u, v), stored with u < v, to a strictly
    positive edge multiplicity;
  * ``loops`` maps a vertex to its self-loop count;
  * degree(v) = sum of incident multiplicities + 2 * loops(v).

Graphs are immutable values: every operation returns a new graph.  The
canonical form (an isomorphism-invariant byte string) is what makes the
memoized recursions elsewhere sound, so it gets the most careful treatment
in this module.
"""

from __future__ import annotations

import itertools
from math import factorial


class Multigraph:
    __slots__ = ("n", "mult", "loops", "_key", "_canon", "_adj")

    def __init__(self, n, mult=None, loops=None):
        mult = dict(mult or {})
        loops = dict(loops or {})
        norm = {}
        for (u, v), m in mult.items():
            if u == v:
                raise ValueError("loops belong in the loops map, not mult")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex out of range: (%r, %r)" % (u, v))
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            key = (u, v) if u < v else (v, u)
            norm[key] = norm.get(key, 0) + m
        for v, c in loops.items():
            if not 0 <= v < n:
                raise ValueError("loop vertex out of range: %r" % (v,))
            if c < 0:
                raise ValueError("negative loop count")
        self.n = n
        self.mult = norm
        self.loops = {v: c for v, c in loops.items() if c > 0}
        self._key = None
        self._canon = None
        self._adj = None

    # -- basic queries -------------------------------------------------

    def degree(self, v):
        d = 2 * self.loops.get(v, 0)
        for (a, b), m in self.mult.items():
            if a == v or b == v:
                d += m
        return d

    def degrees(self):
        d = [2 * self.loops.get(v, 0) for v in range(self.n)]
        for (a, b), m in self.mult.items():
            d[a] += m
            d[b] += m
        return d

    def adjacency(self):
        """Per-vertex dict of neighbor -> multiplicity (loops excluded)."""
        if self._adj is None:
            adj = [dict() for _ in range(self.n)]
            for (a, b), m in self.mult.items():
                adj[a][b] = m
                adj[b][a] = m
            self._adj = adj
        return self._adj

    def neighbors(self, v):
        return self.adjacency()[v]

    def edge_count(self):
        """Number of edge instances, loops counted once each."""
        return sum(self.mult.values()) + sum(self.loops.values())

    def has_loops(self):
        return bool(self.loops)

    def edge_instances(self):
        """All edge instances as triples (u, v, i); loops appear as (v, v, i)."""
        out = []
        for (u, v) in sorted(self.mult):
            for i in range(self.mult[(u, v)]):
                out.append((u, v, i))
        for v in sorted(self.loops):
            for i in range(self.loops[v]):
                out.append((v, v, i))
        return out

    def key(self):
        """Hashable identity of the labeled graph (not isomorphism-invariant)."""
        if self._key is None:
            self._key = (self.n, tuple(sorted(self.mult.items())),
                         tuple(sorted(self.loops.items())))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Multigraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Multigraph(n=%d, mult=%r, loops=%r)" % (self.n, self.mult, self.loops)


def from_edges(n, edges):
    """Build a graph from a list of endpoint pairs; repeats add multiplicity,
    a pair (v, v) adds a self-loop."""
    mult = {}
    loops = {}
    for (u, v) in edges:
        if u == v:
            loops[u] = loops.get(u, 0) + 1
        else:
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + 1
    return Multigraph(n, mult, loops)


def relabel(g, perm):
    """Apply a vertex permutation (perm[old] = new)."""
    mult = {}
    for (u, v), m in g.mult.items():
        a, b = perm[u], perm[v]
        mult[(a, b) if a < b else (b, a)] = m
    loops = {perm[v]: c for v, c in g.loops.items()}
    return Multigraph(g.n, mult, loops)


def connected_components(g):
    """Vertex sets of the connected components, each sorted."""
    seen = [False] * g.n
    adj = g.adjacency()
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g):
    return len(connected_components(g)) <= 1


# -- surgery ----------------------------------------------------------


def duplicate(g, r):
    """Replace every edge (and loop) by r parallel copies."""
    if r < 1:
        raise ValueError("duplication factor must be >= 1")
    return Multigraph(g.n, {e: m * r for e, m in g.mult.items()},
                      {v: c * r for v, c in g.loops.items()})


def delete_vertex(g, v, return_map=False):
    """Remove v with its loops and incident edges; labels are compacted.

    With return_map=True also returns the old-label -> new-label dict.
    """
    if not 0 <= v < g.n:
        raise ValueError("unknown vertex %r" % (v,))
    newlab = {}
    for u in range(g.n):
        if u != v:
            newlab[u] = len(newlab)
    mult = {}
    for (a, b), m in g.mult.items():
        if a != v and b != v:
            mult[(newlab[a], newlab[b])] = m
    loops = {newlab[u]: c for u, c in g.loops.items() if u != v}
    h = Multigraph(g.n - 1, mult, loops)
    return (h, newlab) if return_map else h


class TransitionMatrix:
    """A class of transitions at a pivot: neighbors w_1..w_m and a symmetric
    zero-diagonal matrix D whose row sums are the pivot's edge multiplicities."""

    __slots__ = ("neighbors", "D")

    def __init__(self, neighbors, D):
        self.neighbors = tuple(neighbors)
        self.D = tuple(tuple(row) for row in D)

    def __repr__(self):
        return "TransitionMatrix(%r, %r)" % (self.neighbors, self.D)

    def __eq__(self, other):
        return (isinstance(other, TransitionMatrix)
                and self.neighbors == other.neighbors and self.D == other.D)

    def __hash__(self):
        return hash((self.neighbors, self.D))


def _symmetric_matrices(d):
    """Yield symmetric zero-diagonal nonnegative m x m matrices with row sums d."""
    m = len(d)
    D = [[0] * m for _ in range(m)]
    rem = list(d)

    def fill(i):
        if i == m:
            yield tuple(tuple(row) for row in D)
            return
        # choose D[i][j] for j > i; rows < i are already settled
        def assign(j, left):
            if j == m:
                if left == 0:
                    yield from fill(i + 1)
                return
            top = min(left, rem[j])
            for t in range(top + 1):
                D[i][j] = D[j][i] = t
                rem[j] -= t
                yield from assign(j + 1, left - t)
                rem[j] += t
            D[i][j] = D[j][i] = 0

        yield from assign(i + 1, rem[i])

    yield from fill(0)


def enumerate_transition_matrices(g, v):
    """All loop-free transition classes at v with their multiplicities d!/D!.

    Transitions that would pair two parallel edges (creating a self-loop at a
    neighbor) are excluded here; the brute-force oracle and the polynomial
    recursion account for them separately.
    """
    if g.loops.get(v, 0):
        raise ValueError("pivot has a self-loop")
    nbrs = sorted(g.neighbors(v))
    d = [g.neighbors(v)[w] for w in nbrs]
    if sum(d) % 2:
        raise ValueError("pivot has odd degree")
    out = []
    if not nbrs:
        return [(TransitionMatrix((), ()), 1)]
    if len(nbrs) == 1:
        return []  # every pairing joins parallel edges
    num = 1
    for di in d:
        num *= factorial(di)
    m = len(nbrs)
    for D in _symmetric_matrices(d):
        den = 1
        for i in range(m):
            for j in range(i + 1, m):
                den *= factorial(D[i][j])
        out.append((TransitionMatrix(nbrs, D), num // den))
    return out


def transition_classes_with_loops(g, v):
    """Like enumerate_transition_matrices but including loop-producing
    transitions: yields (neighbors, D, L, coefficient) where L[i] counts the
    self-loops created at neighbor i.  Total coefficient mass is (deg(v)-1)!!.
    """
    if g.loops.get(v, 0):
        raise ValueError("pivot has a self-loop")
    nbrs = sorted(g.neighbors(v))
    d = [g.neighbors(v)[w] for w in nbrs]
    if sum(d) % 2:
        raise ValueError("pivot has odd degree")
    m = len(nbrs)
    out = []
    # For each split of d into a loop part 2*L and a matched part d', the
    # matched part pairs across neighbors with the usual d'!/D! count, and the
    # loop part contributes (2L-1)!! internal pairings times the C(d, 2L)
    # ways of choosing which parallel edges self-pair.
    loop_ranges = [range(di // 2 + 1) for di in d]
    for L in itertools.product(*loop_ranges):
        dprime = [d[i] - 2 * L[i] for i in range(m)]
        base = 1
        for i in range(m):
            # choose the 2L self-paired edges and match them up
            c = factorial(d[i]) // (factorial(2 * L[i]) * factorial(dprime[i]))
            base *= c * _double_factorial(2 * L[i] - 1)
        numer = 1
        for di in dprime:
            numer *= factorial(di)
        if m == 1:
            if dprime[0] == 0:
                out.append((tuple(nbrs), ((0,),), L, base))
            continue
        for D in _symmetric_matrices(dprime):
            den = 1
            for i in range(m):
                for j in range(i + 1, m):
                    den *= factorial(D[i][j])
            out.append((tuple(nbrs), D, L, base * numer // den))
    if not nbrs:
        out.append(((), (), (), 1))
    return out


def _double_factorial(k):
    # (-1)!! = 1 by convention
    r = 1
    while k > 1:
        r *= k
        k -= 2
    return r


def apply_transition(g, v, tm, extra_loops=None):
    """Remove the pivot v and rewire per the transition matrix: D_ij new edges
    between neighbors i and j (plus optional self-loops for the oracle path)."""
    nbrs = tm.neighbors
    adj = g.neighbors(v)
    if set(nbrs) != set(adj):
        raise ValueError("transition matrix does not match the pivot's neighbors")
    m = len(nbrs)
    for i in range(m):
        row = sum(tm.D[i][j] for j in range(m) if j != i)
        expect = adj[nbrs[i]] - 2 * (extra_loops[i] if extra_loops else 0)
        if row != expect or any(tm.D[i][i] for i in range(m)):
            raise ValueError("invalid transition matrix for this pivot")
    h, newlab = delete_vertex(g, v, return_map=True)
    mult = dict(h.mult)
    for i in range(m):
        for j in range(i + 1, m):
            if tm.D[i][j]:
                a, b = newlab[nbrs[i]], newlab[nbrs[j]]
                e = (a, b) if a < b else (b, a)
                mult[e] = mult.get(e, 0) + tm.D[i][j]
    loops = dict(h.loops)
    if extra_loops:
        for i in range(m):
            if extra_loops[i]:
                w = newlab[nbrs[i]]
                loops[w] = loops.get(w, 0) + extra_loops[i]
    return Multigraph(h.n, mult, loops)


# -- canonical form ----------------------------------------------------
#
# Individualization-refinement with automorphism pruning.  The certificate is
# the minimum, over the leaves of the (pruned) search tree, of the adjacency
# encoding under the leaf's labeling.  Pruning only ever skips branches whose
# leaf certificates provably duplicate an explored sibling's, so the minimum
# is intact.  Correctness here is what keeps the memo caches sound; the test
# suite hammers it with random relabelings.


def _refine(adj, cells):
    """Stabilize an ordered partition under neighborhood multiplicity counts."""
    while True:
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            sigs = {}
            for v in cell:
                row = adj[v]
                sig = tuple(tuple(sorted(row.get(u, 0) for u in other))
                            for other in cells)
                sigs.setdefault(sig, []).append(v)
            if len(sigs) > 1:
                cells[ci:ci + 1] = [sigs[s] for s in sorted(sigs)]
                break
        else:
            return cells


def _encode(g, lab):
    """Adjacency certificate of g under the labeling lab (lab[pos] = vertex)."""
    pos = {v: i for i, v in enumerate(lab)}
    n = g.n
    cert = [n]
    cert.extend(g.loops.get(lab[i], 0) for i in range(n))
    row = [0] * n
    adj = g.adjacency()
    for i in range(n):
        ai = adj[lab[i]]
        for j in range(i + 1, n):
            row[j] = ai.get(lab[j], 0)
        cert.extend(row[i + 1:])
    return tuple(cert)


def _orbit_reps(vertices, gens, prefix):
    """Group vertices into orbits under the generators that fix the prefix
    pointwise; returns a set of representatives (first in each orbit)."""
    usable = [p for p in gens if all(p[v] == v for v in prefix)]
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vset = set(vertices)
    for p in usable:
        for v in vertices:
            w = p[v]
            if w in vset:
                ra, rb = find(v), find(w)
                if ra != rb:
                    parent[rb] = ra
    reps = set()
    seen = set()
    for v in vertices:  # keep the original order: first member represents
        r = find(v)
        if r not in seen:
            seen.add(r)
            reps.add(v)
    return reps


def canonical_form(g):
    """Isomorphism-invariant byte key (equal iff the multigraphs are isomorphic)."""
    if g._canon is not None:
        return g._canon
    n = g.n
    if n == 0:
        g._canon = b"0"
        return g._canon
    adj = g.adjacency()
    # seed the partition with (degree, loop count) classes
    seed = {}
    degs = g.degrees()
    for v in range(n):
        seed.setdefault((degs[v], g.loops.get(v, 0)), []).append(v)
    cells = [seed[k] for k in sorted(seed)]
    cells = _refine(adj, cells)

    best = [None]
    gens = []
    leaf_by_cert = {}

    def search(cells, prefix):
        target = None
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                target = ci
                break
        if target is None:
            lab = [c[0] for c in cells]
            cert = _encode(g, lab)
            prev = leaf_by_cert.get(cert)
            if prev is None:
                leaf_by_cert[cert] = lab
                if best[0] is None or cert < best[0]:
                    best[0] = cert
            else:
                # two labelings with one certificate yield an automorphism
                p = [0] * n
                for i in range(n):
                    p[prev[i]] = lab[i]
                gens.append(tuple(p))
            return
        cell = cells[target]
        for v in cell:
            # orbits merge as new generators turn up, so recompute each time;
            # a non-representative is equivalent to an earlier explored vertex
            if v not in _orbit_reps(cell, gens, prefix):
                continue
            child = [list(c) for c in cells]
            child[target:target + 1] = [[v], [u for u in cell if u != v]]
            child = _refine(adj, child)
            search(child, prefix + (v,))

    search(cells, ())
    # safety: verify recorded automorphisms really are automorphisms
    for p in gens:
        for (a, b), m in g.mult.items():
            x, y = p[a], p[b]
            e = (x, y) if x < y else (y, x)
            if g.mult.get(e, 0) != m:
                raise AssertionError("recorded automorphism moves an edge")
        for v, c in g.loops.items():
            if g.loops.get(p[v], 0) != c:
                raise AssertionError("recorded automorphism moves a loop")
    g._canon = ",".join(map(str, best[0])).encode()
    return g._canon


def is_isomorphic(g1, g2):
    return canonical_form(g1) == canonical_form(g2)


# -- rotation systems and planar duality --------------------------------
#
# A half-edge is identified by (u, v, i, side) for the i-th copy of the edge
# {u,v} with u <= v; side 0 sits at u and side 1 at v.  Both halves of a
# self-loop sit at its vertex.


def half_edges_at(g, v):
    out = []
    for (a, b), m in sorted(g.mult.items()):
        for i in range(m):
            if a == v:
                out.append((a, b, i, 0))
            if b == v:
                out.append((a, b, i, 1))
    for i in range(g.loops.get(v, 0)):
        out.append((v, v, i, 0))
        out.append((v, v, i, 1))
    return out


def _twin(h):
    u, v, i, side = h
    return (u, v, i, 1 - side)


class RotationSystem:
    """Cyclic order of half-edges around every vertex (a combinatorial embedding)."""

    __slots__ = ("rot",)

    def __init__(self, rot):
        self.rot = {v: tuple(hs) for v, hs in rot.items()}

    def validate(self, g):
        want = {}
        for v in range(g.n):
            want[v] = sorted(half_edges_at(g, v))
        got = {v: sorted(self.rot.get(v, ())) for v in range(g.n)}
        if want != got:
            raise ValueError("rotation system does not cover the half-edges exactly once")

    def successor(self, h):
        u, v, i, side = h
        at = u if side == 0 else v
        cyc = self.rot[at]
        k = cyc.index(h)
        return cyc[(k + 1) % len(cyc)]


def trace_faces(g, rot):
    """Orbits of h -> successor(twin(h)); each orbit is one face boundary."""
    rot.validate(g)
    all_halves = [h for v in range(g.n) for h in half_edges_at(g, v)]
    unseen = set(all_halves)
    faces = []
    for h0 in all_halves:
        if h0 not in unseen:
            continue
        face = []
        h = h0
        while True:
            face.append(h)
            unseen.discard(h)
            h = rot.successor(_twin(h))
            if h == h0:
                break
        faces.append(face)
    return faces


def planar_dual(g, rot):
    """Dual multigraph of a genus-0 embedding, with the induced dual rotation.

    Returns (dual graph, dual rotation system).  Raises if the embedding is
    not planar (Euler count) or the graph is disconnected.
    """
    if g.n == 0 or not is_connected(g):
        raise ValueError("planar dual needs a connected, nonempty graph")
    faces = trace_faces(g, rot)
    V, E, F = g.n, g.edge_count(), len(faces)
    if V - E + F != 2:
        raise ValueError("embedding has genus %d, not planar" % ((2 - V + E - F) // 2,))
    face_of = {}
    for fi, face in enumerate(faces):
        for h in face:
            face_of[h] = fi
    # one dual edge per primal edge instance; a loop when both sides share a face
    pair_count = {}
    dual_side = {}  # primal half-edge -> its dual half-edge id
    mult = {}
    loops = {}
    for (u, v, i) in g.edge_instances():
        h0 = (u, v, i, 0)
        h1 = (u, v, i, 1)
        f0, f1 = face_of[h0], face_of[h1]
        if f0 == f1:
            idx = loops.get(f0, 0)
            loops[f0] = idx + 1
            dual_side[h0] = (f0, f0, idx, 0)
            dual_side[h1] = (f0, f0, idx, 1)
        else:
            a, b = (f0, f1) if f0 < f1 else (f1, f0)
            idx = pair_count.get((a, b), 0)
            pair_count[(a, b)] = idx + 1
            mult[(a, b)] = idx + 1
            dual_side[h0] = (a, b, idx, 0 if f0 == a else 1)
            dual_side[h1] = (a, b, idx, 0 if f1 == a else 1)
    dual = Multigraph(F, mult, loops)
    # walking a face lists the dual half-edges around the dual vertex in order
    drot = {}
    for fi, face in enumerate(faces):
        drot[fi] = tuple(dual_side[h] for h in face)
    return dual, RotationSystem(drot)
