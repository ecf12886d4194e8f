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
from functools import lru_cache
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
        """Hashable identity of the labeled graph (not isomorphism-invariant):
        the bytes n, the loop count of every vertex, then the upper triangle
        of the multiplicity matrix row by row, or a tuple when n or a count
        exceeds 255."""
        if self._key is None:
            n = self.n
            counts = itertools.chain(self.mult.values(), self.loops.values())
            if n < 256 and max(counts, default=0) < 256:
                out = bytearray(1 + n + n * (n - 1) // 2)
                out[0] = n
                for v, c in self.loops.items():
                    out[1 + v] = c
                for (u, v), m in self.mult.items():
                    out[n + u * (2 * n - u - 1) // 2 + v - u] = m
                self._key = bytes(out)
            else:
                self._key = (n, tuple(sorted(self.mult.items())),
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
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the %d vertices" % g.n)
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


def regular_degree(g):
    """The common degree of a regular graph; ValueError when g is empty or
    its degrees differ."""
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("need a nonempty regular graph, not degrees %s"
                         % sorted(degs))
    return degs.pop()


# -- surgery ----------------------------------------------------------


def duplicate(g, r):
    """Replace every edge (and loop) by r parallel copies.

    When g's canonical form is known, the copy carries it with every entry
    after n multiplied by r.  Scaling every multiplicity and loop count by
    r > 0 keeps the order of the seed partition's (degree, loops) classes
    and of every refinement signature, so canonical_form walks the same
    search tree, finds the same automorphisms and picks the same minimum
    leaf, whose certificate is g's scaled entrywise after n."""
    if r < 1:
        raise ValueError("duplication factor must be >= 1")
    h = Multigraph(g.n, {e: m * r for e, m in g.mult.items()},
                   {v: c * r for v, c in g.loops.items()})
    if g._canon is not None:
        n, *entries = g._canon.split(b",")
        h._canon = b",".join([n] + [b"%d" % (int(x) * r) for x in entries])
    return h


def induced_subgraph(g, vertices):
    """The subgraph induced on the given vertices, with its edges and loops,
    relabelled 0..k-1 in increasing order of old label.  Returns the graph
    and the old-label -> new-label dict."""
    lab = {v: i for i, v in enumerate(sorted(vertices))}
    if any(not 0 <= v < g.n for v in lab):
        raise ValueError("vertex out of range")
    mult = {(lab[a], lab[b]): m for (a, b), m in g.mult.items()
            if a in lab and b in lab}
    loops = {lab[v]: c for v, c in g.loops.items() if v in lab}
    return Multigraph(len(lab), mult, loops), lab


def delete_vertex(g, v):
    """Remove v with its loops and incident edges; labels are compacted."""
    if not 0 <= v < g.n:
        raise ValueError("unknown vertex %r" % (v,))
    return induced_subgraph(g, [u for u in range(g.n) if u != v])[0]


def _symmetric_matrices(d, visit, loops=False):
    """Call visit(D, L) once for every symmetric zero-diagonal nonnegative
    m x m matrix D and loop counts L (all zero unless loops is set) with
    sum(D[i]) + 2 L[i] = d[i] for every i.

    The matrix is settled row by row, each row's loop count first and then
    its entries right of the diagonal, every choice in increasing order; an
    entry takes at least what the later columns of its row cannot absorb.
    D and L are the enumerator's working lists, set afresh on every path to
    a leaf: visit copies what it keeps."""
    m = len(d)
    D = [[0] * m for _ in range(m)]
    L = [0] * m
    rem = list(d)

    def row(i):
        if i == m:
            visit(D, L)
            return
        for nl in range(rem[i] // 2 + 1 if loops else 1):
            L[i] = nl
            entry(i, i + 1, rem[i] - 2 * nl)

    def entry(i, j, left):
        if j == m:
            if left == 0:
                row(i + 1)
            return
        for t in range(max(0, left - sum(rem[j + 1:])), min(left, rem[j]) + 1):
            D[i][j] = D[j][i] = t
            rem[j] -= t
            entry(i, j + 1, left - t)
            rem[j] += t

    row(0)


@lru_cache(maxsize=None)
def _classes(d, loops=True):
    """Transition classes at a loop-free pivot whose neighbours, in
    increasing order, have edge multiplicities d: triples (D, L, coeff).

    D is the symmetric zero-diagonal matrix of new edges between neighbours,
    L[i] the self-loops made at neighbour i, and coeff = prod d_i! /
    (prod 2^L_i L_i! * prod_{i<j} D_ij!) the number of pairings of the
    pivot's half-edges in the class; the coefficients sum to (deg - 1)!!.
    Classes come sorted by L, in the enumerator's order within one L.
    With loops unset only the loop-free classes (L = 0) are made, so the
    result is the prefix of the full list that they head."""
    num = 1
    for di in d:
        num *= factorial(di)
    out = []

    def visit(D, L):
        den = 1
        for i, row in enumerate(D):
            den *= 2 ** L[i] * factorial(L[i])
            for x in row[i + 1:]:
                den *= factorial(x)
        out.append((tuple(map(tuple, D)), tuple(L), num // den))

    _symmetric_matrices(d, visit, loops)
    out.sort(key=lambda c: c[1])
    return tuple(out)


def transition_classes(g, v, loops=True):
    """The transition classes at the pivot v as (D, L, coeff) triples (see
    _classes), indexed by v's neighbours in increasing order: all of them,
    or with loops unset only the loop-free ones."""
    if g.loops.get(v, 0):
        raise ValueError("pivot has a self-loop")
    adj = g.neighbors(v)
    d = tuple(adj[w] for w in sorted(adj))
    if sum(d) % 2:
        raise ValueError("pivot has odd degree")
    return _classes(d, loops)


def apply_transition(g, v, D, L=None):
    """Remove the pivot v and rewire: D[i][j] new edges between its i-th and
    j-th neighbours (in increasing order), and L[i] new self-loops at the
    i-th."""
    if g.loops.get(v, 0):
        raise ValueError("pivot has a self-loop")
    adj = g.neighbors(v)
    nbrs = sorted(adj)
    m = len(nbrs)
    L = L or (0,) * m
    if len(D) != m or len(L) != m or any(
            len(D[i]) != m or D[i][i] or sum(D[i]) + 2 * L[i] != adj[nbrs[i]]
            for i in range(m)):
        raise ValueError("invalid transition matrix for this pivot")
    h, lab = induced_subgraph(g, [u for u in range(g.n) if u != v])
    mult = dict(h.mult)
    loops = dict(h.loops)
    for i in range(m):
        a = lab[nbrs[i]]
        if L[i]:
            loops[a] = loops.get(a, 0) + L[i]
        for j in range(i + 1, m):
            if D[i][j]:
                e = (a, lab[nbrs[j]])
                mult[e] = mult.get(e, 0) + D[i][j]
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
        reps, reps_gens = None, 0
        for v in cell:
            # a non-representative is equivalent to an earlier explored
            # vertex; orbits merge only when a generator turns up, and with
            # none every vertex represents itself
            if gens:
                if len(gens) != reps_gens:
                    reps, reps_gens = _orbit_reps(cell, gens, prefix), len(gens)
                if v not in reps:
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
