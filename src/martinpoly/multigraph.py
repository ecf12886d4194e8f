"""Undirected multigraphs with self-loops, and the elementary surgery on them.

Conventions used throughout the package:

  * vertices are the dense integers 0..n-1;
  * ``mult`` maps an unordered pair (u, v), stored with u < v, to a strictly
    positive edge multiplicity;
  * ``loops`` maps a vertex to its self-loop count;
  * degree(v) = sum of incident multiplicities + 2 * loops(v).

Graphs are immutable values: an operation returns a new graph, or its
input when nothing changes.  The canonical form (an isomorphism-invariant
byte string) keys the whole-input memos and the census cache elsewhere, so
it gets the most careful treatment in this module.
"""

from __future__ import annotations

from math import factorial


class Multigraph:
    __slots__ = ("n", "mult", "loops", "_key", "_canon", "_adj", "_order",
                 "_degrees")

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
        self._order = None
        self._degrees = None

    # -- basic queries -------------------------------------------------

    def degrees(self):
        """Per-vertex degree, a loop counting 2; a tuple, kept on the graph."""
        if self._degrees is None:
            d = [2 * self.loops.get(v, 0) for v in range(self.n)]
            for (a, b), m in self.mult.items():
                d[a] += m
                d[b] += m
            self._degrees = tuple(d)
        return self._degrees

    def adjacency(self):
        """Per-vertex dict of neighbor -> multiplicity (loops excluded)."""
        if self._adj is None:
            adj = [dict() for _ in range(self.n)]
            for (a, b), m in self.mult.items():
                adj[a][b] = m
                adj[b][a] = m
            self._adj = adj
        return self._adj

    def edge_count(self):
        """Number of edge instances, loops counted once each."""
        return sum(self.mult.values()) + sum(self.loops.values())

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
        its adjacency encoding under its own labels (see _encode)."""
        if self._key is None:
            self._key = _encode(self, range(self.n))
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


def regular_half_degree(g):
    """k for a 2k-regular graph with k >= 1; ValueError when g is empty or
    irregular, or its degree is zero or odd."""
    d = regular_degree(g)
    if d == 0 or d % 2:
        raise ValueError("need a positive even degree, not %d" % d)
    return d // 2


# -- surgery ----------------------------------------------------------


def duplicate(g, r):
    """Replace every edge (and loop) by r parallel copies.

    When g's canonical form is known, the copy carries it with every entry
    after n multiplied by r.  Scaling every multiplicity and loop count by
    r > 0 keeps the order of the seed partition's (degree, loops) classes
    and of every refinement signature, so canonical_form walks the same
    search tree, finds the same automorphisms and picks the same minimum
    leaf, whose certificate is g's scaled entrywise after n.  The copy also
    carries g's elimination order, if known (see martin._order), which reads
    only which pairs are adjacent.  r = 1 returns g itself, as graphs are
    immutable."""
    if r < 1:
        raise ValueError("duplication factor must be >= 1")
    if r == 1:
        return g
    h = Multigraph(g.n, {e: m * r for e, m in g.mult.items()},
                   {v: c * r for v, c in g.loops.items()})
    if g._canon is not None:
        n, *entries = g._canon.split(b",")
        h._canon = b",".join([n] + [b"%d" % (int(x) * r) for x in entries])
    h._order = g._order
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
    Their summed room, later, goes down the row, each entry taking off the
    next column's.
    D and L are the enumerator's working lists, set afresh on every path to
    a leaf: visit copies what it keeps."""
    m = len(d)
    D = [[0] * m for _ in range(m)]
    L = [0] * m
    rem = list(d) + [0]  # a column m that takes nothing ends every row

    def row(i):
        if i == m:
            visit(D, L)
            return
        for nl in range(rem[i] // 2 + 1 if loops else 1):
            L[i] = nl
            entry(i, i + 1, rem[i] - 2 * nl, sum(rem[i + 2:]))

    def entry(i, j, left, later):
        if j == m:
            if left == 0:
                row(i + 1)
            return
        room = rem[j]
        low = left - later if left > later else 0
        after = later - rem[j + 1]
        for t in range(low, (room if room < left else left) + 1):
            D[i][j] = D[j][i] = t
            rem[j] = room - t
            entry(i, j + 1, left - t, after)
        rem[j] = room

    row(0)


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


# -- the transition step, the tests' reference for martin._eliminate -----


def _pivot_adjacency(g, v):
    """The neighbour -> multiplicity dict of v, a loop-free vertex of g."""
    if not 0 <= v < g.n:
        raise ValueError("pivot out of range: %r" % (v,))
    if g.loops.get(v, 0):
        raise ValueError("pivot has a self-loop")
    return g.adjacency()[v]


def transition_classes(g, v, loops=True):
    """The transition classes at the pivot v as (D, L, coeff) triples (see
    _classes), indexed by v's neighbours in increasing order: all of them,
    or with loops unset only the loop-free ones."""
    adj = _pivot_adjacency(g, v)
    d = tuple(adj[w] for w in sorted(adj))
    if sum(d) % 2:
        raise ValueError("pivot has odd degree")
    return _classes(d, loops)


def apply_transition(g, v, D, L=None):
    """Remove the pivot v and rewire: D[i][j] new edges between its i-th and
    j-th neighbours (in increasing order), and L[i] new self-loops at the
    i-th.  D must be symmetric with a zero diagonal, D and L nonnegative,
    and row i must use the i-th neighbour's multiplicity exactly.  Every
    vertex u > v becomes u - 1, and the child's edges and loops keep the
    order of g's, as induced_subgraph would give them, the new ones after."""
    adj = _pivot_adjacency(g, v)
    nbrs = sorted(adj)
    m = len(nbrs)
    L = L or (0,) * m
    if len(D) != m or len(L) != m or any(
            len(D[i]) != m or D[i][i] or L[i] < 0
            or sum(D[i]) + 2 * L[i] != adj[nbrs[i]]
            or any(D[i][j] < 0 or D[i][j] != D[j][i] for j in range(i))
            for i in range(m)):
        raise ValueError("invalid transition matrix for this pivot")
    mult = {(a - (a > v), b - (b > v)): c for (a, b), c in g.mult.items()
            if a != v and b != v}
    loops = {u - (u > v): c for u, c in g.loops.items()}
    new = [u - (u > v) for u in nbrs]
    for i in range(m):
        a = new[i]
        if L[i]:
            loops[a] = loops.get(a, 0) + L[i]
        for j in range(i + 1, m):
            if D[i][j]:
                e = (a, new[j])
                mult[e] = mult.get(e, 0) + D[i][j]
    return Multigraph(g.n - 1, mult, loops)


# -- canonical form ----------------------------------------------------
#
# Individualization-refinement with automorphism pruning.  The certificate is
# the minimum, over the leaves of the (pruned) search tree, of the adjacency
# encoding under the leaf's labeling.  Pruning only ever skips branches whose
# leaf certificates provably duplicate an explored sibling's, so the minimum
# is intact.  Correctness here is what keeps the memo caches sound; the test
# suite hammers it with random relabelings.


def _refine(adj, cells):
    """Stabilize an ordered partition under neighborhood multiplicity counts.

    The first cell whose vertices do not all have one signature splits into
    the classes of equal signature, in increasing signature order, each
    keeping its vertices in cell order, and the scan starts again.  A cell is
    named by its start s, the position of its first vertex in the partition;
    a split renames only the vertices of the cell it splits.  A vertex's
    signature is one flat tuple listing, in increasing start s over the
    cells it has neighbours in, -s, its number of neighbours in that cell
    and their sorted multiplicities, so it costs the vertex's own adjacency,
    not n.

    It sorts and ties exactly as the dense signature, one sorted length-|C|
    list of multiplicities per cell C, zeros included, would.  Within one
    cell that list is zeros followed by the sorted nonzero multiplicities:
    more neighbours in the cell compare larger, and equal counts compare by
    the multiplicities.  Where two vertices agree on every earlier cell, the
    one with neighbours in a cell the other has none in compares larger,
    hence -s; the start increases strictly with the cell's index, so -s
    orders as the index would.  The count comes before the multiplicities,
    so two flat signatures that agree up to a count list equally many
    multiplicities after it, and the next -s of one meets the next -s of
    the other: flat signatures compare and tie exactly as the per-cell
    entries (-s, count, multiplicities) would in a tuple of them.  So the
    ordered partitions, and with them the search tree, the automorphisms
    found and the key bytes, are the dense signature's."""
    where = [0] * len(adj)
    start = 0
    for cell in cells:
        for v in cell:
            where[v] = start
        start += len(cell)
    while True:
        end = 0
        for ci, cell in enumerate(cells):
            start, end = end, end + len(cell)
            if len(cell) == 1:
                continue
            sigs = {}
            for v in cell:
                sig = []
                last = -1
                for s, m in sorted([(where[u], m) for u, m in adj[v].items()]):
                    if s != last:
                        last = s
                        at = len(sig) + 1
                        sig += (-s, 0)
                    sig[at] += 1
                    sig.append(m)
                sigs.setdefault(tuple(sig), []).append(v)
            if len(sigs) > 1:
                parts = [sigs[k] for k in sorted(sigs)]
                cells[ci:ci + 1] = parts
                for part in parts:
                    for v in part:
                        where[v] = start
                    start += len(part)
                break
        else:
            return cells


def _encode(g, at):
    """Adjacency encoding of g under the labelling at (at[vertex] =
    position): n, the loop count at every position, then the upper triangle
    of the multiplicity matrix row by row, so the pair of positions i < j
    sits at index n + i(2n - i - 1)/2 + j - i.  It is bytes when n and every
    count are below 256 and a tuple of the same entries otherwise.  Bytes
    compare as the sequences of their values and all encodings of one graph
    have one length and one form, so two encodings of a graph compare and
    tie exactly as their entry sequences do."""
    n = g.n
    out = [0] * (1 + n + n * (n - 1) // 2)
    out[0] = n
    for v, c in g.loops.items():
        out[1 + at[v]] = c
    for (u, v), m in g.mult.items():
        i, j = at[u], at[v]
        if i > j:
            i, j = j, i
        out[n + i * (2 * n - i - 1) // 2 + j - i] = m
    return bytes(out) if max(out) < 256 else tuple(out)


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
    adj = g.adjacency()
    # seed the partition with (degree, loop count) classes
    seed = {}
    degs = g.degrees()
    for v in range(n):
        seed.setdefault((degs[v], g.loops.get(v, 0)), []).append(v)
    cells = [seed[k] for k in sorted(seed)]
    cells = _refine(adj, cells)

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
            # sorting the positions by their vertex inverts lab
            cert = _encode(g, sorted(range(n), key=lab.__getitem__))
            prev = leaf_by_cert.get(cert)
            if prev is None:
                leaf_by_cert[cert] = lab
            else:
                # two labelings with one certificate yield an automorphism
                p = [0] * n
                for i in range(n):
                    p[prev[i]] = lab[i]
                gens.append(tuple(p))
            return
        cell = cells[target]
        # a refined cell whose vertices have no neighbours holds only such
        # vertices, with one loop count, so every permutation of it is an
        # automorphism: its first vertex's branch holds the minimum leaf
        explore = cell if adj[cell[0]] else cell[:1]
        reps, reps_gens = None, 0
        for v in explore:
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
    g._canon = ",".join(map(str, min(leaf_by_cert))).encode()
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
