"""Seeded benchmark inputs, written as graph files in the `name: u v u v ...`
format that `martinpoly compute` reads.

Random graphs are deduplicated by isomorphism with networkx, so the inputs
do not depend on the canonical form of the code under test.
"""

import hashlib
import random

import networkx as nx


def circulant_edges(n, jumps=(1, 2)):
    return [(i, (i + j) % n) for j in jumps for i in range(n)]


def octahedron_edges():
    return sorted(nx.octahedral_graph().edges())


def complement_c3_c4_edges():
    """Complement of a disjoint triangle and square on 7 vertices."""
    missing = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}
    return [(a, b) for a in range(7) for b in range(a + 1, 7)
            if (a, b) not in missing]


def _nx_graph(n, edges):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def _invariant(h):
    """Cheap isomorphism invariant that separates most regular graphs,
    where degree sequences and colour refinement cannot."""
    nbrs = {v: set(h[v]) for v in h}
    common = sorted((u in nbrs[v], len(nbrs[u] & nbrs[v]))
                    for u in h for v in h if u < v)
    return h.number_of_nodes(), tuple(common)


class _IsoSet:
    """Graphs kept pairwise non-isomorphic."""

    def __init__(self):
        self.buckets = {}

    def add(self, h):
        bucket = self.buckets.setdefault(_invariant(h), [])
        if any(nx.is_isomorphic(h, x) for x in bucket):
            return False
        bucket.append(h)
        return True


def batch_graphs(rng, circulants, random_counts):
    """[(name, n, edges)]: the two-jump circulants C_n(1,2) for n in
    `circulants`, the octahedron, and random_counts[n] connected random
    simple 4-regular graphs on n vertices, all pairwise non-isomorphic."""
    seen = _IsoSet()
    out = []
    for n in circulants:
        edges = circulant_edges(n)
        seen.add(_nx_graph(n, edges))
        out.append(("c%02d_1_2" % n, n, edges))
    seen.add(_nx_graph(6, octahedron_edges()))
    out.append(("octahedron", 6, octahedron_edges()))
    for n, want in sorted(random_counts.items()):
        found = 0
        for _ in range(200 * want):
            if found == want:
                break
            h = nx.random_regular_graph(4, n, seed=rng.randrange(2 ** 32))
            if nx.is_connected(h) and seen.add(h):
                out.append(("r%02d_%02d" % (n, found), n, sorted(h.edges())))
                found += 1
        if found < want:
            raise RuntimeError("found only %d distinct 4-regular graphs on %d "
                               "vertices" % (found, n))
    return out


def relabelled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for (u, v) in edges]


def write_graph_file(path, graphs):
    """Write [(name, n, edges)] and return the sha256 of the file."""
    text = "".join("%s: %s\n" % (name, " ".join("%d %d" % e for e in edges))
                   for name, _, edges in graphs)
    with open(path, "w") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def make_rng(seed, workload):
    return random.Random("%s:%d" % (workload, seed))
