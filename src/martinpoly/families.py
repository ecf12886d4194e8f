"""Constructors for the graph families that keep showing up: complete graphs,
roses, dipoles, circulants, doubled prisms, wheels and completed wheels;
plus an exhaustive generator of regular multigraphs for the property suites."""

from __future__ import annotations

import itertools

from .multigraph import (Multigraph, _symmetric_matrices, canonical_form,
                         duplicate, from_edges)


def complete_graph(n):
    return from_edges(n, itertools.combinations(range(n), 2))


def rose(k):
    """One vertex carrying k self-loops."""
    return Multigraph(1, {}, {0: k})


def dipole(k):
    """Two vertices joined by k parallel edges."""
    return Multigraph(2, {(0, 1): k})


def cycle(n):
    if n == 1:
        return rose(1)
    if n == 2:
        return dipole(2)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n, jumps):
    """Circulant graph C^n_jumps; a jump of n/2 contributes a single edge."""
    edges = []
    for j in jumps:
        if not 1 <= j <= n // 2:
            raise ValueError("jump %r out of range for n=%d" % (j, n))
        if 2 * j == n:
            edges.extend((i, i + j) for i in range(j))
        else:
            edges.extend((i, (i + j) % n) for i in range(n))
    return from_edges(n, edges)


def prism(ell):
    """The prism over an ell-gon: two concentric cycles joined by rungs."""
    if ell < 3:
        raise ValueError("prism needs ell >= 3")
    edges = []
    for i in range(ell):
        edges.append((i, (i + 1) % ell))
        edges.append((ell + i, ell + (i + 1) % ell))
        edges.append((i, ell + i))
    return from_edges(2 * ell, edges)


def doubled_prism(ell):
    """Every prism edge doubled: a 6-regular graph on 2*ell vertices."""
    return duplicate(prism(ell), 2)


def wheel(spokes):
    """Hub 0 joined to an outer cycle 1..spokes."""
    if spokes < 3:
        raise ValueError("wheel needs >= 3 spokes")
    edges = [(0, i) for i in range(1, spokes + 1)]
    edges += [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return from_edges(spokes + 1, edges)


def octahedron():
    """K_{2,2,2}: the 4-regular planar antiprism on 6 vertices."""
    g = wheel(4)
    edges = [(u, v) for (u, v) in g.mult for _ in range(g.mult[(u, v)])]
    edges += [(5, i) for i in range(1, 5)]
    return from_edges(6, edges)


def four_vertex_regular(a, b, c):
    """Loop-free regular multigraph on 4 vertices: opposite edge pairs carry
    equal multiplicities a, b, c (degree a+b+c everywhere)."""
    mult = {(0, 1): a, (2, 3): a,
            (0, 2): b, (1, 3): b,
            (0, 3): c, (1, 2): c}
    return Multigraph(4, {e: m for e, m in mult.items() if m})


def regular_multigraphs(n, degree, loops=False):
    """All regular multigraphs on n vertices up to isomorphism: each
    multiplicity matrix with row sums `degree` (self-loops included when
    loops is set) from _symmetric_matrices, in its order, keeping the first
    labelled graph of each canonical form.

    Disconnected graphs are included; filter with is_connected if needed."""
    if degree < 0 or n < 1:
        raise ValueError("need n >= 1 and degree >= 0")
    results = []
    seen = set()

    def visit(D, L):
        g = Multigraph(n, {(i, j): D[i][j] for i in range(n)
                           for j in range(i + 1, n) if D[i][j]},
                       dict(enumerate(L)))
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            results.append(g)

    _symmetric_matrices([degree] * n, visit, loops)
    return results
