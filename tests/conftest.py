"""Shared graph builders, generated-class fixtures, and the acceptance log."""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")))

from martinpoly.families import (circulant, complete_graph, cycle,
                                 four_vertex_regular, octahedron,
                                 regular_multigraphs)
from martinpoly.multigraph import Multigraph, duplicate, from_edges
from martinpoly.structure import nontrivial_cuts


# -- named graphs used across several test modules ----------------------

def dunce_cap():
    """Triangle with one doubled edge; the smallest graph whose point counts
    are p^3 rather than a multiple of p^4."""
    return from_edges(3, [(0, 1), (0, 1), (0, 2), (1, 2)])


def k3_113():
    """4-regular on 3 vertices: a triple edge, two singles, one self-loop."""
    return from_edges(3, [(0, 1)] * 3 + [(0, 2), (1, 2), (2, 2)])


def k4_112():
    """4-regular on 4 vertices with opposite-pair multiplicities 1, 1, 2."""
    return four_vertex_regular(1, 1, 2)


def complement_c3_c4():
    """Complement of a disjoint triangle and square: 4-regular, 7 vertices,
    the cyclically-6-connected one that is not the circulant."""
    missing = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}
    return from_edges(7, [(a, b) for a in range(7) for b in range(a + 1, 7)
                          if (a, b) not in missing])


def five_r_cut():
    """7-vertex 4-regular graph with the 3-vertex cut {0,1,2}: both sides
    complete to K5, so the invariant is 6 * 6 = 36."""
    edges = [(3, 4), (5, 6)]
    for x in (3, 4, 5, 6):
        for c in (0, 1, 2):
            edges.append((c, x))
    return from_edges(7, edges)


def random_12_vertex():
    """networkx.random_regular_graph(4, 12, seed=12), kept as a fixed edge
    list so that no networkx version can change it."""
    return from_edges(12, [
        (0, 3), (0, 5), (0, 7), (0, 10), (1, 4), (1, 8), (1, 9), (1, 10),
        (2, 3), (2, 6), (2, 7), (2, 8), (3, 4), (3, 9), (4, 7), (4, 10),
        (5, 6), (5, 8), (5, 11), (6, 8), (6, 9), (7, 11), (9, 11), (10, 11)])


def cyclically_6_connected_10_vertex():
    """A cyclically 6-connected simple 4-regular graph on 10 vertices, g10
    for short."""
    return from_edges(10, [
        (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (1, 8),
        (2, 4), (2, 5), (2, 9), (3, 4), (3, 9), (4, 8), (5, 6), (5, 7),
        (6, 7), (7, 8), (7, 9), (8, 9)])


def random_18_vertex():
    """networkx.random_regular_graph(4, 18, seed=18), as a fixed edge list."""
    return from_edges(18, [
        (0, 1), (0, 5), (0, 10), (0, 14), (1, 8), (1, 11), (1, 16), (2, 5),
        (2, 8), (2, 10), (2, 12), (3, 6), (3, 9), (3, 12), (3, 17), (4, 11),
        (4, 13), (4, 16), (4, 17), (5, 6), (5, 15), (6, 14), (6, 17), (7, 8),
        (7, 11), (7, 12), (7, 14), (8, 15), (9, 11), (9, 13), (9, 17),
        (10, 14), (10, 15), (12, 13), (13, 16), (15, 16)])


def batch_scale_graphs():
    """C7(1,2)..C18(1,2), plain and doubled, and the fixed 12- and 18-vertex
    graphs: the sizes of the graphs `martinpoly compute` gets in a batch."""
    out = []
    for n in range(7, 19):
        g = circulant(n, (1, 2))
        out += [g, duplicate(g, 2)]
    return out + [random_12_vertex(), random_18_vertex()]


def glued_k5_octahedron():
    """8-vertex 4-regular graph built by gluing K5 and K_{2,2,2} along a
    shared triangle of cut vertices 0,1,2 (the triangle's own edges removed
    from both sides); its invariant is 6 * 14 = 84."""
    edges = [(3, 4)] + [(c, x) for c in (0, 1, 2) for x in (3, 4)]
    parts = {0: 0, 5: 0, 1: 1, 6: 1, 2: 2, 7: 2}
    vs = [0, 1, 2, 5, 6, 7]
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if parts[a] != parts[b] and not (a < 3 and b < 3):
                edges.append((a, b))
    return from_edges(8, edges)


def chain_k5_c7_octahedron():
    """14-vertex 4-regular chain of K5, C7(1,2) and the octahedron: each glue
    deletes one vertex from each of two neighbouring graphs and joins their
    freed edge ends in order.  Its two nontrivial 4-edge cuts have 4 and 9
    vertices on vertex 0's side, so a split has a choice of cut, and it
    decomposes into exactly those three graphs."""
    # (graph, vertex deleted toward the previous graph, toward the next)
    blocks = [(complete_graph(5), None, 4), (circulant(7, (1, 2)), 0, 3),
              (octahedron(), 0, None)]
    edges, ends, offset = [], [], 0
    for g, back, ahead in blocks:
        keep = [v for v in range(g.n) if v not in (back, ahead)]
        label = {v: offset + i for i, v in enumerate(keep)}
        freed = {back: [], ahead: []}
        for u, v, _ in g.edge_instances():
            if u in label and v in label:
                edges.append((label[u], label[v]))
            elif u in label:
                freed[v].append(label[u])
            else:
                freed[u].append(label[v])
        edges += zip(ends, freed[back])
        ends = freed[ahead]
        offset += len(keep)
    return from_edges(offset, edges)


def eight_regular_six_vertex(n12, n13, n23):
    """6-vertex 8-regular graph: w=1 and u=5 each double-edged to {2,3,4,0};
    inner multiplicities n_ij between 2,3,4 and complementary multiplicities
    between those vertices and v=0.  (0,2,2) is the doubled octahedron;
    (1,1,2) is the other isomorphism class with all inner counts <= 2."""
    mult = {}

    def add(a, b, m):
        if m:
            e = (min(a, b), max(a, b))
            mult[e] = mult.get(e, 0) + m

    for x in (2, 3, 4, 0):
        add(1, x, 2)
        add(5, x, 2)
    add(2, 3, n12)
    add(2, 4, n13)
    add(3, 4, n23)
    add(2, 0, n23)
    add(3, 0, n13)
    add(4, 0, n12)
    return Multigraph(6, mult)


def twist_pair_ten_vertex():
    """A 4-regular 10-vertex graph with a 4-vertex cut whose twist is not
    isomorphic to the original; returns (graph, cut, side_edges, sigma)."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 8), (2, 3),
             (2, 7), (2, 9), (3, 5), (3, 9), (4, 5), (4, 6), (4, 7), (5, 9),
             (6, 7), (6, 8), (7, 8), (8, 9)]
    g = from_edges(10, edges)
    side = {(0, 1): 1, (0, 4): 1, (1, 5): 1, (1, 6): 1, (1, 8): 1,
            (4, 5): 1, (4, 6): 1, (4, 7): 1, (6, 7): 1, (6, 8): 1}
    return g, (0, 5, 7, 8), side, (2, 3, 0, 1)


# -- seeded random cut orders --------------------------------------------

def shuffled_cuts(monkeypatch, seed):
    """From here on structure.decompose splits its cuts in a seeded random
    order: nontrivial_cuts returns them shuffled, so the first of its list
    is a random cut.  Returns a list that gets, per split, whether the cut
    taken was not the first of the unshuffled list."""
    rng = random.Random(seed)
    moved = []

    def shuffled(g, size):
        cuts = nontrivial_cuts(g, size)
        out = list(cuts)
        rng.shuffle(out)
        if out:
            moved.append(out[0] != cuts[0])
        return out
    monkeypatch.setattr("martinpoly.structure.nontrivial_cuts", shuffled)
    return moved


# -- generated graph classes, shared across the whole session -----------

_generated = {}


def generated(n, degree=4, loops=True):
    key = (n, degree, loops)
    if key not in _generated:
        _generated[key] = regular_multigraphs(n, degree, loops=loops)
    return _generated[key]


@pytest.fixture(scope="session")
def small_multigraphs():
    """4-regular classes (loops and disconnected included) on 3..6 vertices."""
    return {n: generated(n) for n in range(3, 7)}


@pytest.fixture(scope="session")
def seven_vertex_multigraphs():
    """All 654 4-regular classes on 7 vertices; takes about two minutes."""
    return generated(7)


# -- acceptance check log ------------------------------------------------

class AcceptanceLog:
    def __init__(self):
        self.lines = []

    def record(self, number, label, ok, seconds):
        self.lines.append((number, label, bool(ok), seconds))


_acceptance = AcceptanceLog()


@pytest.fixture(scope="session")
def acceptance():
    return _acceptance


def pytest_terminal_summary(terminalreporter):
    if not _acceptance.lines:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for number, label, ok, seconds in sorted(_acceptance.lines):
        terminalreporter.write_line("ACCEPTANCE %2d %s  %s (%.1fs)" % (
            number, "PASS" if ok else "FAIL", label, seconds))
