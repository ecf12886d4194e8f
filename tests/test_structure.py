"""Cut surgery and its interaction with the Martin invariant: edge-cut and
vertex-cut products, twists, decomposition into cyclically-connected factors,
and the decomposability lower bound."""

import itertools
import random

import pytest

from martinpoly import oracle
from martinpoly.families import circulant, complete_graph, cycle, octahedron
from martinpoly.martin import (closed_form_circulant, martin_invariant,
                               martin_sequence)
from martinpoly.multigraph import Multigraph, duplicate, from_edges, \
    is_isomorphic
from martinpoly.structure import (
    EdgeCut,
    _all_cuts,
    _vertices,
    decompose,
    edge_connectivity,
    four_vertex_cuts,
    is_cyclically_connected,
    is_totally_decomposable,
    nontrivial_cuts,
    split_edge_cut,
    split_three_vertex_cut,
    twist,
)

from conftest import (
    chain_k5_c7_octahedron,
    complement_c3_c4,
    five_r_cut,
    generated,
    glued_k5_octahedron,
    k3_113,
    random_18_vertex,
    shuffled_cuts,
    twist_pair_ten_vertex,
)


# ------------------------------------------------------------ edge connectivity


def test_edge_connectivity_values():
    assert edge_connectivity(complete_graph(5)) == 4
    assert edge_connectivity(octahedron()) == 4
    assert edge_connectivity(cycle(6)) == 2
    assert edge_connectivity(duplicate(cycle(4), 2)) == 4
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert edge_connectivity(two_triangles) == 0
    # a loop sinks half the looped vertex's degree
    looped = from_edges(4, [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                            (3, 3)])
    assert edge_connectivity(looped) == 2


def test_cyclic_connectivity_witness():
    # every nontrivial cut of the octahedron and of K5 has size 6
    for g in (octahedron(), complete_graph(5)):
        flag, witness = is_cyclically_connected(g, 6)
        assert flag and witness is None
    flag, witness = is_cyclically_connected(duplicate(cycle(6), 2), 6)
    assert not flag
    assert witness.size == 4  # two adjacent vertices of a doubled cycle
    flag, witness = is_cyclically_connected(circulant(7, (1, 2)), 6)
    assert flag and witness is None
    flag, witness = is_cyclically_connected(complement_c3_c4(), 6)
    assert flag and witness is None
    # no nontrivial cut exists below 4 vertices, whatever the threshold
    for g in (k3_113(), duplicate(cycle(3), 3), Multigraph(2, {(0, 1): 4})):
        assert is_cyclically_connected(g, 100) == (True, None)
    with pytest.raises(ValueError):
        is_cyclically_connected(from_edges(3, [(0, 1), (1, 2)]), 2)


def _pairing_model(n, degree, rng):
    """Random loop-free degree-regular multigraph: pair up the edge ends at
    random, retrying until no pair is a loop."""
    while True:
        ends = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(ends)
        pairs = list(zip(ends[0::2], ends[1::2]))
        if all(a != b for a, b in pairs):
            return from_edges(n, pairs)


def _random_regular_graphs():
    rng = random.Random(2304)
    return [_pairing_model(n, degree, rng)
            for degree in (4, 8) for n in range(9, 15) for _ in range(2)]


def _scanned(g, bound=None):
    """The cuts _all_cuts(g, bound) yields, as side -> size, each once;
    every proper bipartition's when bound is None."""
    if bound is None:
        bound = sum(g.mult.values())
    scanned = {}
    for side, size, count in _all_cuts(g, bound):
        vs = frozenset(_vertices(side))
        assert len(vs) == count
        assert vs not in scanned
        scanned[vs] = size
    return scanned


def _check_cut_scan_against_oracle(g):
    cuts = list(oracle.all_cuts(g))
    expected = dict(cuts)
    assert _scanned(g) == expected
    if g.n < 2:
        return
    lam = min(expected.values())
    assert edge_connectivity(g) == lam
    d = max(g.degrees())
    for bound in (lam - 1, lam, d, d + 2):
        assert _scanned(g, bound) == {
            side: sz for side, sz in cuts if sz <= bound}
    for size in (d, d + 2):
        assert nontrivial_cuts(g, size) == [
            side for side, sz in cuts
            if sz == size and 2 <= len(side) <= g.n - 2]
    if g.n < 4 or len(set(g.degrees())) != 1:
        return
    small = [(sz, len(side), sorted(side)) for side, sz in cuts
             if 2 <= len(side) <= g.n - 2 and sz < d + 2]
    flag, witness = is_cyclically_connected(g, d + 2)
    assert flag == (not small)
    if small:
        # the minimal cut by (size, side size, sorted vertices), whatever
        # order the scan finds them in
        sz, _, vs = min(small)
        assert witness == EdgeCut(frozenset(vs), sz)


def test_cut_scan_matches_oracle_on_small_classes():
    for n in (3, 4, 5, 6):
        for g in generated(n):
            _check_cut_scan_against_oracle(g)


def test_cut_scan_matches_oracle_on_random_regular_graphs():
    for g in _random_regular_graphs():
        _check_cut_scan_against_oracle(g)


def test_edge_connectivity_matches_oracle():
    rng = random.Random(1998)
    for trial in range(60):
        n = rng.randint(5, 12)
        mult = {}
        for v in range(1, n):  # a random spanning tree keeps it connected
            u = rng.randrange(v)
            mult[(u, v)] = rng.randint(1, 3)
        for _ in range(rng.randint(0, 2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            mult[(u, v)] = mult.get((u, v), 0) + rng.randint(1, 3)
        loops = {rng.randrange(n): 1} if trial % 3 == 0 else {}
        g = Multigraph(n, mult, loops)
        assert edge_connectivity(g) == min(
            sz for _, sz in oracle.all_cuts(g))


def _planted_four_cut():
    """18-vertex 4-regular graph with one planted nontrivial 4-cut: two
    copies of C9(1,2), each without the disjoint edges (0, 1) and (4, 5),
    joined through the four freed ends."""
    half = [e for e in circulant(9, (1, 2)).mult if e not in ((0, 1), (4, 5))]
    edges = half + [(a + 9, b + 9) for a, b in half]
    edges += [(v, v + 9) for v in (0, 1, 4, 5)]
    return from_edges(18, edges)


def test_cut_questions_above_sixteen_vertices():
    c17 = circulant(17, (1, 2))
    assert nontrivial_cuts(c17, 4) == []
    assert is_cyclically_connected(c17, 6) == (True, None)
    g = _planted_four_cut()
    assert set(g.degrees()) == {4}
    cuts = list(oracle.all_cuts(g))
    assert nontrivial_cuts(g, 4) == [
        side for side, sz in cuts if sz == 4 and 2 <= len(side) <= 16]
    assert nontrivial_cuts(g, 4) == [frozenset(range(9))]
    small = min((sz, len(side), sorted(side)) for side, sz in cuts
                if 2 <= len(side) <= 16)
    assert is_cyclically_connected(g, 6) == (
        False, EdgeCut(frozenset(small[2]), small[0]))
    assert edge_connectivity(g) == 4


def test_recursion_above_sixteen_vertices():
    for n in range(17, 25):
        assert martin_invariant(circulant(n, (1, 2))) == \
            closed_form_circulant(n)
    g = _planted_four_cut()
    g1, g2 = split_edge_cut(g, EdgeCut(frozenset(range(9)), 4))
    assert martin_invariant(g) == 2 * martin_invariant(g1) * martin_invariant(g2)
    assert martin_invariant(random_18_vertex()) == 1355406


def test_martin_vanishes_exactly_below_full_connectivity():
    for n in (3, 4, 5, 6):
        for g in generated(n):
            m = martin_invariant(g)
            if edge_connectivity(g) < 4:
                assert m == 0
            else:
                assert m > 0


# ------------------------------------------------------------ edge-cut products


def _matched_double(k):
    """Two complete graphs K_{k+2} joined by a perfect matching."""
    n = k + 2
    edges = [(a, b) for a, b in itertools.combinations(range(n), 2)]
    edges += [(a + n, b + n) for a, b in itertools.combinations(range(n), 2)]
    edges += [(i, i + n) for i in range(n)]
    return from_edges(2 * n, edges)


def test_split_edge_cut_product_four_regular():
    g = _matched_double(2)
    assert set(g.degrees()) == {4}
    cuts = nontrivial_cuts(g, 4)
    assert len(cuts) == 1
    g1, g2 = split_edge_cut(g, EdgeCut(cuts[0], 4))
    assert is_isomorphic(g1, complete_graph(5))
    assert is_isomorphic(g2, complete_graph(5))
    assert martin_invariant(g) == 2 * 6 * 6 == 72


def test_split_edge_cut_product_doubled_cycle():
    g = duplicate(cycle(6), 2)
    m = martin_invariant(g)
    assert m == 8
    for side in nontrivial_cuts(g, 4):
        g1, g2 = split_edge_cut(g, EdgeCut(side, 4))
        assert m == 2 * martin_invariant(g1) * martin_invariant(g2)


def test_split_edge_cut_product_six_regular():
    g = _matched_double(4)
    assert set(g.degrees()) == {6}
    cuts = nontrivial_cuts(g, 6)
    assert len(cuts) == 1
    g1, g2 = split_edge_cut(g, EdgeCut(cuts[0], 6))
    assert is_isomorphic(g1, complete_graph(7))
    assert is_isomorphic(g2, complete_graph(7))
    mk7 = martin_invariant(complete_graph(7))
    assert mk7 == 11040
    assert martin_invariant(g) == 6 * mk7 * mk7 == 731289600


def test_split_edge_cut_validation():
    g = _matched_double(2)
    with pytest.raises(ValueError):
        split_edge_cut(g, EdgeCut(frozenset(), 4))
    with pytest.raises(ValueError):
        split_edge_cut(g, EdgeCut(frozenset({0, 1, 2, 3}), 5))


# ------------------------------------------------------- 3-vertex-cut products


def _k5_side_edges():
    side = {(3, 4): 1}
    for c in (0, 1, 2):
        for x in (3, 4):
            side[(c, x)] = 1
    return side


def test_three_vertex_cut_product_two_k5():
    g = five_r_cut()
    a, b = split_three_vertex_cut(g, (0, 1, 2), _k5_side_edges())
    assert is_isomorphic(a, complete_graph(5))
    assert is_isomorphic(b, complete_graph(5))
    assert martin_invariant(g) == 36 == martin_invariant(a) * martin_invariant(b)


def test_three_vertex_cut_product_k5_octahedron():
    g = glued_k5_octahedron()
    a, b = split_three_vertex_cut(g, (0, 1, 2), _k5_side_edges())
    parts = sorted((a, b), key=lambda h: h.n)
    assert is_isomorphic(parts[0], complete_graph(5))
    assert is_isomorphic(parts[1], octahedron())
    assert martin_invariant(g) == 84 == 6 * 14


def test_three_vertex_cut_validation():
    g = five_r_cut()
    with pytest.raises(ValueError):
        split_three_vertex_cut(g, (0, 1, 1), _k5_side_edges())
    with pytest.raises(ValueError):
        split_three_vertex_cut(g, (0, 1, 2), {(3, 4): 7})
    # assigning only part of one side leaves shared non-cut vertices
    with pytest.raises(ValueError):
        split_three_vertex_cut(g, (0, 1, 2), {(3, 4): 1})
    # a zero count, and an irregular graph
    with pytest.raises(ValueError):
        split_three_vertex_cut(g, (0, 1, 2), {(3, 4): 0})
    with pytest.raises(ValueError):
        split_three_vertex_cut(from_edges(3, [(0, 1), (1, 2)]), (0, 1, 2), {})
    # a loop on a cut vertex: 0 trades its edges to 5 and 6 for a loop
    edges = [e for e in five_r_cut().mult if e not in ((0, 5), (0, 6))]
    looped = from_edges(7, edges + [(0, 0), (5, 6)])
    with pytest.raises(ValueError):
        split_three_vertex_cut(looped, (0, 1, 2), _k5_side_edges())
    # an edgeless graph: vertex 3 is on neither side
    with pytest.raises(ValueError):
        split_three_vertex_cut(Multigraph(4), (0, 1, 2), {})
    # K4 is 3-regular: the triangle side sees one edge end at each cut
    # vertex, and (1 + 1 - 1) / 2 is not an integer
    k4 = complete_graph(4)
    with pytest.raises(ValueError):
        split_three_vertex_cut(k4, (0, 1, 2), {(0, 3): 1, (1, 3): 1,
                                               (2, 3): 1})
    # side {3, 4} meets the cut only at 2, by two edges, so the rest's
    # completion needs (0 + 0 - 2) / 2 = -1 edges between 0 and 1
    side = {(2, 3): 1, (2, 4): 1, (3, 4): 3}
    rest = [(0, 1), (0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (2, 5), (2, 6),
            (5, 6)]
    g = from_edges(7, [e for e, m in side.items() for _ in range(m)] + rest)
    assert set(g.degrees()) == {4}
    with pytest.raises(ValueError):
        split_three_vertex_cut(g, (0, 1, 2), side)


def test_three_vertex_cut_puts_loops_with_their_side():
    # 4-regular, cut {0, 1, 2}; side {3, 4} carries the loop at 3, the rest
    # {5, 6} the loop at 5, and the isolated rose 7 touches no side edge
    side = {(3, 4): 1, (0, 3): 1, (0, 4): 1, (1, 4): 1, (2, 4): 1}
    rest = [(5, 6), (1, 5), (1, 6), (0, 6), (2, 6), (0, 2), (1, 2)]
    g = from_edges(8, list(side) + rest + [(3, 3), (5, 5), (7, 7), (7, 7)])
    a, b = split_three_vertex_cut(g, (0, 1, 2), side)
    # completions: n_01 = n_02 = 1 and n_12 = 2 on a, n_01 = n_02 = 1 on b
    assert a == from_edges(5, list(side) + [(3, 3), (0, 1), (0, 2), (1, 2),
                                            (1, 2)])
    assert b == from_edges(6, [(3, 4), (1, 3), (1, 4), (0, 4), (2, 4), (0, 2),
                               (1, 2), (3, 3), (5, 5), (5, 5), (0, 1),
                               (0, 2)])


# ------------------------------------------------------------------------ twist


def test_twist_changes_graph_but_not_martin_sequence():
    g, s, side, sigma = twist_pair_ten_vertex()
    h = twist(g, s, side, sigma)
    assert sorted(h.degrees()) == sorted(g.degrees())
    assert not is_isomorphic(g, h)
    assert martin_invariant(g) == martin_invariant(h) == 524
    assert martin_sequence(g, 3) == martin_sequence(h, 3)


def test_twist_sweep_preserves_martin():
    sigmas = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    for g in (circulant(8, (1, 2)), five_r_cut(), glued_k5_octahedron()):
        m = martin_invariant(g)
        applied = 0
        for s, side in four_vertex_cuts(g):
            for sigma in sigmas:
                try:
                    h = twist(g, s, side, sigma)
                except ValueError:
                    continue
                applied += 1
                assert martin_invariant(h) == m
        assert applied > 0


def test_twist_validation():
    g, s, side, sigma = twist_pair_ten_vertex()
    with pytest.raises(ValueError):
        twist(g, s, side, (0, 1, 2, 3))  # has fixed points
    with pytest.raises(ValueError):
        twist(g, s, side, (1, 2, 3, 0))  # not an involution
    with pytest.raises(ValueError):
        twist(g, (s[0],) * 4, side, sigma)
    bad = dict(side)
    bad[(2, 9)] = 5
    with pytest.raises(ValueError):
        twist(g, s, bad, sigma)
    # side edges that are no sub-multiset: a missing pair, a zero count
    for bad in ({**side, (0, 9): 1}, {**side, (2, 3): 0}):
        with pytest.raises(ValueError):
            twist(g, s, bad, sigma)
    # without (1, 5) the non-cut vertex 1 is on both sides: no 4-cut
    bad = {e: m for e, m in side.items() if e != (1, 5)}
    with pytest.raises(ValueError):
        twist(g, s, bad, sigma)


# ---------------------------------------------------------------- decomposition


def test_decompose_factor_counts():
    for n in (3, 4, 5, 6):
        assert len(decompose(duplicate(cycle(n), 2))) == n - 2
    assert len(decompose(octahedron())) == 1
    assert len(decompose(complete_graph(5))) == 1
    assert len(decompose(_matched_double(2))) == 2
    blocks = (complete_graph(5), circulant(7, (1, 2)), octahedron())
    assert decompose(chain_k5_c7_octahedron()) == tuple(sorted(
        decompose(b)[0] for b in blocks))


def test_decompose_is_order_independent(monkeypatch):
    graphs = [
        duplicate(cycle(6), 2),
        five_r_cut(),
        glued_k5_octahedron(),
        _matched_double(2),
        circulant(8, (1, 2)),
        chain_k5_c7_octahedron(),
    ]
    moved = []
    for g in graphs:
        base = decompose(g)
        for seed in (5, 17, 90):
            moved.append(shuffled_cuts(monkeypatch, seed))
            assert decompose(g) == base
        monkeypatch.undo()
    assert any(map(any, moved))  # a split took a cut other than the first
    # the chain's two cuts give a choice beside the doubled 6-cycle's
    assert any(map(any, moved[-3:]))


def test_totally_decomposable_lower_bound():
    # M >= 2^(n-3) for 4-regular 4-edge-connected graphs, with equality
    # exactly on the totally decomposable ones
    for n in (5, 6):
        seen_equal = seen_strict = False
        for g in generated(n):
            if g.loops or edge_connectivity(g) != 4:
                continue
            m = martin_invariant(g)
            bound = 2 ** (n - 3)
            assert m >= bound
            if m == bound:
                assert is_totally_decomposable(g)
                seen_equal = True
            else:
                assert not is_totally_decomposable(g)
                seen_strict = True
        assert seen_equal and seen_strict


def test_decompose_handles_cycles_and_rejects_low_connectivity():
    # a plain cycle is 2-regular and 2-edge-connected: it shreds to triangles
    assert len(decompose(cycle(5))) == 3
    with pytest.raises(ValueError):
        decompose(from_edges(4, [(0, 1), (0, 1), (0, 1), (0, 1),
                                 (2, 3), (2, 3), (2, 3), (2, 3)]))
    with pytest.raises(ValueError):
        decompose(from_edges(3, [(0, 1), (0, 1), (1, 2), (1, 2)]))
