"""Brute-force counting oracles: spanning-tree partitions, tree/forest
partitions of marked graphs, diagonal coefficients, transition-system
enumeration, and Kirchhoff evaluations."""

import random
from math import factorial

import pytest

from martinpoly.families import (
    complete_graph,
    cycle,
    dipole,
    octahedron,
    regular_multigraphs,
    rose,
    wheel,
)
from martinpoly.martin import martin_invariant, martin_polynomial
from martinpoly.multigraph import (
    apply_transition,
    delete_vertex,
    duplicate,
    from_edges,
    induced_subgraph,
    transition_classes,
)
from martinpoly.oracle import (
    BudgetExceeded,
    MarkedGraph,
    count_tree_forest_partitions,
    count_tree_partitions,
    diagonal_coefficient,
    invariant_from_polynomial,
    kirchhoff_evaluate,
    martin_brute_force,
    spanning_trees,
    spanning_two_forests,
)

from conftest import eight_regular_six_vertex, generated, k3_113


# ------------------------------------------------------------- spanning trees


def test_spanning_tree_counts():
    assert len(spanning_trees(complete_graph(4))) == 16
    assert len(spanning_trees(complete_graph(5))) == 125
    assert len(spanning_trees(octahedron())) == 384
    assert len(spanning_trees(cycle(4))) == 4
    # every copy of a multi-edge counts separately
    assert len(spanning_trees(duplicate(cycle(3), 2))) == 12
    # disconnected graphs are rejected
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    with pytest.raises(ValueError):
        spanning_trees(two_triangles)


def test_spanning_two_forests_triangle():
    g = cycle(3)
    # the only 2-forest separating {0,1} from {2} is the single edge 01
    forests = spanning_two_forests(g, 0, 1, 2)
    assert len(forests) == 1
    (f,) = forests
    assert f == frozenset({(0, 1, 0)})
    assert len(spanning_two_forests(duplicate(g, 2), 0, 1, 2)) == 2


# --------------------------------------------------------- tree partitions N_k


def test_tree_partition_small_values():
    assert count_tree_partitions(complete_graph(4), 2, ordered=False) == 6
    assert count_tree_partitions(complete_graph(4), 2, ordered=True) == 12
    for k in (2, 3, 4):
        assert count_tree_partitions(dipole(k), k, ordered=True) == factorial(k)
        assert count_tree_partitions(dipole(k), k, ordered=False) == 1
    # loops can never sit inside a spanning tree
    assert count_tree_partitions(k3_113(), 2) == 0
    # wrong edge total
    assert count_tree_partitions(cycle(4), 2) == 0


def test_tree_partitions_equal_martin_for_every_deleted_vertex():
    g = octahedron()
    m = martin_invariant(g)
    assert m == 14
    for v in range(g.n):
        h = delete_vertex(g, v)
        assert count_tree_partitions(h, 2, ordered=True) == 2 * m
        assert count_tree_partitions(h, 2, ordered=False) == m


def test_tree_partitions_equal_martin_four_regular():
    # ordered partitions of any decompletion into 2 trees = 2! * M
    for n in (3, 4, 5, 6):
        for g in generated(n):
            expect = 2 * martin_invariant(g)
            assert count_tree_partitions(delete_vertex(g, 0), 2) == expect


def test_tree_partitions_equal_martin_six_regular():
    for n in (3, 4, 5):
        for g in generated(n, degree=6):
            expect = 6 * martin_invariant(g)
            assert count_tree_partitions(delete_vertex(g, 0), 3) == expect
    for g in generated(6, degree=6, loops=False):
        expect = 6 * martin_invariant(g)
        assert count_tree_partitions(delete_vertex(g, 0), 3) == expect


def _random_four_regular(n, rng):
    """Pairing-model 4-regular multigraph without loops (rejection sampled)."""
    while True:
        halves = [v for v in range(n) for _ in range(4)]
        rng.shuffle(halves)
        edges = list(zip(halves[0::2], halves[1::2]))
        if all(u != v for u, v in edges):
            return from_edges(n, edges)


def test_tree_partitions_equal_martin_sampled_eight_vertex():
    rng = random.Random(1803)
    for _ in range(8):
        g = _random_four_regular(8, rng)
        expect = 2 * martin_invariant(g)
        assert count_tree_partitions(delete_vertex(g, 0), 2) == expect


# --------------------------------------------- marked tree/forest partitions


def _triangle_marked(n12, n13, n23):
    edges = [(0, 1)] * n12 + [(0, 2)] * n13 + [(1, 2)] * n23
    return MarkedGraph(from_edges(3, edges), (0, 1), 2)


def _closed_form(r, n12, n13, n23):
    # trees on 3 vertices pair one {pair}-edge with one other edge, or use
    # both non-pair edges; forests are single pair-edges
    a, b, c = r - n23, r - n13, 2 * r - n12
    if min(a, b, c) < 0 or n12 < r:
        return 0
    return (
        factorial(r)
        * factorial(n12)
        * factorial(n13)
        * factorial(n23)
        // (factorial(a) * factorial(b) * factorial(c))
    )


def test_marked_partitions_match_closed_form_on_three_vertices():
    for r in (1, 2):
        for n12 in range(3 * r + 1):
            for n13 in range(3 * r + 1 - n12):
                n23 = 3 * r - n12 - n13
                got = count_tree_forest_partitions(
                    _triangle_marked(n12, n13, n23), r
                )
                assert got == _closed_form(r, n12, n13, n23)


def test_marked_partitions_reject_bad_input():
    with pytest.raises(ValueError):
        MarkedGraph(cycle(3), (0, 1), 1)
    with pytest.raises(ValueError):
        MarkedGraph(cycle(3), (0, 1), 5)
    with pytest.raises(ValueError):
        count_tree_forest_partitions(_triangle_marked(1, 1, 1), 0)
    # wrong edge total is a clean zero
    assert count_tree_forest_partitions(_triangle_marked(1, 1, 1), 2) == 0


def _marked_decompletion(g, v, w, marks, r):
    h, lab = induced_subgraph(g, [u for u in range(g.n) if u not in (v, w)])
    a, b, c = (lab[x] for x in marks)
    return count_tree_forest_partitions(MarkedGraph(h, (a, b), c), r)


def test_marked_partition_anchors():
    # two 8-regular completions on six vertices, marks on the three common
    # neighbours of the removed pair
    g = eight_regular_six_vertex(0, 2, 2)
    gp = eight_regular_six_vertex(1, 1, 2)
    assert _marked_decompletion(g, 0, 1, (2, 3, 4), 2) == 32
    assert _marked_decompletion(gp, 0, 1, (2, 3, 4), 2) == 224
    assert martin_invariant(g) == 84096
    assert martin_invariant(gp) == 97920
    assert (9 * 32 - 84096) % 27 == 0
    assert (9 * 224 - 97920) % 27 == 0


def test_marked_partition_residue_ignores_mark_roles():
    # the count itself depends on which mark is the single one, but its
    # residue mod 3 does not
    for args in ((0, 2, 2), (1, 1, 2)):
        g = eight_regular_six_vertex(*args)
        vals = [
            _marked_decompletion(g, 0, 1, marks, 2)
            for marks in ((2, 3, 4), (2, 4, 3), (3, 4, 2))
        ]
        assert len({v % 3 for v in vals}) == 1


def test_marked_partition_martin_recurrence():
    # expanding the completion at the unmarked extra vertex preserves the
    # marked partition count exactly: N(H) = sum coeff * N(H_D)
    cases = [
        (octahedron(), 0, 1, (2, 4, 5), 3, 1),
        (eight_regular_six_vertex(0, 2, 2), 0, 1, (2, 3, 4), 5, 2),
        (eight_regular_six_vertex(1, 1, 2), 0, 1, (2, 3, 4), 5, 2),
    ]
    for g, v, w, marks, u, r in cases:
        lhs = _marked_decompletion(g, v, w, marks, r)
        assert lhs > 0
        sh = lambda x: x if x < u else x - 1
        total = 0
        for D, _, coeff in transition_classes(g, u, loops=False):
            gd = apply_transition(g, u, D)
            total += coeff * _marked_decompletion(
                gd, sh(v), sh(w), [sh(x) for x in marks], r
            )
        assert total == lhs


def test_marked_partition_complete_graph_base():
    # removing two adjacent vertices from K5 leaves a triangle: one ordered
    # partition into one tree and one separating forest
    assert _marked_decompletion(complete_graph(5), 0, 1, (2, 3, 4), 1) == 1


# -------------------------------------------------------- diagonal coefficients


def test_diagonal_coefficient_dipole_formula():
    # lists of k*r one-edge trees using each of the k edges r times
    for k in (2, 3, 4):
        for r in (1, 2, 3):
            got = diagonal_coefficient(dipole(k), k, r)
            assert got == factorial(k * r) // factorial(r) ** k


def test_diagonal_coefficient_recovers_martin_powers():
    cases = [
        (complete_graph(5), 1, 12, 6),
        (complete_graph(5), 2, 756, 2016),
        (octahedron(), 1, 28, 14),
        (octahedron(), 2, 7884, 84096),
    ]
    k = 2
    for g, r, diag, m_power in cases:
        h = delete_vertex(g, 0)
        c = diagonal_coefficient(h, k, r)
        assert c == diag
        assert martin_invariant(duplicate(g, r)) == m_power
        assert m_power * factorial(k * r) == c * factorial(r) ** (k * (g.n - 2))


def test_diagonal_coefficient_guards():
    assert diagonal_coefficient(cycle(4), 2, 1) == 0  # wrong edge count
    assert diagonal_coefficient(k3_113(), 2, 1) == 0  # loops
    assert diagonal_coefficient(complete_graph(4), 2, 1) == 12


# ------------------------------------------------------ brute-force transitions


def test_martin_brute_force_agrees_with_recursion():
    for n in (3, 4, 5):
        for g in generated(n):
            assert martin_brute_force(g).polynomial == martin_polynomial(g)
    for g in generated(3, degree=6):
        assert martin_brute_force(g).polynomial == martin_polynomial(g)
    rng = random.Random(1804)
    for g in rng.sample(generated(4, degree=6), 10):
        assert martin_brute_force(g).polynomial == martin_polynomial(g)
    for g in (octahedron(), duplicate(cycle(6), 2)):
        value = martin_brute_force(g)
        assert value.polynomial == martin_polynomial(g)
        assert value.invariant == martin_invariant(g)


def test_martin_brute_force_mixed_even_degrees():
    # degrees 2 and 4 mixed: the polynomial exists, the invariant does not
    g = from_edges(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    value = martin_brute_force(g)
    assert value.polynomial == martin_polynomial(g)
    assert value.invariant is None
    for n in (3, 4, 5, 6):
        assert martin_brute_force(cycle(n)).polynomial == (1,)


def test_martin_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        martin_brute_force(octahedron(), budget=10)
    with pytest.raises(BudgetExceeded):
        martin_brute_force(complete_graph(9))  # 105^9 systems: refuse fast


def test_invariant_from_polynomial():
    assert invariant_from_polynomial((0, 36, 15), complete_graph(5)) == 6
    assert invariant_from_polynomial((1,), cycle(5)) == 1
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert invariant_from_polynomial(martin_brute_force(two_triangles),
                                     two_triangles) == 0
    # not regular: no normalized invariant
    g = from_edges(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    assert invariant_from_polynomial(martin_brute_force(g), g) is None


# --------------------------------------------------------- kirchhoff evaluation


def test_kirchhoff_all_ones_counts_trees():
    for g in (complete_graph(4), complete_graph(5), octahedron(),
              duplicate(cycle(3), 2), k3_113()):
        ones = [1] * g.edge_count()
        n_trees = len(spanning_trees(g))
        assert kirchhoff_evaluate(g, ones, variant="trees") == n_trees
        assert kirchhoff_evaluate(g, ones, variant="complements") == n_trees


def test_kirchhoff_matches_explicit_sums():
    rng = random.Random(1805)
    for g in (complete_graph(4), duplicate(cycle(3), 2), wheel(4)):
        inst = g.edge_instances()
        pos = {e: i for i, e in enumerate(inst)}
        for _ in range(5):
            x = [rng.randrange(-3, 4) for _ in inst]
            trees = spanning_trees(g)
            direct_in = 0
            direct_out = 0
            for t in trees:
                prod_in = 1
                for e in t:
                    prod_in *= x[pos[e]]
                prod_out = 1
                in_t = set(t)
                for e in inst:
                    if e not in in_t:
                        prod_out *= x[pos[e]]
                direct_in += prod_in
                direct_out += prod_out
            assert kirchhoff_evaluate(g, x, variant="trees") == direct_in
            assert kirchhoff_evaluate(g, x, variant="complements") == direct_out


def test_kirchhoff_loop_values_scale_complements():
    g = k3_113()
    x = [2] * g.edge_count()
    base = from_edges(3, [(0, 1)] * 3 + [(0, 2), (1, 2)])
    y = [2] * base.edge_count()
    t = kirchhoff_evaluate(base, y, variant="complements")
    # the loop contributes a factor to every complement product
    assert kirchhoff_evaluate(g, x, variant="complements") == 2 * t
    with pytest.raises(ValueError):
        kirchhoff_evaluate(g, [1], variant="trees")


def test_kirchhoff_disconnected_is_zero():
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    x = [1] * 6
    assert kirchhoff_evaluate(two_triangles, x, variant="trees") == 0
    assert kirchhoff_evaluate(two_triangles, x, variant="complements") == 0
