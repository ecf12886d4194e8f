"""Martin polynomial and invariant: table values, recursion bases, closed
forms, pivot independence, divisibility, and symmetry-factor bridges."""

import random
from fractions import Fraction

import pytest

from martinpoly import martin
from martinpoly.families import (
    circulant,
    complete_graph,
    cycle,
    dipole,
    doubled_prism,
    octahedron,
    rose,
)
from martinpoly.martin import (
    circuit_partition_polynomial,
    closed_form_K5_power,
    closed_form_circulant,
    closed_form_prism,
    martin_invariant,
    martin_polynomial,
    martin_sequence,
    symmetry_factor,
)
from martinpoly.multigraph import (
    apply_transition,
    duplicate,
    from_edges,
    relabel,
    transition_classes,
)
from martinpoly.polynomial import evaluate
from martinpoly.structure import edge_connectivity

from conftest import (
    dunce_cap,
    eight_regular_six_vertex,
    five_r_cut,
    generated,
    k3_113,
    k4_112,
    random_12_vertex,
)


# ------------------------------------------------------------ small polynomials


def test_polynomial_table():
    assert martin_polynomial(rose(2)) == (0, 1)
    assert martin_polynomial(dipole(4)) == (0, 3)
    assert martin_polynomial(duplicate(cycle(3), 2)) == (0, 6, 1)
    assert martin_polynomial(complete_graph(5)) == (0, 36, 15)
    assert martin_polynomial(k4_112()) == (0, 12, 5)
    assert martin_polynomial(k3_113()) == (0, 0, 3)


def test_polynomial_bases():
    # a single vertex with k loops: x(x+2)...(x+2k-4)
    assert martin_polynomial(rose(3)) == (0, 2, 1)
    assert martin_polynomial(rose(4)) == (0, 8, 6, 1)
    # cycles have a single transition system tracing one circuit
    for n in (3, 4, 5, 6):
        assert martin_polynomial(cycle(n)) == (1,)


def test_polynomial_rejects_bad_graphs():
    with pytest.raises(ValueError):
        martin_polynomial(dunce_cap())  # odd degrees
    with pytest.raises(ValueError):
        martin_polynomial(from_edges(2, [(0, 0)]))  # edgeless component


def test_invariant_anchors():
    assert martin_invariant(complete_graph(5)) == 6
    assert martin_invariant(octahedron()) == 14
    assert martin_invariant(duplicate(complete_graph(5), 2)) == 2016
    assert martin_invariant(eight_regular_six_vertex(0, 2, 2)) == 84096
    assert martin_invariant(eight_regular_six_vertex(1, 1, 2)) == 97920


def test_invariant_small_bases():
    assert martin_invariant(rose(2)) == Fraction(1, 6)  # 2^k / (2k)!
    assert martin_invariant(dipole(4)) == Fraction(1, 2)  # 1 / k!
    assert martin_invariant(dipole(6)) == Fraction(1, 6)
    assert martin_invariant(duplicate(cycle(3), 2)) == 1
    assert martin_invariant(cycle(7)) == 1
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert martin_invariant(two_triangles) == 0


def test_big_complete_graph():
    m = martin_invariant(complete_graph(9))
    assert m == 61812979200
    assert m == 2 ** 9 * 3 ** 5 * 5 ** 2 * 7 * 17 * 167


# ------------------------------------------------------------------ closed forms


def test_circulant_closed_form():
    values = [closed_form_circulant(n) for n in range(5, 13)]
    assert values == [6, 14, 34, 78, 178, 398, 882, 1934]
    for n in range(5, 13):
        g = circulant(n, (1, 2))
        assert martin_invariant(g) == closed_form_circulant(n)


def test_prism_closed_form():
    assert [closed_form_prism(l) for l in (2, 3, 4)] == [384, 32768, 2195456]
    for ell in (2, 3, 4):
        g = doubled_prism(ell + 1)
        assert martin_invariant(g) == closed_form_prism(ell)


def test_k5_power_closed_form():
    assert [closed_form_K5_power(r) for r in (1, 2, 3)] == [6, 2016, 5116608]
    for r in (1, 2, 3):
        assert martin_invariant(duplicate(complete_graph(5), r)) == \
            closed_form_K5_power(r)


def test_martin_sequence():
    assert martin_sequence(complete_graph(5), 3) == [6, 2016, 5116608]
    # odd-degree graphs only admit even powers
    assert martin_sequence(complete_graph(4), 4) == [
        martin_invariant(duplicate(complete_graph(4), 2)),
        martin_invariant(duplicate(complete_graph(4), 4)),
    ]
    with pytest.raises(ValueError):
        martin_sequence(complete_graph(5), 0)


def test_pinned_sequence_of_a_random_12_vertex_graph():
    # the values are those of the recursion before k-bundles were split off
    # ahead of the canonical form, which took about 20 s for M(G^[3])
    assert martin_sequence(random_12_vertex(), 3) == [
        4280, 1924469536849920, 7860907058744035326321380818944]


def test_pinned_sequence_of_a_cyclically_6_connected_10_vertex_graph():
    # a cyclically 6-connected simple 4-regular graph; r = 4 is where the
    # loop-making transition classes, which the invariant never expands,
    # outnumber the loop-free ones
    g = from_edges(10, [
        (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (1, 8),
        (2, 4), (2, 5), (2, 9), (3, 4), (3, 9), (4, 8), (5, 6), (5, 7),
        (6, 7), (7, 8), (7, 9), (8, 9)])
    assert martin_sequence(g, 4) == [
        608, 599176249344, 700491754121726949064704,
        89087784161686739313044005450426613760]


# ----------------------------------------------------------- recursion behavior


def _fresh_memos(monkeypatch):
    for name in ("_FRONT", "_INVARIANT_MEMO", "_POLY_MEMO"):
        monkeypatch.setattr(martin, name, {})


def _vertex_zero_pivots(monkeypatch):
    """From here on both recursions expand vertex 0 at every node, with cold
    memos, so no value computed under the default pivots is reused."""
    _fresh_memos(monkeypatch)
    monkeypatch.setattr(martin, "_pick_pivot", lambda g, with_loops: 0)


def test_pivot_policy_independence(monkeypatch):
    rng = random.Random(2026)
    pool = generated(4) + generated(5) + rng.sample(generated(6), 30)
    pool += generated(3, degree=6) + rng.sample(generated(4, degree=6), 15)
    expected = [(martin_polynomial(g), martin_invariant(g)) for g in pool]
    _vertex_zero_pivots(monkeypatch)
    for g, values in zip(pool, expected):
        assert (martin_polynomial(g), martin_invariant(g)) == values, g


def test_unknown_pivot_policy_is_rejected():
    # the recursions take no pivot choice, also where they settle the graph
    # without picking a pivot
    for g in (duplicate(complete_graph(3), 2), dipole(4), k4_112(),
              duplicate(cycle(6), 2), octahedron()):
        with pytest.raises(TypeError):
            martin_invariant(g, "bogus")
    for g in (rose(2), octahedron()):
        with pytest.raises(TypeError):
            martin_polynomial(g, "bogus")


def test_labelled_repeat_computes_no_canonical_form(monkeypatch):
    # the recursion meets a labelled node again through the front, also
    # with the memos cold
    calls = []
    real = martin.canonical_form
    monkeypatch.setattr(martin, "canonical_form",
                        lambda g: calls.append(g) or real(g))
    perm = [3, 7, 0, 8, 2, 5, 1, 6, 4]

    def run():
        g = relabel(circulant(9, (1, 2)), perm)
        return martin_invariant(g), martin_polynomial(g)

    _fresh_memos(monkeypatch)
    first = run()
    assert calls
    for name in ("_INVARIANT_MEMO", "_POLY_MEMO"):
        monkeypatch.setattr(martin, name, {})
    calls.clear()
    assert run() == first
    assert calls == []


def test_front_cold_and_warm_give_the_same_values(monkeypatch):
    # roses and disconnected graphs reach the polynomial's keys with their
    # loops, so a front that confused loop counts would show here
    pool = [g for degree, top in ((4, 5), (6, 4))
            for n in range(1, top + 1) for g in generated(n, degree=degree)]

    def run(g):
        return martin_polynomial(g), martin_invariant(g)

    cold = []
    for g in pool:
        _fresh_memos(monkeypatch)
        cold.append(run(g))
    _fresh_memos(monkeypatch)
    assert [run(g) for g in pool] == cold
    assert [run(g) for g in pool] == cold


def _bundle_across_a_weak_cut():
    """Two copies of K5 less the edges uc and ud, with cd doubled, joined by
    a double edge between the two u's: 4-regular on 10 vertices.  The
    double edges are 2-bundles, and the bundle {u, u'} crosses the 2-edge
    cut between the copies, so M is 0."""
    def block(u, a, b, c, d):
        return [(u, a), (u, b), (a, b), (a, c), (a, d), (b, c), (b, d),
                (c, d), (c, d)]
    return from_edges(10, block(0, 1, 2, 3, 4) + block(5, 6, 7, 8, 9)
                      + [(0, 5), (0, 5)])


def test_derivative_consistency(monkeypatch):
    # the normalized polynomial derivative, a route with no cut or bundle
    # shortcuts, reproduces the reduced invariant recursion under the
    # default pivots and under vertex-0 pivots
    from martinpoly.oracle import invariant_from_polynomial

    pool = [g for n in (3, 4, 5, 6) for g in generated(n)]
    pool += [g for n in (3, 4, 5) for g in generated(n, degree=6)]
    pool += generated(6, degree=6, loops=False)
    pool += [duplicate(g, 2) for n in (3, 4, 5) for g in generated(n)
             if not g.loops]
    pool += [eight_regular_six_vertex(*m)
             for m in ((0, 2, 2), (1, 1, 2), (0, 1, 3))]
    weak = _bundle_across_a_weak_cut()
    assert edge_connectivity(weak) == 2 and max(weak.mult.values()) == 2
    rng = random.Random(7)
    for _ in range(6):
        perm = list(range(weak.n))
        rng.shuffle(perm)
        pool.append(relabel(weak, perm))
    expected = [invariant_from_polynomial(martin_polynomial(g), g)
                for g in pool]
    for g, value in zip(pool, expected):
        assert martin_invariant(g) == value, g
    _vertex_zero_pivots(monkeypatch)
    for g, value in zip(pool, expected):
        assert martin_invariant(g) == value, g


def test_polynomial_divisibility_by_shifted_factors():
    # m of a 2k-regular graph is divisible by x(x+2)...(x+2k-4)
    for g in generated(5):
        m = martin_polynomial(g)
        assert evaluate(m, 0) == 0
    for g in generated(4, degree=6):
        m = martin_polynomial(g)
        assert evaluate(m, 0) == 0
        assert evaluate(m, -2) == 0


def test_expansion_terms_never_exceed_total():
    # M(G) = sum coeff * M(G_D) with nonnegative integer terms
    for g in (octahedron(), circulant(8, (1, 2)), five_r_cut()):
        m = martin_invariant(g)
        total = 0
        for D, _, coeff in transition_classes(g, 0, loops=False):
            md = martin_invariant(apply_transition(g, 0, D))
            assert 0 <= md <= m
            total += coeff * md
        assert total == m


def test_high_multiplicity_forces_divisibility():
    # a doubled edge in a 4-regular graph with >= 6 vertices forces 4 | M
    for g in generated(6):
        if g.mult and max(g.mult.values()) >= 2:
            assert martin_invariant(g) % 4 == 0
    assert martin_invariant(doubled_prism(3)) == 384
    # an edge of multiplicity >= 3 in an 8-regular graph forces 27 | M
    m = martin_invariant(duplicate(cycle(6), 4))
    assert m == 13824 and m % 27 == 0
    m = martin_invariant(eight_regular_six_vertex(0, 1, 3))
    assert m == 55296 and m % 27 == 0


def test_invariant_vanishes_on_loops_and_weak_cuts():
    for n in (4, 5, 6):
        for g in generated(n):
            if g.loops or edge_connectivity(g) < 4:
                assert martin_invariant(g) == 0


# ------------------------------------------------------------- symmetry factors


def test_circuit_partition_polynomial_counts_eulerian_circuits():
    j = circuit_partition_polynomial(complete_graph(5))
    assert j == (0, 132, 96, 15)
    # the linear coefficient counts Eulerian circuits; 132 for this graph
    assert j[1] == evaluate(martin_polynomial(complete_graph(5)), 2)
    assert circuit_partition_polynomial(cycle(4)) == (0, 1)


def test_symmetry_factor_values():
    k5 = complete_graph(5)
    # one field label: every assignment is constant, the factor is 1
    assert symmetry_factor(k5, 1) == 1
    assert symmetry_factor(duplicate(cycle(3), 2), 1) == 1
    # the decompleted factor at N = -2 recovers the invariant
    assert symmetry_factor(k5, -2, decompleted=True) == \
        2 * Fraction(3) ** (2 - 5) * 6 == Fraction(4, 9)
    g = octahedron()
    assert symmetry_factor(g, -2, decompleted=True) == \
        2 * Fraction(3) ** (2 - 6) * 14


def test_symmetry_factor_completion_relation():
    # 3 S_G(N) = N (N+2) S_{G minus v}(N)
    for g in (complete_graph(5), octahedron(), duplicate(cycle(4), 2)):
        for n_fields in (1, 2, 3, 5):
            lhs = 3 * symmetry_factor(g, n_fields)
            rhs = n_fields * (n_fields + 2) * symmetry_factor(
                g, n_fields, decompleted=True
            )
            assert lhs == rhs
    with pytest.raises(ValueError):
        symmetry_factor(dipole(6), 1)
