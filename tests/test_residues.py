"""Modular invariants: graph permanents and their squared residues, prime
field point counts of the tree polynomial, and the c2 residue computed three
independent ways."""

import itertools
import random

import pytest

from martinpoly import residues

from martinpoly.families import (
    circulant,
    complete_graph,
    cycle,
    dipole,
    octahedron,
    wheel,
)
from martinpoly.martin import martin_invariant
from martinpoly.multigraph import (
    canonical_form,
    connected_components,
    delete_vertex,
    duplicate,
    from_edges,
    regular_half_degree,
    relabel,
)
from martinpoly.oracle import (
    BudgetExceeded,
    point_count_sweep,
    ryser_permanent,
)
from martinpoly.residues import (
    _NONVANISHING_MEMO,
    _STRATUM_MEMO,
    _bundle_weights,
    _eliminate,
    _nonsingular_weightings,
    _ryser_permanent,
    c2,
    c2_from_martin,
    c2_from_trees_forests,
    extended_permanent,
    graph_permanent,
    is_prime,
    permanent_square_residue,
    point_count,
)

from memory_guard import CASES

from conftest import (
    complement_c3_c4,
    cyclically_6_connected_10_vertex,
    dunce_cap,
    generated,
    k3_113,
    k4_112,
)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


# -------------------------------------------------------------- graph permanent


def test_octahedron_permanent_with_pinned_orientation():
    # vertex 5 at infinity, vertex 0 finite; rim cycle 1-2-3-4 oriented
    # backwards, spokes oriented away from 0: the stacked 8x8 permanent is 32
    octa = octahedron()
    orientation = [1, 1, 1, 1, 0, 1, 0, 0]
    assert graph_permanent(octa, 0, 5, orientation) == 32
    m = martin_invariant(octa)
    assert (m - (-1) ** (6 - 1) * 32 * 32) % 3 == 0


def test_permanent_default_orientation_shape():
    octa = octahedron()
    # no orientation flags every remaining edge instance 0
    value = graph_permanent(octa, 0, 5)
    assert value == graph_permanent(octa, 0, 5, [0] * 8)
    assert abs(value) == 32  # only the sign depends on the orientation
    assert value % 4 == 0  # k! to the number of rows divides the permanent


def test_permanent_residue_independent_of_choices():
    rng = random.Random(77)
    for g in (octahedron(), duplicate(cycle(5), 2), k4_112()):
        rep = permanent_square_residue(g)
        assert rep.modulus == 3
        seen = set()
        for _ in range(10):
            vinf = rng.choice([v for v in range(g.n) if not g.loops.get(v)])
            v0 = rng.choice([v for v in range(g.n) if v != vinf])
            n_cols = sum(m for (u, v), m in g.mult.items()
                         if vinf not in (u, v))
            orientation = [rng.randrange(2) for _ in range(n_cols)]
            value = graph_permanent(g, v0, vinf, orientation)
            assert value ** 2 % 3 == rep.residue
            seen.add(value)
        assert len(seen) > 1  # the raw integer does vary with the choices


def test_permanent_congruence_exhaustive_small():
    # M = (-1)^(n-1) Perm^2 mod 3 across every 4-regular multigraph class
    for n in (5, 6):
        sign = (-1) ** (n - 1)
        for g in generated(n):
            rep = permanent_square_residue(g)
            assert (martin_invariant(g) - sign * rep.residue) % 3 == 0


def test_permanent_zero_cases():
    # a loop away from infinity gives a zero column
    rep = permanent_square_residue(k3_113())
    assert rep.residue == 0
    assert martin_invariant(k3_113()) == 0
    # all vertices looped: reported trivially zero
    allloops = from_edges(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    rep = permanent_square_residue(allloops)
    assert rep.residue == 0 and "trivial" in rep.provenance
    # composite modulus (6-regular: k+1 = 4)
    rep = permanent_square_residue(complete_graph(7))
    assert rep.modulus == 4 and rep.residue == 0
    assert "trivial" in rep.provenance


def test_permanent_validation():
    octa = octahedron()
    with pytest.raises(ValueError):
        graph_permanent(octa, 3, 3)
    with pytest.raises(ValueError):
        graph_permanent(octa, 0, 5, [0, 1])
    with pytest.raises(ValueError):
        graph_permanent(k3_113(), 0, 2)  # infinity must be loop-free
    with pytest.raises(ValueError):
        graph_permanent(dipole(4), 0, 1)  # fewer than 3 vertices


def test_extended_permanent_matches_martin_sequence():
    k5 = complete_graph(5)
    reports = extended_permanent(k5, [1, 2, 3])
    assert [(r.modulus, r.residue) for r in reports] == \
        [(3, 0), (5, 1), (7, 0)]
    for r, rep in zip((1, 2, 3), reports):
        m = martin_invariant(duplicate(k5, r))
        assert (m - (-1) ** (5 - 1) * rep.residue) % rep.modulus == 0
    with pytest.raises(ValueError):
        extended_permanent(k5, [4])  # 2*4 + 1 = 9 is composite


@pytest.mark.parametrize("r", [0, -1])
def test_extended_permanent_rejects_a_power_below_one(r):
    # rejected before the modulus k*r + 1 (1, or -1) is tested for primality
    with pytest.raises(ValueError, match="r must be positive, got %d" % r):
        extended_permanent(complete_graph(5), [1, r])


def test_extended_permanent_c8_matches_martin_sequence():
    # 6 rows at k = 4: a 24 x 24 stacked matrix, 2^24 terms of plain Ryser
    g = circulant(8, (1, 2))
    [rep] = extended_permanent(g, [2])
    assert rep.modulus == 5
    m = martin_invariant(duplicate(g, 2))
    assert (m - (-1) ** (8 - 1) * rep.residue) % 5 == 0


def test_extended_permanent_matches_martin_sequence_at_scale():
    # M(G^[r]) = (-1)^(n-1) perm(G^[r])^2 mod 2r + 1 on g10 at r = 2, 3, 5
    # and 6, and on C_n(1,2) for n = 10..20 at r = 2, 3 and 5
    cases = [(cyclically_6_connected_10_vertex(), [2, 3, 5, 6])]
    cases += [(circulant(n, (1, 2)), [2, 3, 5]) for n in range(10, 21)]
    for g, rs in cases:
        for r, rep in zip(rs, extended_permanent(g, rs)):
            assert rep.modulus == 2 * r + 1
            m = martin_invariant(duplicate(g, r))
            assert (m - (-1) ** (g.n - 1) * rep.residue) % rep.modulus == 0, \
                (g.n, r)
    # the memory guard pins perm(g10^[6])^2 mod 13, which is -M(g10^[6])
    g10 = cyclically_6_connected_10_vertex()
    [rep] = extended_permanent(g10, [6])
    assert CASES["perm@13"][2] == rep.residue == \
        -martin_invariant(duplicate(g10, 6)) % 13


def test_grouped_ryser_matches_oracle():
    rng = random.Random(2024)
    for n in range(9):
        for _ in range(12):
            distinct = set()
            while len(distinct) < n:
                distinct.add(tuple(rng.randint(-3, 3) for _ in range(n)))
            distinct = list(distinct)
            base = distinct[:rng.randint(1, max(1, n // 2))]
            repeated = [rng.choice(base) for _ in range(n)]
            for rows in (distinct, repeated):
                assert _ryser_permanent(rows) == ryser_permanent(rows)
    # a stacked incidence matrix, as graph_permanent builds it
    rows = [(1, -1, 0, 1), (0, 1, 1, -1)] * 2
    assert _ryser_permanent(rows) == ryser_permanent(rows) != 0


def _stacked_matrix(g, v0, vinf, orientation):
    """The k-fold stacked reduced incidence matrix whose permanent
    graph_permanent counts, built entry by entry: a row per vertex other
    than v0 and vinf, a column per edge instance away from vinf, 1 at its
    tail and -1 at its head (swapped where its flag is set), and the rows
    stacked k times."""
    inst = [(u, v) for (u, v, _) in g.edge_instances() if vinf not in (u, v)]
    rows = [w for w in range(g.n) if w not in (v0, vinf)]
    base = []
    for w in rows:
        row = []
        for (u, v), flip in zip(inst, orientation):
            tail, head = (v, u) if flip else (u, v)
            row.append((w == tail) - (w == head))
        base.append(tuple(row))
    return base * regular_half_degree(g)


def _random_choices(g, rng):
    vinf = rng.choice([v for v in range(g.n) if not g.loops.get(v)])
    v0 = rng.choice([v for v in range(g.n) if v != vinf])
    n_cols = sum(1 for u, v, _ in g.edge_instances() if vinf not in (u, v))
    return v0, vinf, [rng.randrange(2) for _ in range(n_cols)]


def test_frontier_permanent_matches_ryser_on_small_classes():
    # every 4-regular class on 3..6 vertices, with seeded random choices
    # of v0, vinf and orientation; the stacked matrices are at most 8 x 8,
    # so the ungrouped oracle takes them all
    rng = random.Random(28)
    values = []
    for n in range(3, 7):
        for g in generated(n):
            if all(g.loops.get(v) for v in range(g.n)):
                continue  # no loop-free vertex for infinity
            for _ in range(3):
                v0, vinf, orientation = _random_choices(g, rng)
                rows = _stacked_matrix(g, v0, vinf, orientation)
                value = graph_permanent(g, v0, vinf, orientation)
                assert value == _ryser_permanent(rows) == \
                    ryser_permanent(rows), (g, v0, vinf, orientation)
                values.append(value)
    assert len({v for v in values if v}) > 2


def test_frontier_permanent_matches_ryser_at_scale():
    # up to 8 rows at k = 4 (g10^[2]) and 7 rows at k = 6 (C9(1,2)^[3]),
    # against grouped Ryser, and against the ungrouped oracle up to 16 x 16
    rng = random.Random(29)
    k5 = complete_graph(5)
    graphs = [octahedron(), k5, duplicate(k5, 2), duplicate(k5, 3),
              duplicate(circulant(7, (1, 2)), 2),
              duplicate(circulant(8, (1, 2)), 2),
              duplicate(circulant(9, (1, 2)), 3),
              duplicate(cyclically_6_connected_10_vertex(), 2)]
    nonzero = 0
    for g in graphs:
        v0, vinf, orientation = _random_choices(g, rng)
        rows = _stacked_matrix(g, v0, vinf, orientation)
        value = graph_permanent(g, v0, vinf, orientation)
        assert value == _ryser_permanent(rows), (g, v0, vinf, orientation)
        if len(rows) <= 16:
            assert value == ryser_permanent(rows), (g, v0, vinf, orientation)
        nonzero += value != 0
    assert nonzero >= 5


# ------------------------------------------------------------------ point counts


def test_dunce_cap_point_count_is_p_cubed():
    g = dunce_cap()
    for p in (2, 3, 5):
        assert point_count(g, p) == p ** 3


def test_point_counts_divisible_by_p_squared():
    graphs = [
        dunce_cap(),
        complete_graph(4),
        cycle(4),
        cycle(5),
        wheel(4),
        k3_113(),
        k4_112(),
        from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    for g in graphs:
        for p in (2, 3, 5):
            if p ** g.edge_count() > 10 ** 5:
                continue
            assert point_count(g, p) % (p * p) == 0


def test_point_count_matches_sweep_on_decompletions():
    # point counts are isomorphism invariants, so one decompletion per
    # isomorphism class covers every decompletion of the 4-regular classes
    decompletions = {}
    for n in (5, 6):
        for g in generated(n):
            for u in range(n):
                h = delete_vertex(g, u)
                decompletions.setdefault(canonical_form(h), h)
    for h in decompletions.values():
        for p in (2, 3):
            assert point_count(h, p) == point_count_sweep(h, p), (h, p)


def test_point_count_matches_sweep_on_random_multigraphs():
    rng = random.Random(4)
    graphs = [from_edges(4, [(0, 1), (0, 1), (2, 3), (2, 3)]),  # disconnected
              from_edges(3, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 2)])]
    while len(graphs) < 80:
        n = rng.randint(3, 6)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(2, 11))]
        edges += [edges[0]] * rng.randint(0, 2)  # a parallel bundle
        graphs.append(from_edges(n, edges))
    assert any(g.loops for g in graphs)
    assert any(m > 1 for g in graphs for m in g.mult.values())
    assert any(len(connected_components(g)) > 1 for g in graphs)
    for g in graphs:
        for p in (2, 3, 5):
            if p ** g.edge_count() <= 10 ** 5:
                assert point_count(g, p) == point_count_sweep(g, p), (g, p)


def _clear_point_count_memos():
    _STRATUM_MEMO.clear()
    _NONVANISHING_MEMO.clear()


def test_stratum_memo_is_relabelling_invariant():
    # counts computed cold, then read back for random relabellings: first
    # whole from the count memo, then, with that cleared, stratum by stratum,
    # as the relabellings' strata are the cold strata relabelled
    rng = random.Random(6)
    graphs = [dunce_cap(), k3_113(), k4_112(), complete_graph(4), wheel(4),
              delete_vertex(octahedron(), 0),
              from_edges(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                             (1, 3), (2, 2)])]
    for g in graphs:
        for p in (2, 3, 5):
            if p ** g.edge_count() > 10 ** 5:
                continue
            _clear_point_count_memos()
            cold = point_count(g, p)
            assert cold == point_count_sweep(g, p), (g, p)
            entries = len(_STRATUM_MEMO)
            for _ in range(4):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                assert point_count(h, p) == cold, (g, p, perm)
                assert len(_NONVANISHING_MEMO) == 1
                _NONVANISHING_MEMO.clear()
                assert point_count(h, p) == cold, (g, p, perm)
            assert len(_STRATUM_MEMO) == entries


def test_stratum_memo_key_includes_p():
    g = delete_vertex(octahedron(), 0)
    _clear_point_count_memos()
    point_count(g, 2)
    at_two = set(_STRATUM_MEMO)
    point_count(g, 3)
    at_three = set(_STRATUM_MEMO) - at_two
    assert at_two and {p for _, p in at_two} == {2}
    assert {p for _, p in at_three} == {3}
    assert {key for key, _ in at_three} == {key for key, _ in at_two}


def test_stratum_memo_shared_by_decompletions():
    # C7(1,2) is vertex-transitive: after one decompletion is counted, the
    # other six are isomorphic to it, and each is one hit of the count memo
    g = circulant(7, (1, 2))
    _clear_point_count_memos()
    first = point_count(delete_vertex(g, 0), 3)
    entries = len(_STRATUM_MEMO)
    assert entries > 0 and len(_NONVANISHING_MEMO) == 1
    for u in range(1, 7):
        assert point_count(delete_vertex(g, u), 3) == first
    assert len(_STRATUM_MEMO) == entries and len(_NONVANISHING_MEMO) == 1


def reference_nonsingular_weightings(nc, bundles, p):
    """_nonsingular_weightings with one deferred bundle: one bundle (a, nc-1)
    at the dropped vertex adds its weight sum s to the diagonal entry of a
    alone, and the determinant is affine in that entry: det = D1*(t + s),
    with D1 the determinant of the rest and t the Schur complement of the
    entry at s = 0.  One elimination per weighting of the other bundles
    therefore settles every value of s; when D1 = 0 the determinant does not
    depend on s, and a second one gives it."""
    size = nc - 1
    last = max((i for i, ((_, b), _) in enumerate(bundles) if b == size),
               key=lambda i: bundles[i][1])
    (a, _), k = bundles[last]
    last_weights = _bundle_weights(k, p)
    last_total = (p - 1) ** k
    # matrix index of each vertex, with a moved to the last row
    pos = list(range(nc))
    pos[a], pos[size - 1] = size - 1, a
    others = []
    choices = []
    for i, ((u, v), k) in enumerate(bundles):
        if i != last:
            weights = _bundle_weights(k, p)
            others.append((pos[u], pos[v]))
            choices.append([(s, weights[s]) for s in range(p) if weights[s]])
    count = 0
    for assignment in itertools.product(*choices):
        lap = [[0] * size for _ in range(size)]
        ways = 1
        for (u, v), (s, w) in zip(others, assignment):
            ways *= w
            lap[u][u] += s
            if v < size:
                lap[v][v] += s
                lap[u][v] -= s
                lap[v][u] -= s
        reduced = [row[:] for row in lap]
        if _eliminate(reduced, size - 1, p):
            count += ways * (last_total - last_weights[-reduced[-1][-1] % p])
        elif _eliminate(lap, size, p):
            count += ways * last_total
    return count


def _random_stratum(rng):
    """A connected loop-free multigraph on 2..6 vertices as (nc, bundles):
    a random spanning tree plus random pairs, each a bundle of 1..3 edges."""
    nc = rng.randint(2, 6)
    pairs = {(rng.randrange(v), v) for v in range(1, nc)}
    pairs |= {tuple(sorted(rng.sample(range(nc), 2)))
              for _ in range(rng.randint(0, nc))}
    return nc, tuple((e, rng.randint(1, 3)) for e in sorted(pairs))


def test_two_row_weightings_match_the_reference(monkeypatch):
    # every stratum that the point counts of the 7-vertex decompletions
    # meet, collected once per isomorphism class with the memos cleared,
    # then seeded random multigraphs, each at p = 2, 3, 5
    strata = []
    monkeypatch.setattr(residues, "_nonsingular_weightings",
                        lambda nc, bundles, p: strata.append((nc, bundles))
                        or 0)
    _clear_point_count_memos()
    for g in (circulant(7, (1, 2)), complement_c3_c4()):
        for u in range(7):
            point_count(delete_vertex(g, u), 2)
    monkeypatch.undo()
    _clear_point_count_memos()
    assert {nc for nc, _ in strata} == {2, 3, 4, 5, 6}
    rng = random.Random(21)
    randoms = {}
    while len(randoms) < 200:
        nc, bundles = _random_stratum(rng)
        if 2 ** sum(k for _, k in bundles) <= 2 * 10 ** 5:
            randoms[nc, bundles] = None
    assert {nc for nc, _ in randoms} == {2, 3, 4, 5, 6}
    assert any(k == 3 for _, bundles in randoms for _, k in bundles)
    # the two-row elimination is the one that leaves two rows uneliminated
    leading = []

    def spy(a, steps, p):
        det = _eliminate(a, steps, p)
        if steps == len(a) - 2:
            leading.append(det)
        return det
    monkeypatch.setattr(residues, "_eliminate", spy)
    for nc, bundles in strata:
        for p in (2, 3, 5):
            assert _nonsingular_weightings(nc, bundles, p) == \
                reference_nonsingular_weightings(nc, bundles, p), \
                (nc, bundles, p)
    for nc, bundles in randoms:
        m = sum(k for _, k in bundles)
        for p in (2, 3, 5):
            if p ** m <= 2 * 10 ** 5:
                assert _nonsingular_weightings(nc, bundles, p) == \
                    reference_nonsingular_weightings(nc, bundles, p), \
                    (nc, bundles, p)
    # both branches ran: det A != 0 (the Schur complement) and det A = 0
    assert any(leading) and not all(leading)


def test_point_count_validation():
    with pytest.raises(ValueError):
        point_count(complete_graph(4), 4)
    with pytest.raises(ValueError):
        point_count(dipole(4), 2)  # fewer than 3 vertices
    with pytest.raises(BudgetExceeded):
        point_count(complete_graph(4), 2, budget=10)
    # the budget holds even for a class the count memo already knows
    point_count(complete_graph(4), 2)
    with pytest.raises(BudgetExceeded):
        point_count(relabel(complete_graph(4), [3, 1, 0, 2]), 2, budget=10)


# -------------------------------------------------------------------------- c2


def test_c2_anchor_values():
    k4 = complete_graph(4)
    assert c2(k4, 2).residue == 1
    assert c2(k4, 3).residue == 2
    assert c2(k4, 5).residue == 4
    w4 = wheel(4)
    assert c2(w4, 2).residue == 1
    assert c2(w4, 3).residue == 2


def test_double_triangle_reduction_preserves_c2():
    # the wheel contains two triangles sharing an edge; replacing them by a
    # single triangle yields the complete graph on 4 vertices, and c2 agrees
    w4 = wheel(4)
    k4 = complete_graph(4)
    for p in (2, 3):
        assert c2(w4, p).residue == c2(k4, p).residue


def test_c2_three_ways_octahedron_and_k5():
    octa = octahedron()
    k5 = complete_graph(5)
    for p in (2, 3):
        a = c2(delete_vertex(octa, 0), p).residue
        b = c2_from_martin(octa, p).residue
        d = c2_from_trees_forests(octa, 0, 1, p).residue
        assert a == b == d
        a = c2(delete_vertex(k5, 0), p).residue
        b = c2_from_martin(k5, p, allow_small=True).residue
        d = c2_from_trees_forests(k5, 0, 1, p).residue
        assert a == b == d


def test_c2_completion_invariance():
    # deleting vertices from different orbits yields non-isomorphic
    # decompletions with the same c2
    g = complement_c3_c4()
    for p in (2, 3):
        values = {c2(delete_vertex(g, v), p).residue for v in (0, 3)}
        assert len(values) == 1
        assert values == {c2_from_martin(g, p).residue}
    # vertex sweep on the octahedron (one orbit, but all six decompletions)
    octa = octahedron()
    for p in (2, 3):
        values = {c2(delete_vertex(octa, v), p).residue for v in range(6)}
        assert len(values) == 1


def test_c2_point_count_at_five_matches_martin():
    octa = octahedron()
    a = c2(delete_vertex(octa, 0), 5).residue
    assert a == c2_from_martin(octa, 5).residue == 4


def test_c2_point_count_at_five_on_seven_vertex_completions():
    # 5^10 points per decompletion: over the default budget, within 10^7;
    # both orbits of the complement of C3+C4
    c7 = circulant(7, (1, 2))
    c3c4 = complement_c3_c4()
    with pytest.raises(BudgetExceeded):
        c2(delete_vertex(c7, 0), 5)
    for g, vertices, value in ((c7, (0,), 4), (c3c4, (0, 3), 0)):
        assert c2_from_martin(g, 5).residue == value
        for v in vertices:
            h = delete_vertex(g, v)
            assert c2(h, 5, budget=10 ** 7).residue == value, (g, v)


def test_c2_from_martin_validation():
    with pytest.raises(ValueError):
        c2_from_martin(complete_graph(5), 3)  # needs >= 6 vertices by default
    with pytest.raises(ValueError):
        c2_from_martin(complete_graph(4), 3)  # 3-regular completion
    with pytest.raises(ValueError):
        c2_from_martin(octahedron(), 6)  # composite


def test_c2_from_trees_forests_validation():
    with pytest.raises(ValueError):
        c2_from_trees_forests(duplicate(cycle(5), 2), 0, 1, 2)  # doubled edge
    # 4-regular, loop-free, (0,1) single, but vertex 1 has a doubled
    # neighbour besides 0, so the three marks are not distinct
    g = from_edges(5, [(0, 1), (1, 2), (1, 2), (1, 4), (2, 3), (0, 2),
                       (3, 4), (3, 4), (0, 4), (0, 3)])
    with pytest.raises(ValueError):
        c2_from_trees_forests(g, 0, 1, 2)
    with pytest.raises(ValueError):
        c2_from_trees_forests(k4_112(), 0, 1, 2)  # fewer than 5 vertices
    with pytest.raises(ValueError):
        c2_from_trees_forests(octahedron(), 0, 5, 2)  # not adjacent
    with pytest.raises(ValueError):
        c2_from_trees_forests(octahedron(), 0, 1, 4)  # composite
