"""Martin polynomial and invariant: table values, bases, closed forms,
order independence, agreement with the memoized recursion the frontier
elimination replaced, divisibility, and symmetry-factor bridges."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import pytest

import memory_guard
from martinpoly import martin
from martinpoly import polynomial as poly
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
    Multigraph,
    _classes,
    apply_transition,
    canonical_form,
    connected_components,
    duplicate,
    from_edges,
    induced_subgraph,
    relabel,
    transition_classes,
)
from martinpoly.polynomial import evaluate
from martinpoly.residues import c2_from_martin
from martinpoly.structure import (
    EdgeCut,
    _all_cuts,
    _vertices,
    edge_connectivity,
    split_edge_cut,
)

from conftest import (
    batch_scale_graphs,
    cyclically_6_connected_10_vertex,
    dunce_cap,
    eight_regular_six_vertex,
    five_r_cut,
    generated,
    k3_113,
    k4_112,
    random_12_vertex,
)


# ------------------------------------------------- the reference recursion
#
# The memoized vertex expansion that computed both values before the frontier
# elimination: a canonically keyed memo per node, loops stripped before
# keying, components multiplied out, and for the invariant the k-bundle pass,
# the 4-vertex closed form and the cut shortcuts.  The differential tests run
# the elimination against it.

_REF_INVARIANT = {}
_REF_POLY = {}
# labelled graph (Multigraph.key) -> canonical_form
_REF_FRONT = {}
# the library's _classes keeps no cache, so the references keep their own
_ref_classes = lru_cache(maxsize=None)(_classes)


def _ref_transition_classes(g, v, loops=True):
    """transition_classes(g, v, loops) for a loop-free pivot v, from
    _ref_classes."""
    adj = g.adjacency()[v]
    return _ref_classes(tuple(adj[w] for w in sorted(adj)), loops)


def _ref_pivot(g, with_loops):
    """The vertex with the fewest transition classes; for the invariant, ties
    go to the most triangles through it, then the lowest label."""
    adj = g.adjacency()
    best, best_rank = None, None
    for v in range(g.n):
        nbrs = adj[v]
        score = len(_ref_classes(tuple(sorted(nbrs.values())), with_loops))
        if best_rank is not None and score > best_rank[0]:
            continue
        triangles = 0 if with_loops else sum(
            1 for a, b in combinations(nbrs, 2) if b in adj[a])
        rank = (score, -triangles)
        if best_rank is None or rank < best_rank:
            best, best_rank = v, rank
    return best


def _ref_key(g):
    label = g.key()
    key = _REF_FRONT.get(label)
    if key is None:
        key = _REF_FRONT[label] = canonical_form(g)
    return key


@lru_cache(maxsize=None)
def _ref_loop_factor(looped):
    """(x + d - 4 - 2t) for the t-th of c loops at a vertex of degree d, over
    the sorted (degree, loop count) pairs of the looped vertices."""
    out = (1,)
    for d, c in looped:
        for t in range(c):
            out = poly.mul(out, (d - 4 - 2 * t, 1))
    return out


def reference_polynomial(g):
    """m of g, an even graph with no edgeless vertex."""
    comps = connected_components(g)
    factor = None
    if g.loops and g.n > 1 and len(comps) == 1:
        degs = g.degrees()
        factor = _ref_loop_factor(tuple(sorted((degs[v], c)
                                               for v, c in g.loops.items())))
        g = Multigraph(g.n, g.mult, {})
    key = _ref_key(g)
    result = _REF_POLY.get(key)
    if result is None:
        result = _REF_POLY[key] = _ref_expand_polynomial(g, comps)
    return result if factor is None else poly.mul(factor, result)


def _ref_expand_polynomial(g, comps):
    if len(comps) > 1:
        result = (1,)
        for comp in comps:
            result = poly.mul(result, reference_polynomial(
                induced_subgraph(g, comp)[0]))
        for _ in range(len(comps) - 1):
            result = poly.mul(result, (-2, 1))
        return result
    if g.n == 1:
        return _ref_loop_factor(((2 * g.loops[0], g.loops[0] - 1),))
    pivot = _ref_pivot(g, with_loops=True)
    result = ()
    for D, L, coeff in _ref_transition_classes(g, pivot):
        child = apply_transition(g, pivot, D, L)
        result = poly.add(result, poly.scale(reference_polynomial(child),
                                             coeff))
    return result


def _ref_k4_closed_form(g, k):
    """a!b!c!/((k-a)!(k-b)!(k-c)!) for the opposite-pair multiplicities."""
    a, b, c = (g.mult.get((0, j), 0) for j in (1, 2, 3))
    return (factorial(a) * factorial(b) * factorial(c)
            // (factorial(k - a) * factorial(k - b) * factorial(k - c)))


def _ref_invariant(g, k):
    """M of a loop-free 2k-regular graph with >= 3 vertices.  A k-bundle and
    a nontrivial 2k-cut split M as k! M(g1) M(g2), and a smaller cut makes
    it 0, also when another cut was split off first (by submodularity)."""
    if g.n == 3:
        return 1
    bundle = None
    for e, m in g.mult.items():
        if m > k:
            return 0
        if m == k and bundle is None:
            bundle = e
    if bundle is not None:
        g2 = split_edge_cut(g, EdgeCut(bundle, 2 * k))[1]
        return factorial(k) * _ref_invariant(g2, k)
    if len(connected_components(g)) > 1:
        return 0
    if g.n == 4:
        return _ref_k4_closed_form(g, k)
    key = _ref_key(g)
    got = _REF_INVARIANT.get(key)
    if got is not None:
        return got
    result = None
    for side, size, count in _all_cuts(g, 2 * k):
        if size < 2 * k:
            result = 0
            break
        if 2 <= count <= g.n - 2:
            g1, g2 = split_edge_cut(g, EdgeCut(_vertices(side), 2 * k))
            result = factorial(k) * _ref_invariant(g1, k) * _ref_invariant(
                g2, k)
            break
    if result is None:
        pivot = _ref_pivot(g, with_loops=False)
        result = sum(coeff * _ref_invariant(apply_transition(g, pivot, D), k)
                     for D, _, coeff
                     in _ref_transition_classes(g, pivot, False))
    _REF_INVARIANT[key] = result
    return result


def reference_invariant(g):
    """M of a 2k-regular graph, as martin_invariant takes it."""
    if g.n < 3 or g.loops:
        return martin_invariant(g)
    return _ref_invariant(g, g.degrees()[0] // 2)


# ----------------------------------------------- the reference slot-free kernel
#
# The elimination as it stood before a state became a tuple over slots: a
# sorted tuple of ((a, b), m) items, children built as dicts and sorted, and
# the greedy order recomputed by set differences on every call.  The
# differential tests run martin._eliminate and martin._order against it
# where the reference recursion above cannot go in tier-1 time.

def reference_order(g):
    """martin._order before the order was kept on the graph: every greedy
    step takes set differences over every remaining vertex.

    From a start vertex, the greedy order eliminates next the vertex that
    leaves the smallest frontier, then the one with the most eliminated
    neighbours, then the lowest label; its width is its largest frontier.
    Starts are tried in increasing number of neighbours, and the narrowest
    order wins, the earliest among equals.  A start is abandoned once its
    width reaches the best so far, and the search ends at a width equal to
    the fewest neighbours of any vertex, since every order's first frontier
    is its first vertex's neighbours."""
    adj = g.adjacency()
    n = g.n
    best, best_width = None, n + 1
    for start in sorted(range(n), key=lambda v: len(adj[v])):
        order, gone, front, width = [], set(), set(), 0
        v = start
        while True:
            order.append(v)
            gone.add(v)
            front.discard(v)
            front.update(u for u in adj[v] if u not in gone)
            width = max(width, len(front))
            if width >= best_width or len(order) == n:
                break
            v = min((len(adj[w].keys() - gone - front) - (w in front),
                     -len(adj[w].keys() & gone), w)
                    for w in range(n) if w not in gone)[2]
        if width < best_width:
            best, best_width = order, width
            if width == min(map(len, adj)):
                break
    return best


def _ref_strip_loops(p, d, c):
    """The coefficient list p times the factor J gains when c self-loops
    leave a vertex of degree d: (x + d - 2 - 2t) for the t-th.  A loop's
    two ends either pair with each other, closing a circuit, or sit inside
    one of the other (d - 2 - 2t)/2 pairs at the vertex, in 2 ways."""
    for t in range(c):
        a = d - 2 - 2 * t
        p = [a * x + y for x, y in zip(p + [0], [0] + p)]
    return p


def reference_eliminate(g, k=None, profiles=None, order=None):
    """martin._eliminate before its states became slot tuples, along
    reference_order(g) or the order given.  A state is the sorted tuple of
    ((a, b), m): m edges added between the frontier vertices a < b, and for
    the polynomial m self-loops already stripped at a == b.

    With k, g is loop-free and 2k-regular with n >= 3, and the result is M:
    loop-free classes only, a child dropped once a pair holds more than k
    edges (that pair's cut of 4k - 2m edges is below 2k, so M is 0), and
    each state of the last 3 vertices, a triangle of k-bundles, counts 1.
    Without k, the result is the coefficient list of J(g; x), the sum over
    the transition systems T of x^c(T), c(T) the number of circuits: every
    class, each self-loop stripped as it is made, and every vertex
    eliminated.  A set passed as profiles collects the sorted neighbour
    profile each state gives its pivot."""
    adj = g.adjacency()
    if order is None:
        order = reference_order(g)
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    loops = k is None
    if loops:
        degree = [sum(a.values()) for a in adj]  # with every loop stripped
        value = [1]
        for v, c in g.loops.items():
            value = _ref_strip_loops(value, degree[v] + 2 * c, c)
        states = {(): value}
        last = g.n
    else:
        states = {(): 1}
        last = g.n - 3
    for i, v in enumerate(order[:last]):
        later = {u: m for u, m in adj[v].items() if rank[u] > i}
        children = {}
        for state, value in states.items():
            nbrs = dict(later)
            kept = {}
            for e, m in state:
                a, b = e
                if a == v:
                    if b != v:
                        nbrs[b] = nbrs.get(b, 0) + m
                elif b == v:
                    nbrs[a] = nbrs.get(a, 0) + m
                else:
                    kept[e] = m
            ns = sorted(nbrs)
            if profiles is not None:
                profiles.add(tuple(sorted(nbrs.values())))
            last_loops = None
            for D, L, coeff in _ref_classes(tuple(nbrs[u] for u in ns),
                                            loops):
                child = dict(kept)
                capped = False
                for p, a in enumerate(ns):
                    row = D[p]
                    for q in range(p + 1, len(ns)):
                        if row[q]:
                            e = (a, ns[q])
                            m = child[e] = child.get(e, 0) + row[q]
                            capped |= (not loops
                                       and m + adj[a].get(ns[q], 0) > k)
                if capped:
                    continue
                if not loops:
                    key = tuple(sorted(child.items()))
                    children[key] = children.get(key, 0) + coeff * value
                    continue
                if L != last_loops:  # _classes sorts the classes by L
                    last_loops, term = L, value
                    for p, c in enumerate(L):
                        if c:
                            term = _ref_strip_loops(
                                term, degree[ns[p]]
                                - 2 * kept.get((ns[p], ns[p]), 0), c)
                for p, c in enumerate(L):
                    if c:
                        e = (ns[p], ns[p])
                        child[e] = kept.get(e, 0) + c
                acc = children.setdefault(tuple(sorted(child.items())), [])
                acc += [0] * (len(term) - len(acc))
                for j, x in enumerate(term):
                    acc[j] += coeff * x
        states = children
    if loops:
        return states[()]
    return sum(states.values())


# ------------------------------------------------- the reference resolution
#
# martin._resolve before the classes were kept per sorted multiset of
# multiplicities: each vector enumerates its own classes, with its nonzero
# positions in frontier order.  test_resolution_matches_the_reference runs
# martin._resolve against it.

def reference_resolve(mult, loops, width):
    """The transition classes of a pivot with multiplicities mult to the
    next frontier, each as the packed addition delta of its new edges to a
    state, with its coefficient: one (made, diagonal, pairs) per loop
    vector, the (position, count) of the loops it makes, their packed
    addition to the diagonal slots, and its classes' (delta, coeff) pairs.
    Without loops there is one, which makes none."""
    at = [p for p, m in enumerate(mult) if m]
    half = 1 if loops else -1
    upper = [(x, y, (q * (q + half) // 2 + p) * width)
             for y, q in enumerate(at) for x, p in enumerate(at[:y])]
    classes = _ref_classes(tuple(mult[p] for p in at), loops)
    pairs = [(sum(D[x][y] << s for x, y, s in upper), coeff)
             for D, _, coeff in classes]
    by_loops = {}
    for (_, L, _), pair in zip(classes, pairs):
        by_loops.setdefault(L, []).append(pair)
    return tuple((tuple((at[x], c) for x, c in enumerate(L) if c),
                  sum(c << at[x] * (at[x] + 3) // 2 * width
                      for x, c in enumerate(L)), tuple(batch))
                 for L, batch in by_loops.items())


def _resolved_classes(resolved):
    """The multiset of (loops made, diagonal, delta, coeff) of a
    resolution."""
    return Counter((frozenset(made), diagonal, delta, coeff)
                   for made, diagonal, pairs in resolved
                   for delta, coeff in pairs)


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


def test_the_memory_guard_reads_g10_from_conftest():
    # tests/memory_guard.py parses g10's edge list out of conftest.py, so
    # that its fresh processes do not load pytest
    assert memory_guard.g10() == cyclically_6_connected_10_vertex()


def test_pinned_sequence_of_a_cyclically_6_connected_10_vertex_graph():
    # r = 4 is where the loop-making transition classes, which the invariant
    # never expands, outnumber the loop-free ones
    g = cyclically_6_connected_10_vertex()
    assert martin_sequence(g, 4) == [
        608, 599176249344, 700491754121726949064704,
        89087784161686739313044005450426613760]



def test_pins_beyond_the_recursions_reach():
    # each value agrees with the reference recursion above, which took
    # minutes where the elimination takes about a second at most (see
    # CHANGES.md); networkx.random_regular_graph(4, 24, seed=24) is kept as
    # a fixed edge list
    g = duplicate(cyclically_6_connected_10_vertex(), 6)
    assert martin_invariant(g) == int(
        "266138944055042923909965254228101293818990954708830519296"
        "00000000000000")
    nx24 = from_edges(24, [
        (0, 2), (0, 7), (0, 18), (0, 22), (1, 7), (1, 8), (1, 13), (1, 19),
        (2, 11), (2, 20), (2, 23), (3, 5), (3, 18), (3, 19), (3, 21),
        (4, 13), (4, 16), (4, 21), (4, 23), (5, 12), (5, 16), (5, 17),
        (6, 8), (6, 15), (6, 22), (6, 23), (7, 9), (7, 18), (8, 20), (8, 21),
        (9, 19), (9, 22), (9, 23), (10, 14), (10, 15), (10, 16), (10, 20),
        (11, 13), (11, 14), (11, 17), (12, 15), (12, 19), (12, 22),
        (13, 20), (14, 16), (14, 17), (15, 17), (18, 21)])
    assert martin_invariant(nx24) == 690001160
    assert martin_polynomial(cycle(600)) == (1,)

# --------------------------------------------------------- elimination behavior


def _fresh_memos(monkeypatch):
    for name in ("_INVARIANT_MEMO", "_POLY_MEMO"):
        monkeypatch.setattr(martin, name, {})


def _random_orders(monkeypatch, seed):
    """From here on every elimination runs in a seeded random order, with
    cold memos, so no value computed in the greedy order is reused."""
    _fresh_memos(monkeypatch)
    rng = random.Random(seed)

    def order(g):
        out = list(range(g.n))
        rng.shuffle(out)
        return out
    monkeypatch.setattr(martin, "_order", order)


def test_pivot_policy_independence(monkeypatch):
    # the elimination order changes the cost only: seeded random orders give
    # the greedy order's values
    rng = random.Random(2026)
    pool = generated(4) + generated(5) + rng.sample(generated(6), 30)
    pool += generated(3, degree=6) + rng.sample(generated(4, degree=6), 15)
    expected = [(martin_polynomial(g), martin_invariant(g)) for g in pool]
    for seed in (1, 2):
        _random_orders(monkeypatch, seed)
        for g, values in zip(pool, expected):
            assert (martin_polynomial(g), martin_invariant(g)) == values, g


def test_unknown_pivot_policy_is_rejected():
    # the public functions take the graph and nothing else, also where they
    # settle the graph without an elimination
    for g in (duplicate(complete_graph(3), 2), dipole(4), k4_112(),
              duplicate(cycle(6), 2), octahedron()):
        with pytest.raises(TypeError):
            martin_invariant(g, "bogus")
    for g in (rose(2), octahedron()):
        with pytest.raises(TypeError):
            martin_polynomial(g, "bogus")


def test_labelled_repeat_computes_no_canonical_form(monkeypatch):
    # the memos key the input alone: the only canonical form either value
    # computes is the input's own, and a repeat of the same graph object
    # computes none
    computed = []
    real = martin.canonical_form

    def spy(g):
        if g._canon is None:
            computed.append(g)
        return real(g)
    monkeypatch.setattr(martin, "canonical_form", spy)
    perm = [3, 7, 0, 8, 2, 5, 1, 6, 4]

    def run(g):
        return martin_invariant(g), martin_polynomial(g)

    _fresh_memos(monkeypatch)
    g = relabel(circulant(9, (1, 2)), perm)
    first = run(g)
    assert computed == [g]
    computed.clear()
    assert run(g) == first
    assert computed == []
    _fresh_memos(monkeypatch)
    h = relabel(circulant(9, (1, 2)), perm)
    assert run(h) == first
    assert computed == [h]


def test_front_cold_and_warm_give_the_same_values(monkeypatch):
    # a memo hit returns what a cold run computes; roses and disconnected
    # graphs are in the pool, with their loops
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


def test_elimination_matches_the_reference_recursion():
    pool = [g for n in range(1, 7) for g in generated(n)]
    pool += [g for n in range(1, 6) for g in generated(n, degree=6)]
    pool += generated(6, degree=6, loops=False) + batch_scale_graphs()
    for g in pool:
        assert martin_polynomial(g) == reference_polynomial(g), g
        assert martin_invariant(g) == reference_invariant(g), g


def _nx16():
    """networkx.random_regular_graph(4, 16, seed=16), as a fixed edge list."""
    return from_edges(16, [
        (0, 2), (0, 8), (0, 11), (0, 15), (1, 5), (1, 8), (1, 11), (1, 14),
        (2, 3), (2, 6), (2, 13), (3, 10), (3, 11), (3, 15), (4, 6), (4, 7),
        (4, 9), (4, 14), (5, 9), (5, 12), (5, 13), (6, 7), (6, 8), (7, 12),
        (7, 13), (8, 15), (9, 10), (9, 14), (10, 12), (10, 13), (11, 12),
        (14, 15)])


def test_order_matches_the_reference_greedy():
    # the incremental greedy picks the reference's vertices, and a duplicate
    # has its graph's order, whether carried over or computed afresh
    pool = [g for n in range(1, 7) for g in generated(n)]
    for g in pool + batch_scale_graphs():
        fresh = Multigraph(g.n, g.mult, g.loops)
        order = martin._order(fresh)
        assert order == tuple(reference_order(g)), g
        for r in (2, 3):
            assert martin._order(duplicate(fresh, r)) == order
            again = duplicate(Multigraph(g.n, g.mult, g.loops), r)
            assert again._order is None and martin._order(again) == order


def test_slot_states_match_the_reference_kernel(monkeypatch):
    # M and J beyond the reference recursion's reach: each graph goes through
    # both kernels, with no memo between them.  The exhaustive small classes
    # bring input loops to J, and pairs of more than k edges to M: the
    # 6-regular ones on 5 vertices hold bundles of 4 to 6.  M's cap only
    # prunes (a pair over k leaves its next pivot no loop-free class), so no
    # value shows it; the neighbour profiles the pivots meet do.  A pair of
    # more than k input edges is on a frontier only in some orders, not the
    # greedy one, so the small classes go through every order of the
    # vertices M eliminates
    g10, nx16 = cyclically_6_connected_10_vertex(), _nx16()
    plain = batch_scale_graphs()
    small = [g for degree, top in ((4, 5), (6, 4))
             for n in range(1, top + 1) for g in generated(n, degree=degree)]
    pool = plain + [duplicate(g, 2) for g in plain]
    pool += [duplicate(g10, r) for r in range(1, 6)] + [duplicate(nx16, 2)]
    loop_free = [g for g in small + generated(5, degree=6)
                 if g.n >= 3 and not g.loops]
    pool += loop_free
    met = set()
    resolve = martin._resolve

    def spy(mult, loops, width):
        met.add(tuple(sorted(m for m in mult if m)))
        return resolve(mult, loops, width)
    monkeypatch.setattr(martin, "_resolve", spy)

    def check(g, order=None):
        k = g.degrees()[0] // 2
        monkeypatch.setattr(martin, "_RESOLVED", {})
        monkeypatch.setattr(martin, "_LAYOUTS", {})
        met.clear()
        profiles = set()
        assert (martin._eliminate(g, k)
                == reference_eliminate(g, k, profiles, order)), (g, order)
        assert met == profiles, (g, order)

    for g in pool:
        check(g)
    for g in plain + [g10, duplicate(g10, 2), nx16] + small:
        assert martin._eliminate(g) == reference_eliminate(g), g
    for g in loop_free:
        for head in permutations(range(g.n), g.n - 3):
            order = head + tuple(v for v in range(g.n) if v not in head)
            monkeypatch.setattr(martin, "_order", lambda g: order)
            check(g, order)


def test_the_kernel_fills_no_transition_class_cache(monkeypatch):
    # _classes is a plain enumerator: the kernel's own tables, the classes
    # per sorted profile, their resolutions per vector and those per step
    # layout, are the only caches of transition classes, and M and J each
    # fill all three
    assert not hasattr(_classes, "cache_info")
    g10 = cyclically_6_connected_10_vertex()
    for g, k in ((duplicate(g10, 3), 6), (g10, None)):
        monkeypatch.setattr(martin, "_CLASSES", {})
        monkeypatch.setattr(martin, "_RESOLVED", {})
        monkeypatch.setattr(martin, "_LAYOUTS", {})
        martin._eliminate(g, k)
        assert martin._CLASSES and martin._RESOLVED and martin._LAYOUTS


def test_resolution_matches_the_reference(monkeypatch):
    # every multiplicity vector the kernel meets resolves into the classes
    # the reference enumerates for it in frontier order, although they come
    # from its sorted multiset with the positions permuted back; and with
    # the tables cleared, resolving them all enumerates each (sorted
    # profile, loops) once.  The pools are those of the kernel differential
    # test above, with g10 up to r = 6, and C4^[256], whose one class holds
    # a bundle of 256
    g10, nx16 = cyclically_6_connected_10_vertex(), _nx16()
    plain = batch_scale_graphs()
    small = [g for degree, top in ((4, 5), (6, 4))
             for n in range(1, top + 1) for g in generated(n, degree=degree)]
    wide = duplicate(cycle(4), 256)
    invariants = plain + [duplicate(g, 2) for g in plain]
    invariants += [duplicate(g10, r) for r in range(1, 7)]
    invariants += [duplicate(nx16, 2), wide]
    invariants += [g for g in small + generated(5, degree=6)
                   if g.n >= 3 and not g.loops]
    polynomials = plain + [g10, nx16] + small
    met = set()
    resolve = martin._resolve

    def spy(mult, loops, width):
        got = resolve(mult, loops, width)
        assert (_resolved_classes(got) == _resolved_classes(
            reference_resolve(mult, loops, width))), (mult, loops, width)
        met.add((mult, loops, width))
        return got
    monkeypatch.setattr(martin, "_resolve", spy)
    monkeypatch.setattr(martin, "_CLASSES", {})
    monkeypatch.setattr(martin, "_RESOLVED", {})
    monkeypatch.setattr(martin, "_LAYOUTS", {})
    for g in invariants:
        martin._eliminate(g, g.degrees()[0] // 2)
    for g in polynomials:
        martin._eliminate(g)
    assert martin._eliminate(wide, 256) == reference_invariant(wide)

    enumerated = Counter()

    def count(d, loops=True):
        enumerated[d, loops] += 1
        return _classes(d, loops)
    monkeypatch.setattr(martin, "_classes", count)
    monkeypatch.setattr(martin, "_CLASSES", {})
    for mult, loops, width in met:
        resolve(mult, loops, width)
    assert set(enumerated.values()) == {1}
    assert all(list(d) == sorted(d) for d, _ in enumerated)
    assert len(met) > 2 * len(enumerated)


# sha256 of one "M TAB J's coefficients TAB M^[2]" line per
# batch_scale_graphs() graph, in order
_BATCH_VALUES_SHA256 = (
    "14fec28185ec36af1571c4e79f836a060d5a37a80707c7f8b0edf301c5060fef")


def test_layout_table_keeps_resolutions_across_calls(monkeypatch):
    # a row's resolution is kept under its step's layout, (base, feed), and
    # found there by later steps and calls: the batch graphs give their
    # pinned values on cold tables, and again in reverse order on the tables
    # the first pass filled, and every row kept resolves as _resolve does
    # for the multiplicities it stands for
    plain = batch_scale_graphs()
    monkeypatch.setattr(martin, "_CLASSES", {})
    monkeypatch.setattr(martin, "_RESOLVED", {})
    monkeypatch.setattr(martin, "_LAYOUTS", {})

    def values(g):
        k = g.degrees()[0] // 2
        return (martin._eliminate(g, k), martin._eliminate(g),
                martin._eliminate(duplicate(g, 2), 2 * k))
    forward = [values(g) for g in plain]
    backward = [values(g) for g in reversed(plain)][::-1]
    assert forward == backward
    lines = "".join("%d\t%s\t%d\n" % (m, ",".join(map(str, j)), m2)
                    for m, j, m2 in forward)
    assert hashlib.sha256(lines.encode()).hexdigest() == _BATCH_VALUES_SHA256
    # C7(1,2)..C18(1,2) come first, each before its double, and the
    # 12-vertex graph, whose sequence is pinned above, is next to last
    assert [m for m, _, _ in forward[:-2:2]] == [
        closed_form_circulant(g.n) for g in plain[:-2:2]]
    assert [m for m, _, _ in forward[1:-2:2]] == [
        m2 for _, _, m2 in forward[:-2:2]]
    assert (forward[-2][0], forward[-2][2]) == (4280, 1924469536849920)

    rows = 0
    for (loops, width), layouts in martin._LAYOUTS.items():
        field = (1 << width) - 1
        for (base, feed), resolutions in layouts.items():
            for row, resolved in resolutions.items():
                mult = list(base)
                for p, s in enumerate(feed):
                    mult[p] += row >> s & field
                assert resolved == martin._resolve(tuple(mult), loops,
                                                   width), (base, feed, row)
                rows += 1
    assert rows > len(martin._LAYOUTS) > 1


def test_c2_of_g10_by_the_martin_route():
    # c2 = M(g^[p-1]) / (3p) mod p.  No other route here reaches p = 11: a
    # decompletion of g10 has 16 edges, and the budget of a point count
    # bounds its 11^16 points
    g10 = cyclically_6_connected_10_vertex()
    assert [c2_from_martin(g10, p).residue for p in (5, 7, 11)] == [4, 6, 10]


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
    # the normalized polynomial derivative, a route with no multiplicity
    # cap, reproduces the invariant under the greedy order and under a
    # seeded random order
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
    _random_orders(monkeypatch, 7)
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
