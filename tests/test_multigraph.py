"""Graph value semantics, vertex transitions, canonical labeling."""

import hashlib
import itertools
import random
import time

import pytest

from martinpoly.multigraph import (
    Multigraph,
    _classes,
    _symmetric_matrices,
    _encode,
    _refine,
    apply_transition,
    canonical_form,
    delete_vertex,
    duplicate,
    from_edges,
    induced_subgraph,
    is_isomorphic,
    regular_degree,
    relabel,
    transition_classes,
)
from martinpoly.families import (
    circulant,
    complete_graph,
    cycle,
    dipole,
    octahedron,
    rose,
    wheel,
)
from martinpoly.martin import martin_polynomial

from conftest import (
    batch_scale_graphs,
    complement_c3_c4,
    dunce_cap,
    eight_regular_six_vertex,
    generated,
    k3_113,
    k4_112,
    random_12_vertex,
)


# ---------------------------------------------------------------- construction


def test_from_edges_counts():
    g = from_edges(3, [(0, 1), (0, 1), (0, 2), (1, 2), (2, 2)])
    assert g.n == 3
    assert g.edge_count() == 5
    assert g.degrees() == (3, 3, 4)  # one loop contributes 2
    assert g.degrees() is g.degrees()  # kept on the graph
    assert g.loops.get(2) == 1
    assert g.loops


def test_degrees_of_named_families():
    assert complete_graph(5).degrees() == (4,) * 5
    assert rose(2).degrees() == (4,)
    assert dipole(3).degrees() == (3, 3)
    assert octahedron().degrees() == (4,) * 6
    assert circulant(8, (1, 2)).degrees() == (4,) * 8
    # jump n/2 contributes a single edge, not a double one
    assert circulant(6, (1, 3)).degrees() == (3,) * 6


def test_edge_instances_enumeration():
    g = k3_113()
    inst = g.edge_instances()
    assert len(inst) == g.edge_count() == 6
    # multiplicities expand to one triple per copy, loops come last
    assert inst.count((0, 1, 0)) == 1
    assert inst.count((0, 1, 2)) == 1
    assert (2, 2, 0) in inst


def test_multigraph_is_hashable_value():
    a = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    b = from_edges(3, [(0, 2), (0, 1), (1, 2)])
    assert a.key() == b.key()
    assert len({a.key(), b.key()}) == 1
    # counts and orders above a byte take the tuple form
    for big in ({(0, 1): 256}, {(0, 299): 1}):
        n = 1 + max(v for _, v in big)
        g, h = Multigraph(n, big), Multigraph(n, dict(big))
        assert g == h and len({g, h}) == 1
        assert g != Multigraph(n, {e: m + 1 for e, m in big.items()})
    assert Multigraph(2, {(0, 1): 2}, {0: 256}) != \
        Multigraph(2, {(0, 1): 2}, {0: 257})


# ------------------------------------------------------------ canonical labels


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(411)
    pool = generated(5) + generated(6)
    for g in rng.sample(pool, 40):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(h) == canonical_form(g)
        assert is_isomorphic(g, h)


def _brute_isomorphic(g, h):
    """Permutation-scan isomorphism test, independent of canonical_form."""
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    for perm in itertools.permutations(range(g.n)):
        if relabel(g, list(perm)).key() == h.key():
            return True
    return False


def test_generated_classes_are_pairwise_distinct():
    # the generator dedupes by canonical form; spot-check against a brute
    # permutation scan so the dedup is not trusted on its own word
    rng = random.Random(412)
    pool = generated(6)
    for _ in range(20):
        g, h = rng.sample(pool, 2)
        assert not _brute_isomorphic(g, h)
        assert not is_isomorphic(g, h)


# (n, degree, loops), class count, sha256 of the sorted per-class Martin
# polynomials (one line of space-separated coefficients per class, joined by
# newlines).  Pinned from the backtracking generator; a replacement generator
# or canonical form must reproduce them, and none depends on the key bytes.
_GENERATOR_PINS = [
    ((1, 4, True), 1,
     "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0"),
    ((2, 4, True), 3,
     "02dc0ad1b01b307439e9cff4d350cd2d060b98b353f013c9ec74a09bcc540680"),
    ((3, 4, True), 7,
     "67c8e98b32bb1cb4aca2d3263b0f82cc124f13b730ff33e4ae88c0af9c3513be"),
    ((4, 4, True), 20,
     "99de68a37b2cbd2da2c81da06e93922a3ed428af8910139d834f79fe00b8e843"),
    ((5, 4, True), 56,
     "e6365deecc8ad48711002dcfd5743bf0a7640fecfd1f83e96cd0729985da694d"),
    ((6, 4, True), 187,
     "40444a4c975e32aafc9e91060ff84be3f4a75e339c14ad4fecf5a937d84c79dc"),
    ((7, 4, True), 654,
     "f1f1b1b4b3130be29f55dd21ed31f253638232514f23fa325ca086e885f9810b"),
    ((1, 6, True), 1,
     "e232686fc6eddd454104e1ff5a12b8207a9267a63e3fb3403170f044e7b79fa6"),
    ((2, 6, True), 4,
     "3abc14763ac26327f0591680f712d5a0ae134943f5cadbb19cce84bc3be27f24"),
    ((3, 6, True), 13,
     "6df33f8fed73681046367f02f1a89b00f5f12c31c5ca7bd5d067e3c42fcfa5ab"),
    ((4, 6, True), 66,
     "439a58f5363b107a362a648765d7b377636e80e5606ce3e888189751870ae131"),
    ((5, 6, True), 384,
     "b3a268e8c4430b02e15f782d71bf558965a22ebc5df3178c7049c645a37843b9"),
    ((6, 6, False), 128,
     "da59e54c7d63e0c1998a001b170d0f814a533e1e36e36d5aa513f1630d791f0d"),
]


@pytest.mark.parametrize(
    "case, classes, digest", _GENERATOR_PINS,
    ids=["n%d-d%d-%s" % (n, d, "loops" if loops else "loopless")
         for (n, d, loops), _, _ in _GENERATOR_PINS])
def test_generator_output_is_pinned(case, classes, digest):
    pool = generated(*case)
    assert len(pool) == classes
    assert len({canonical_form(g) for g in pool}) == classes
    lines = sorted(" ".join(map(str, martin_polynomial(g))) for g in pool)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


# (n, degree, loops) -> sha256 of the generator's labelled representatives
# in list order, one line repr((n, sorted mult, sorted loops)) per class.
# The pins above are order-blind; these also fix which labelled graph
# represents each class and the order the classes come in.
_REPRESENTATIVE_PINS = {
    (1, 4, True):
        "809f9cc200750f4b4656206cbb8893e72ed5885ab634605389eb460665548b6f",
    (2, 4, True):
        "6192ee8ad4c59234af3b27f21bf1c5d18611a50600ba75253b42ee00bf322929",
    (3, 4, True):
        "6399015596865d41bd1e46e1439c229b2f2e02470f49010e947a00979a4fd82a",
    (4, 4, True):
        "7cc2c56a3780a5240193fb938d0f5065b449d533d60c47e21e3ecfc3cf00bc46",
    (5, 4, True):
        "ec5882a8459140164fe75d2d05c4ff2a5669c88f5b1e2bacb86a41c62e22f54d",
    (6, 4, True):
        "13b53de2ecc3da12e6e65b1b3fa987c58425133afc93c8b32168449ecf48ed51",
    (7, 4, True):
        "bbdfd7bedd2812dc98c3cd46f57db592eaa3507cb3e7f475795f544518e00395",
    (1, 6, True):
        "cc15f2d98bce043dc4ee36fa5d8dad303621ecc4e9d264e48248cf51761e5110",
    (2, 6, True):
        "53919c0b34690fbf97018e86902f79494f9cd02dc3a65548c1b50da12376dc95",
    (3, 6, True):
        "084bc8ab676e5f390a799faeebbe44ede2ead8ae22f46db695c05ae57160e0aa",
    (4, 6, True):
        "7b6f48d7eeb0ecbfab46efc68538cabdb4ef1d618c38a5d4665c42da605a7482",
    (5, 6, True):
        "3fce1ecdc04c3712ac75958fa50f475cd8ec1cbf70aab2018e4b0b8aba511d29",
    (6, 6, False):
        "df47bd3e723008a029c9bfdd55731d34717b9cfad41d76641998d144d1d3bea0",
}


@pytest.mark.parametrize(
    "case", list(_REPRESENTATIVE_PINS),
    ids=["n%d-d%d-%s" % (n, d, "loops" if loops else "loopless")
         for n, d, loops in _REPRESENTATIVE_PINS])
def test_generator_representatives_are_pinned(case):
    lines = [repr((g.n, sorted(g.mult.items()), sorted(g.loops.items())))
             for g in generated(*case)]
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == _REPRESENTATIVE_PINS[case]


def _compositions(total):
    """Every tuple of positive integers that sums to total."""
    for parts in range(1, total + 1):
        for cuts in itertools.combinations(range(1, total), parts - 1):
            ends = (0,) + cuts + (total,)
            yield tuple(b - a for a, b in zip(ends, ends[1:]))


def reference_symmetric_matrices(d, visit, loops=False):
    """multigraph._symmetric_matrices as it was while each entry summed the
    rest of its row afresh: the reference for its visit order."""
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


def test_symmetric_matrices_match_the_reference():
    # the same matrices and loop counts in the same order, for every
    # composition of a degree up to 12 into at most 5 parts, odd degrees
    # (which have no matrix without loops) included
    def visits(enumerate_, d, loops):
        out = []
        enumerate_(d, lambda D, L: out.append(
            (tuple(map(tuple, D)), tuple(L))), loops)
        return out

    profiles = [d for total in range(1, 13) for d in _compositions(total)
                if len(d) <= 5]
    assert len(profiles) == 1585
    seen = 0
    for d in profiles:
        for loops in (False, True):
            got = visits(_symmetric_matrices, d, loops)
            assert got == visits(reference_symmetric_matrices, d, loops), \
                (d, loops)
            seen += len(got)
    assert seen == 33076


def test_transition_classes_are_pinned():
    # every neighbour profile of even degree up to 8, and (3, 3, 3, 3): the
    # classes with their order, matrices, loop counts and coefficients
    profiles = [d for total in (2, 4, 6, 8) for d in _compositions(total)]
    profiles.append((3, 3, 3, 3))
    assert len(profiles) == 171
    got = repr([(d, _classes(d)) for d in profiles])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "4144f41bd02331fff13163d3b08eef3066d74a354ffb26f9ff0a8caea5e162c3")
    # the loop-free classes are the L = 0 prefix of the full list, in order
    for d in profiles:
        full = _classes(d)
        loop_free = _classes(d, False)
        assert loop_free == full[:len(loop_free)]
        assert not any(any(L) for _, L, _ in loop_free)
        assert all(any(L) for _, L, _ in full[len(loop_free):])


def test_regular_degree():
    assert regular_degree(complete_graph(5)) == 4
    assert regular_degree(k3_113()) == 4
    assert regular_degree(Multigraph(3)) == 0
    with pytest.raises(ValueError):
        regular_degree(Multigraph(0))
    with pytest.raises(ValueError):
        regular_degree(dunce_cap())


# (degree, n) -> sha256 of the sorted hex canonical_form keys of the loopy
# classes, joined by newlines.  These pin the key bytes themselves, which the
# census cache files are keyed by: a change to them must be deliberate and
# ship a versioned cache header.
_KEY_PINS = {
    (4, 1): "d3b9350e5e3bd600581ab6ac66b2c06981899e67bece4f7d1064c8370796d68e",
    (4, 2): "19519f304bc0e5d9368c7d567c19f7efd1bfdbcd0c050492ec2e31c8161cf991",
    (4, 3): "ffab0d5cdb1a7679261b98fc1ba25083d1676536e69a0d75bdeaeceadfd67841",
    (4, 4): "52975789f7d94c23b005c2ceaa3e1c61655c1f9f6d00c3acbb93bec7778052ae",
    (4, 5): "463dd2e57611545e147eb159e27d9146064d15c7a60e849cb5b6b64d17c90406",
    (4, 6): "55452c4be43509032c011eb0e53e48e096283ba576bd1d3ccfb7a049f7c62491",
    (6, 1): "68613b06a98a83428f84085223697d65bf685f3081de813be6c1403a354ffe7e",
    (6, 2): "9da38a0e5292149d565eb0f99af9b8d30c69ad66a3e108a8e39b7ee7cc81c85b",
    (6, 3): "a5b0835b4e9b9f9a4c402fe00768d57f79d3d4ff4002c79a311d192ef2e3de4e",
    (6, 4): "7b37799bdead875551bdfd16ab62bbae7b2cfd4a24e9a8cbf712dc9c9538968a",
    (6, 5): "5c022c4ffbd990458f775eef87d4728ffc81cb66ab30569bf8ced14d406fe95a",
}


def test_canonical_key_bytes_are_pinned():
    got = {}
    for degree, n in _KEY_PINS:
        keys = sorted(canonical_form(g).hex()
                      for g in generated(n, degree=degree))
        got[degree, n] = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert got == _KEY_PINS


def _relabellings(g, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out


# sha256 of the canonical_form keys of three seeded relabellings of each
# batch_scale_graphs() graph, in order, each key followed by a newline
_BATCH_KEY_PIN = (
    "57aaaa6c51e252b3a7242d4611c06c7bc2ae9a92b9fe800eeb459d2e0397a4e3")


def test_canonical_key_bytes_are_pinned_at_batch_scale():
    digest = hashlib.sha256()
    for i, g in enumerate(batch_scale_graphs()):
        for h in _relabellings(g, i):
            digest.update(canonical_form(h) + b"\n")
    assert digest.hexdigest() == _BATCH_KEY_PIN


def _dense_refine(adj, cells):
    """The reference for _refine: each vertex of a cell is signed by one
    sorted list of its multiplicities to every cell, zeros included."""
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


def _recursion_nodes():
    """The loop-free transition children, at every pivot, one and two
    transitions deep below C7(1,2)^[2], C8(1,2)^[2], K5^[3] and the fixed
    12-vertex graph doubled: nodes of the invariant recursion, with the
    unequal multiplicities that the recursion keys."""
    out = {}
    for g in (duplicate(circulant(7, (1, 2)), 2),
              duplicate(circulant(8, (1, 2)), 2),
              duplicate(complete_graph(5), 3),
              duplicate(random_12_vertex(), 2)):
        level = [g]
        for _ in range(2):
            level = [apply_transition(h, v, D) for h in level
                     for v in range(h.n)
                     for D, _, _ in transition_classes(h, v, loops=False)]
            for h in level:
                out.setdefault(h.key(), h)
    return list(out.values())


def test_sparse_refine_matches_the_dense_reference():
    # the seed (degree, loops) partition of canonical_form, and each child
    # of its refinement that individualizes one vertex of the first
    # non-singleton cell, as the search does
    pool = [g for n in range(1, 7) for g in generated(n)]
    pool += [g for n in range(1, 6) for g in generated(n, degree=6)]
    pool += batch_scale_graphs()
    cases = [h for i, g in enumerate(pool) for h in [g] + _relabellings(g, i)]
    for h in cases + _recursion_nodes():
        adj, degs = h.adjacency(), h.degrees()
        seed = {}
        for v in range(h.n):
            seed.setdefault((degs[v], h.loops.get(v, 0)), []).append(v)
        seed = [seed[k] for k in sorted(seed)]
        refined = _dense_refine(adj, [list(c) for c in seed])
        assert _refine(adj, seed) == refined, h
        target = next((ci for ci, c in enumerate(refined) if len(c) > 1),
                      None)
        if target is None:
            continue
        cell = refined[target]
        for v in cell:
            child = [list(c) for c in refined]
            child[target:target + 1] = [[v], [u for u in cell if u != v]]
            want = _dense_refine(adj, [list(c) for c in child])
            assert _refine(adj, child) == want, (h, v)


def _dense_encode(g, lab):
    """The reference for _encode: the tuple of n, the loop counts and the
    upper triangle, read position by position through the labelling lab
    (lab[pos] = vertex) with one adjacency lookup per pair."""
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


def _big_graphs():
    """Graphs whose encodings are tuples: K5^[300], a rose and a dipole with
    more than 255 loops or edges, and a 260-cycle.  Each comes with a
    neighbour not isomorphic to it: of the same degrees, but for the rose,
    whose neighbour has one loop fewer and encodes as bytes."""
    k5 = duplicate(complete_graph(5), 300)
    shifted = dict(k5.mult)  # +1, -1 around the 4-cycle 0-1-2-3
    for e, step in (((0, 1), 1), ((1, 2), -1), ((2, 3), 1), ((0, 3), -1)):
        shifted[e] += step
    return [(k5, Multigraph(5, shifted)),
            (rose(256), rose(255)),
            (dipole(300), Multigraph(2, {(0, 1): 298}, {0: 1, 1: 1})),
            (cycle(260), from_edges(260, [(i, (i + 1) % 130 + 130 * (i >= 130))
                                          for i in range(260)]))]


def test_encode_matches_the_dense_reference():
    # bytes exactly where n and every count fit in one, a tuple otherwise,
    # with the reference's entries either way; key() is the identity's
    rng = random.Random(415)
    pool = [g for n in range(1, 7) for g in generated(n)]
    pool += [g for n in range(1, 6) for g in generated(n, degree=6)]
    pool += batch_scale_graphs() + _recursion_nodes()
    pool += [g for pair in _big_graphs() for g in pair]
    for g in pool:
        labs = [list(range(g.n))]
        for _ in range(2):
            labs.append(rng.sample(range(g.n), g.n))
        for lab in labs:
            at = [0] * g.n
            for i, v in enumerate(lab):
                at[v] = i
            want = _dense_encode(g, lab)
            got = _encode(g, at)
            assert isinstance(got, bytes) == (max(want) < 256), g
            assert tuple(got) == want, g
        assert g.key() == _encode(g, labs[0])


def test_canonical_form_of_tuple_encodings():
    # the key is rendered from the tuple as from bytes: relabellings agree,
    # the neighbour differs, and duplicate's carried form is a fresh one's
    rng = random.Random(416)
    for g, other in _big_graphs():
        want = canonical_form(g)
        assert not isinstance(g.key(), bytes)
        for _ in range(3):
            h = relabel(g, rng.sample(range(g.n), g.n))
            assert canonical_form(h) == want
        assert canonical_form(other) != want
    assert canonical_form(duplicate(complete_graph(5), 300)) == \
        b"5," + b",".join([b"0"] * 5 + [b"300"] * 10)
    assert canonical_form(rose(256)) == b"1,256"
    for g, r in ((complete_graph(5), 300), (rose(1), 256), (dipole(2), 150)):
        canonical_form(g)
        carried = duplicate(g, r)
        assert carried._canon is not None
        fresh = Multigraph(g.n, carried.mult, carried.loops)
        assert carried._canon == canonical_form(fresh)



def test_canonical_form_with_neighbourless_vertices():
    # a doubled triangle plus the edge (0, N) leaves N - 3 vertices with no
    # neighbours; the search explores one of them where it explored each,
    # which took seconds at N = 33
    triangle = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
    graphs = [from_edges(N + 1, triangle + [(0, N)]) for N in range(17, 34)]
    start = time.perf_counter()
    keys = [canonical_form(g) for g in graphs]
    assert time.perf_counter() - start < 1
    assert len(set(keys)) == len(keys)
    rng = random.Random(417)
    for g, key in zip(graphs, keys):
        assert canonical_form(relabel(g, rng.sample(range(g.n), g.n))) == key
        # loops split the neighbourless vertices by count, and only the
        # counts matter
        two = Multigraph(g.n, g.mult, {3: 1, 4: 1})
        assert canonical_form(relabel(two, rng.sample(range(g.n), g.n))) \
            == canonical_form(Multigraph(g.n, g.mult, {g.n - 2: 1, 5: 1}))
        assert canonical_form(two) != canonical_form(
            Multigraph(g.n, g.mult, {3: 2}))

def test_duplicate_carries_the_canonical_form():
    rng = random.Random(413)
    for g in [g for n in range(1, 7) for g in generated(n)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        canonical_form(h)
        for r in (2, 3):
            carried = duplicate(h, r)
            assert carried._canon is not None
            fresh = Multigraph(g.n, carried.mult, carried.loops)
            assert canonical_form(carried) == canonical_form(fresh), (g, r)


def test_known_isomorphic_pairs():
    assert is_isomorphic(octahedron(), circulant(6, (1, 2)))
    assert is_isomorphic(complete_graph(5), circulant(5, (1, 2)))
    assert is_isomorphic(wheel(4), delete_vertex(octahedron(), 0))


def test_known_non_isomorphic_pair():
    g = circulant(7, (1, 2))
    h = complement_c3_c4()
    assert sorted(g.degrees()) == sorted(h.degrees()) == [4] * 7
    assert not is_isomorphic(g, h)
    assert not _brute_isomorphic(g, h)


# --------------------------------------------------------- relabel and friends


def test_relabel_roundtrip():
    g = k4_112()
    perm = [2, 0, 3, 1]
    h = relabel(g, perm)
    inv = [0] * 4
    for old, new in enumerate(perm):
        inv[new] = old
    assert relabel(h, inv).key() == g.key()


def test_relabel_rejects_a_non_permutation():
    g = from_edges(4, [(0, 2), (1, 3)])
    for perm in ([0, 0, 1, 1], [0, 1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            relabel(g, perm)


def test_duplicate_multiplies_every_edge():
    g = k3_113()
    h = duplicate(g, 3)
    assert h.n == g.n
    assert h.edge_count() == 3 * g.edge_count()
    assert h.degrees() == tuple(3 * d for d in g.degrees())
    assert h.loops.get(2) == 3


def test_duplicate_composition():
    for g in (complete_graph(4), k3_113(), dunce_cap()):
        assert duplicate(duplicate(g, 2), 3).key() == duplicate(g, 6).key()
        assert duplicate(g, 1).key() == g.key()
        assert duplicate(g, 1) is g  # graphs are immutable


def test_delete_vertex_mapping():
    g = k3_113()
    h, mapping = induced_subgraph(g, [0, 1])
    assert h == delete_vertex(g, 2)
    assert h.n == 2
    assert mapping == {0: 0, 1: 1}
    assert h.edge_count() == 3  # the triple edge survives, loop at 2 is gone
    assert not h.loops
    assert h.degrees() == (3, 3)
    # a vertex named twice is taken once
    assert induced_subgraph(g, [0, 0, 1]) == (h, mapping)
    looped = from_edges(3, [(0, 0), (1, 2), (1, 2)])
    assert induced_subgraph(looped, [0, 0, 1]) == induced_subgraph(looped, [0, 1])


# ------------------------------------------------------------------ transitions


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1 :]
        for sub in _matchings(rest):
            yield [(first, items[k])] + sub


def _check_transition_mass(g, v):
    """Cross-check the coefficient of every transition class (D, L) against
    raw half-edge matchings."""
    adj = g.adjacency()[v]
    halves = []
    for w in sorted(adj):
        halves.extend([w] * adj[w])
    d = len(halves)
    nbrs = sorted(adj)
    pos = {w: i for i, w in enumerate(nbrs)}

    total = 0
    loop_free = 0
    by_matrix = {}
    by_class = {}
    for m in _matchings(list(range(d))):
        total += 1
        pairs = [(halves[a], halves[b]) for a, b in m]
        D = [[0] * len(nbrs) for _ in nbrs]
        L = [0] * len(nbrs)
        for x, y in pairs:
            if x == y:
                L[pos[x]] += 1  # two strands to one neighbor make a loop
            else:
                D[pos[x]][pos[y]] += 1
                D[pos[y]][pos[x]] += 1
        key = tuple(tuple(row) for row in D)
        by_class[(key, tuple(L))] = by_class.get((key, tuple(L)), 0) + 1
        if any(L):
            continue
        loop_free += 1
        by_matrix[key] = by_matrix.get(key, 0) + 1

    assert total == _double_factorial(d - 1)

    classes = transition_classes(g, v)
    free = transition_classes(g, v, loops=False)
    assert free == tuple(c for c in classes if not any(c[1]))
    enum = [(D, c) for D, _, c in free]
    assert sum(c for _, c in enum) == loop_free
    assert dict(enum) == by_matrix

    assert len(classes) == len(by_class)
    assert {(D, L): c for D, L, c in classes} == by_class
    assert sum(c for _, _, c in classes) == total


def test_transition_mass_degree_four():
    _check_transition_mass(complete_graph(5), 0)
    _check_transition_mass(duplicate(cycle(3), 2), 0)
    _check_transition_mass(k3_113(), 0)
    _check_transition_mass(k4_112(), 0)
    _check_transition_mass(octahedron(), 3)


def test_transition_mass_degree_six_and_eight():
    _check_transition_mass(duplicate(cycle(3), 3), 1)
    _check_transition_mass(complete_graph(7), 2)
    _check_transition_mass(eight_regular_six_vertex(0, 2, 2), 1)


def test_transition_rejects_bad_pivots():
    with pytest.raises(ValueError):
        transition_classes(dunce_cap(), 0)  # odd degree
    with pytest.raises(ValueError):
        transition_classes(k3_113(), 2)  # loop at the pivot
    looped = Multigraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 3}, {0: 1})
    with pytest.raises(ValueError):
        apply_transition(looped, 0, ((0, 1), (1, 0)))  # loop at the pivot
    star = Multigraph(4, {(0, 1): 2, (0, 2): 2, (0, 3): 2})
    with pytest.raises(ValueError):  # rows sum right, but D is asymmetric
        apply_transition(star, 0, ((0, 2, 0), (0, 0, 2), (2, 0, 0)))
    with pytest.raises(ValueError):  # symmetric, rows sum right, one -1
        apply_transition(duplicate(complete_graph(5), 2), 0,
                         ((0, 2, 1, -1), (2, 0, -1, 1),
                          (1, -1, 0, 2), (-1, 1, 2, 0)))
    looped_ends = Multigraph(3, {(0, 1): 2, (0, 2): 2}, {1: 1, 2: 1})
    with pytest.raises(ValueError):  # rows sum right with L = -1 each
        apply_transition(looped_ends, 0, ((0, 4), (4, 0)), (-1, -1))
    k5 = complete_graph(5)
    D = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    for v in (-1, k5.n):  # pivots outside 0..n-1
        with pytest.raises(ValueError):
            transition_classes(k5, v)
        with pytest.raises(ValueError):
            apply_transition(k5, v, D)


def test_transition_single_neighbor_has_no_loop_free_pairing():
    assert transition_classes(dipole(4), 0, loops=False) == ()


def _two_step_transition(g, v, D, L):
    """The reference for apply_transition: the induced subgraph without v,
    then a second graph with the new edges and loops added."""
    h, lab = induced_subgraph(g, [u for u in range(g.n) if u != v])
    nbrs = sorted(g.adjacency()[v])
    mult = dict(h.mult)
    loops = dict(h.loops)
    for i in range(len(nbrs)):
        a = lab[nbrs[i]]
        if L[i]:
            loops[a] = loops.get(a, 0) + L[i]
        for j in range(i + 1, len(nbrs)):
            if D[i][j]:
                e = (a, lab[nbrs[j]])
                mult[e] = mult.get(e, 0) + D[i][j]
    return Multigraph(h.n, mult, loops)


def test_apply_transition_matches_the_two_step_reference():
    # every transition class at every loop-free pivot; the dict order is
    # compared too, so that every later walk over the child's edges and
    # loops visits them in the order it did before
    pool = [g for n in range(2, 7) for g in generated(n)]
    pool += batch_scale_graphs()
    for g in pool:
        for v in range(g.n):
            if g.loops.get(v, 0):
                continue
            for D, L, _ in transition_classes(g, v):
                got = apply_transition(g, v, D, L)
                want = _two_step_transition(g, v, D, L)
                assert got.n == want.n and got.key() == want.key()
                assert list(got.mult.items()) == list(want.mult.items())
                assert list(got.loops.items()) == list(want.loops.items())


def test_apply_transition_preserves_surviving_degrees():
    for g, v in (
        (complete_graph(5), 0),
        (eight_regular_six_vertex(0, 2, 2), 1),
        (k4_112(), 2),
    ):
        before = g.degrees()
        expect = tuple(before[u] for u in range(g.n) if u != v)
        for D, _, coeff in transition_classes(g, v, loops=False):
            assert coeff > 0
            h = apply_transition(g, v, D)
            assert h.n == g.n - 1
            assert h.degrees() == expect
