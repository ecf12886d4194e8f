"""The Martin polynomial and Martin invariant of even multigraphs, computed
by one frontier elimination, plus the handful of closed forms with known
values and the transition-counting symmetry factors.

Both values come from the transition recursion: removing a loop-free vertex
v pairs up its half-edges, and each class of pairings adds edges (and, for
the polynomial, self-loops) among v's neighbours.  _eliminate runs that
recursion for every class at once, one vertex at a time in a fixed order:
the frontier, or transfer-matrix, method of Sekine, Imai and Tani
("Computing the Tutte polynomial of a graph of moderate size", ISAAC 1995).
Once a prefix of the order is gone, the remaining graph is the input's
induced subgraph on the rest plus the edges the transitions added, and those
all join frontier vertices (remaining vertices next to an eliminated one).
So the added edges alone identify a state: no vertex below the input needs a
canonical form, a memo or a cut scan, and the order changes only the cost.
The order is computed once per graph and kept on it, and it fixes every
step's frontier, so a state is one int with a fixed-width field per pair of
that frontier, in one fixed order, and a child is the fields that stay,
shifted down, plus one class's packed addition: one integer sum per child.
The classes are enumerated once per sorted multiset of the pivot's nonzero
multiplicities and kept compact; each vector of multiplicities packs its
multiset's classes, with the positions permuted back, once.
The polynomial's values are ints too, each its coefficient list at a power
of two wide enough that no coefficient carries into the next.

The invariant's values are exact integers once the graph has at least three
vertices; the one- and two-vertex values are the only fractional ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import lshift

from . import polynomial as poly
from .multigraph import (_classes, canonical_form, duplicate, regular_degree,
                         regular_half_degree)

# whole-input memos, canonical_form -> value; a class generator, a batch and
# duplicate all hand over graphs whose canonical form is already cached
_INVARIANT_MEMO = {}
_POLY_MEMO = {}


def _normalize(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _order(g):
    """An elimination order of g's vertices with a narrow frontier, kept on
    g as its canonical form is; duplicate hands it on, since the order reads
    only which pairs are adjacent.

    From a start vertex, the greedy order eliminates next the vertex that
    leaves the smallest frontier, then the one with the most eliminated
    neighbours, then the lowest label; its width is its largest frontier.
    Starts are tried in increasing number of neighbours, and the narrowest
    order wins, the earliest among equals.  A start is abandoned once its
    width reaches the best so far, and the search ends at a width equal to
    the fewest neighbours of any vertex, since every order's first frontier
    is its first vertex's neighbours."""
    if g._order is not None:
        return g._order
    adj = g.adjacency()
    n = g.n
    best, best_width = None, n + 1
    for start in sorted(range(n), key=lambda v: len(adj[v])):
        # per vertex: where it is (0 fresh, 1 on the frontier, 2 gone), its
        # fresh neighbours and its gone ones
        where = [0] * n
        fresh = [len(a) for a in adj]
        gone = [0] * n
        order, size, width = [], 0, 0
        v = start
        while True:
            order.append(v)
            if where[v]:
                size -= 1
            else:
                for w in adj[v]:
                    fresh[w] -= 1
            where[v] = 2
            for u in adj[v]:
                gone[u] += 1
                if not where[u]:
                    where[u] = 1
                    size += 1
                    for w in adj[u]:
                        fresh[w] -= 1
            width = max(width, size)
            if width >= best_width or len(order) == n:
                break
            v = min((fresh[w] - where[w], -gone[w], w)
                    for w in range(n) if where[w] != 2)[2]
        if width < best_width:
            best, best_width = order, width
            if width == min(map(len, adj)):
                break
    g._order = tuple(best)
    return g._order


@lru_cache(maxsize=None)
def _leave(w, t, loops, width):
    """For a frontier of w vertices whose t-th leaves (none does at t = w),
    with a state's slots packed into fields of width bits: the runs of slots
    that stay, each as a (shift, mask) that moves it down into place, and
    the shifts and the joint mask of the t-th's slots with the others, in
    their order.  The positions x <= y, x < y without loops, have the slot
    y(y + 1)/2 + x with loops and y(y - 1)/2 + x without: the pairs column
    by column, so those that stay keep their order.  Cached, as it depends
    on the sizes alone."""
    half = 1 if loops else -1
    keep = [y * (y + half) // 2 + x for y in range(w) if y != t
            for x in range(y + loops) if x != t]
    feed = [max(x, t) * (max(x, t) + half) // 2 + min(x, t)
            for x in range(w) if x != t] if t < w else []
    runs = []  # [how far down, first new slot, slots]
    for j, s in enumerate(keep):
        if runs and runs[-1][0] == s - j:
            runs[-1][2] += 1
        else:
            runs.append([s - j, j, 1])
    runs = tuple((down * width, ((1 << n * width) - 1) << j * width)
                 for down, j, n in runs)
    field = (1 << width) - 1
    return (runs, tuple(s * width for s in feed),
            sum(field << s * width for s in feed))


# (sorted nonzero profile, loops) -> its transition classes, one
# (L, coeffs, upper) per loop vector L (see _profile_classes)
_CLASSES = {}
# (loops, field width) -> the pivot's multiplicities to the next frontier
# -> its transition classes as packed additions (see _resolve)
_RESOLVED = {}
# (loops, field width) -> a step's layout (base, feed) -> the pivot's fields
# in a state -> their resolution, which those four fix
_LAYOUTS = {}


def _profile_classes(profile, loops):
    """The transition classes at a pivot whose neighbours have the
    multiplicities profile, sorted, kept in _CLASSES: one (L, coeffs, upper)
    per loop vector L, with its classes' coefficients and their matrices'
    upper triangles, column by column, one class after another.  upper is
    one byte per entry, or a tuple when an entry exceeds 255, which only a
    pivot of degree 512 or more can make."""
    got = _CLASSES.get((profile, loops))
    if got is None:
        by_loops = {}
        for D, L, coeff in _classes(profile, loops):
            coeffs, upper = by_loops.setdefault(L, ([], []))
            coeffs.append(coeff)
            upper += [D[x][y] for y in range(len(D)) for x in range(y)]
        got = _CLASSES[profile, loops] = tuple(
            (L, tuple(coeffs),
             bytes(upper) if max(upper, default=0) < 256 else tuple(upper))
            for L, (coeffs, upper) in by_loops.items())
    return got


def _resolve(mult, loops, width):
    """The transition classes of a pivot with multiplicities mult to the
    next frontier, each as the packed addition delta of its new edges to a
    state, with its coefficient: one (made, diagonal, pairs) per loop
    vector, the (position, count) of the loops it makes, their packed
    addition to the diagonal slots, and its classes' (delta, coeff) pairs.
    Without loops there is one, which makes none.

    The classes are those of the sorted multiset of the nonzero
    multiplicities (_profile_classes), so the vectors that permute one
    multiset share one enumeration: the positions are sorted by
    multiplicity, and each class is packed with the positions permuted
    back, a pair's slot from the smaller and the larger of its two
    positions and a loop's from its position's diagonal slot."""
    at = sorted((p for p, m in enumerate(mult) if m), key=mult.__getitem__)
    half = 1 if loops else -1
    shifts = [(b * (b + half) // 2 + a if a < b else a * (a + half) // 2 + b)
              * width for y, b in enumerate(at) for a in at[:y]]
    diagonal = [p * (p + 3) // 2 * width for p in at]
    out = []
    for L, coeffs, upper in _profile_classes(tuple(mult[p] for p in at),
                                             loops):
        if shifts:
            rows = zip(*[iter(upper)] * len(shifts))
            deltas = [sum(map(lshift, row, shifts)) for row in rows]
        else:
            deltas = [0] * len(coeffs)
        out.append((tuple((at[x], c) for x, c in enumerate(L) if c),
                    sum(c << s for c, s in zip(L, diagonal)),
                    tuple(zip(deltas, coeffs))))
    return tuple(out)


def _eliminate(g, k=None):
    """The transition recursion of g, run by eliminating its vertices along
    _order(g).  The order fixes the frontier before every step, so a state
    is one int with a field of width bits per slot of that frontier's pairs
    (see _leave): the edges added between two frontier vertices, and for
    the polynomial the self-loops already stripped at one.  The eliminated
    vertex leaves the frontier and those of its later neighbours not on it
    join at the end, so a child is the state's fields that stay, shifted
    down, plus one class's packed addition.  Each step visits each state
    once: the states that agree on the pivot's fields give it one vector of
    multiplicities, whose resolution into additions (_resolve, kept in
    _RESOLVED) is kept in _LAYOUTS under the step's layout, so later steps
    and calls with that layout find it from those fields.

    With k, g is loop-free and 2k-regular with n >= 3, and the result is M:
    loop-free classes only, a child dropped once a pair holds more than k
    edges (that pair's cut of 4k - 2m edges is below 2k, so M is 0), and
    each state of the last 3 vertices, a triangle of k-bundles, counts 1.
    A field has a guard bit above room for 2k, and each step biases the
    fields so that a pair's guard bit is set exactly when it holds too
    many edges: one test per child.
    Without k, the result is the coefficient list of J(g; x), the sum over
    the transition systems T of x^c(T), c(T) the number of circuits: every
    class, and each self-loop stripped as it is made.  The last vertex then
    has no edge and no loop left, so J is the sum of the values before it.
    A value is its coefficient list at x = 2^b, where 2^b exceeds the number
    of transition systems: J's coefficients are nonnegative and sum to that
    number, so none carries into the next."""
    adj = g.adjacency()
    order = _order(g)
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    loops = k is None
    if loops:
        degree = [sum(a.values()) for a in adj]  # with every loop stripped
        dmax = max(g.degrees() + (1,))  # no field holds more
        width = dmax.bit_length()
        systems = 1
        for d in g.degrees():
            for j in range(d - 1, 1, -2):
                systems *= j
        b = systems.bit_length()
        # what J gains when c self-loops leave a vertex of degree d:
        # (x + d - 2 - 2t) for the t-th.  A loop's two ends either pair
        # with each other, closing a circuit, or sit inside one of the
        # other (d - 2 - 2t)/2 pairs at the vertex, in 2 ways
        factor = []
        for d in range(dmax + 1):
            row = [1]
            for t in range(d // 2):
                row.append(row[-1] * ((1 << b) + d - 2 - 2 * t))
            factor.append(row)
        value = 1
        for v, c in g.loops.items():
            value *= factor[degree[v] + 2 * c][c]
        last = g.n - 1
    else:
        width = (2 * k).bit_length() + 1
        top = (1 << width - 1) - 1  # below the guard bit; at least 2k
        value = 1
        last = g.n - 3
    states = {0: value}
    field = (1 << width) - 1
    cache = _RESOLVED.setdefault((loops, width), {})
    layouts = _LAYOUTS.setdefault((loops, width), {})
    front = []
    for i, v in enumerate(order[:last]):
        nbrs = adj[v]
        nfront = [u for u in front if u != v]
        nfront += [u for u in nbrs if rank[u] > i and u not in front]
        runs, feed, mask = _leave(len(front), front.index(v) if v in front
                                  else len(front), loops, width)
        bias = guard = 0
        if loops:
            made_at = [(p * (p + 3) // 2 * width, degree[u])
                       for p, u in enumerate(nfront)]
        else:
            # a pair's field holds at most k, and its room is the
            # max(k - m, 0) edges it may take above the input's m; biased by
            # top - room, it reaches the guard bit above top exactly when it
            # takes more, and an addition of at most k cannot pass that bit
            for y in range(1, len(nfront)):
                row = adj[nfront[y]]
                for x in range(y):
                    s = (y * (y - 1) // 2 + x) * width
                    bias |= top - max(k - row.get(nfront[x], 0), 0) << s
                    guard |= top + 1 << s
        # the pivot's multiplicities to the next frontier are the input's
        # plus, for the vertices that stay, what a state holds at feed
        base = [nbrs.get(u, 0) for u in nfront]
        resolutions = layouts.setdefault((tuple(base), feed), {})
        children = {}
        for state, value in states.items():
            row = state & mask
            resolved = resolutions.get(row)
            if resolved is None:
                mult = base[:]
                for p, s in enumerate(feed):
                    mult[p] += row >> s & field
                mult = tuple(mult)
                resolved = cache.get(mult)
                if resolved is None:
                    resolved = cache[mult] = _resolve(mult, loops, width)
                resolutions[row] = resolved
            start = 0
            for s, m in runs:
                start |= state >> s & m
            for made, diagonal, pairs in resolved:
                term = value
                for p, c in made:
                    s, d = made_at[p]
                    term *= factor[d - 2 * (start >> s & field)][c]
                looped = start + diagonal
                biased = looped + bias
                for delta, coeff in pairs:
                    if not biased + delta & guard:
                        key = looped + delta
                        children[key] = children.get(key, 0) + coeff * term
        states, front = children, nfront
    total = sum(states.values())
    if not loops:
        return total
    coefficients = []
    while total:
        coefficients.append(total & (1 << b) - 1)
        total >>= b
    return coefficients


# -- Martin polynomial ---------------------------------------------------


def _mpoly(g):
    """m of g: J(x) = x m(x + 2), and J has no constant term."""
    key = canonical_form(g)
    got = _POLY_MEMO.get(key)
    if got is None:
        got = _POLY_MEMO[key] = poly.shift(_eliminate(g)[1:], -2)
    return got


def martin_polynomial(g):
    """Exact transition-system generating polynomial m(g, x): the sum of
    (x-2)^(circuits-1) over all transition systems."""
    if g.n == 0:
        raise ValueError("empty graph")
    degrees = g.degrees()
    if any(d % 2 for d in degrees):
        raise ValueError("all vertex degrees must be even")
    if 0 in degrees:
        raise ValueError("edgeless component has no Martin polynomial")
    return _mpoly(g)


def circuit_partition_polynomial(g):
    """J(g, x) = x * m(g, x + 2); its linear coefficient counts Eulerian
    circuits."""
    m = martin_polynomial(g)
    return poly.mul((0, 1), poly.shift(m, 2))


# -- Martin invariant ----------------------------------------------------


def _minv(g, k):
    """Invariant of a loop-free 2k-regular graph with >= 3 vertices."""
    key = canonical_form(g)
    got = _INVARIANT_MEMO.get(key)
    if got is None:
        got = _INVARIANT_MEMO[key] = _eliminate(g, k)
    return got


def martin_invariant(g):
    """Exact Martin invariant of a 2k-regular multigraph: the normalized
    derivative of the Martin polynomial at 4-2k, computed by the transition
    recursion.

    Integer for three or more vertices; 2^k/(2k)! for the k-rose and 1/k!
    for the 2k-dipole.
    """
    k = regular_half_degree(g)
    if g.n == 1:
        return _normalize(Fraction(2 ** k, factorial(2 * k)))
    if g.loops:
        return 0
    if g.n == 2:
        return _normalize(Fraction(1, factorial(k)))
    return _minv(g, k)


def martin_sequence(g, r_max):
    """[M(g^[1]), ..., M(g^[r_max])]; for odd-degree graphs only even powers
    are even-regular, so those are returned: [M(g^[2]), M(g^[4]), ...]."""
    if r_max < 1:
        raise ValueError("r_max must be positive")
    odd = any(d % 2 for d in g.degrees())
    rs = [r for r in range(1, r_max + 1) if not (odd and r % 2)]
    return [martin_invariant(duplicate(g, r)) for r in rs]


# -- closed forms --------------------------------------------------------


def closed_form_circulant(n):
    """M of the doubled-jump circulant on n >= 5 vertices (jumps 1 and 2)."""
    if n < 5:
        raise ValueError("closed form needs n >= 5")
    num = (3 * n - 2) * 2 ** (n - 3) - 2 * (-1) ** n
    if num % 9:
        raise AssertionError("circulant closed form did not divide evenly")
    return num // 9


def closed_form_prism(ell):
    """M of the doubled prism over an (ell+1)-gon, ell >= 2."""
    if ell < 2:
        raise ValueError("closed form needs ell >= 2")
    return 4 ** (2 * ell - 1) * (3 ** (ell - 2) * (4 * ell - 1) - 1)


def closed_form_K5_power(r):
    """M of the r-fold power of the complete graph on five vertices."""
    if r < 1:
        raise ValueError("r must be positive")
    total = 0
    for a in range(r + 1):
        for b in range(r + 1 - a):
            c = r - a - b
            term = 1
            for x in (a, b, c):
                term *= comb(r + x, x) * comb(r, x)
            total += term
    return factorial(r) ** 4 * total


# -- symmetry factors ----------------------------------------------------


def symmetry_factor(g, N, decompleted=False):
    """Transition-count weights of a 4-regular graph: 3^-n * J(g, N), or for
    the decompleted graph (m(g, x)/x at x = N+2) / 3^(n-1).  The decompleted
    variant at N = -2 equals 2 * 3^(2-n) * M(g)."""
    if regular_degree(g) != 4:
        raise ValueError("symmetry factors are for 4-regular graphs")
    N = Fraction(N)
    m = martin_polynomial(g)
    if decompleted:
        if m and m[0]:
            raise AssertionError("Martin polynomial has a nonzero constant term")
        reduced = m[1:]
        return _normalize(Fraction(poly.evaluate(reduced, N + 2),
                                   3 ** (g.n - 1)))
    return _normalize(Fraction(N * poly.evaluate(m, N + 2), 3 ** g.n))
