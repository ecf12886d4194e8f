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

The invariant's values are exact integers once the graph has at least three
vertices; the one- and two-vertex values are the only fractional ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

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
    """An elimination order of g's vertices with a narrow frontier.

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


def _strip_loops(p, d, c):
    """The coefficient list p times the factor J gains when c self-loops
    leave a vertex of degree d: (x + d - 2 - 2t) for the t-th.  A loop's
    two ends either pair with each other, closing a circuit, or sit inside
    one of the other (d - 2 - 2t)/2 pairs at the vertex, in 2 ways."""
    for t in range(c):
        a = d - 2 - 2 * t
        p = [a * x + y for x, y in zip(p + [0], [0] + p)]
    return p


def _eliminate(g, k=None):
    """The transition recursion of g, run by eliminating its vertices along
    _order(g).  A state is the sorted tuple of ((a, b), m): m edges added
    between the frontier vertices a < b, and for the polynomial m self-loops
    already stripped at a == b.

    With k, g is loop-free and 2k-regular with n >= 3, and the result is M:
    loop-free classes only, a child dropped once a pair holds more than k
    edges (that pair's cut of 4k - 2m edges is below 2k, so M is 0), and
    each state of the last 3 vertices, a triangle of k-bundles, counts 1.
    Without k, the result is the coefficient list of J(g; x), the sum over
    the transition systems T of x^c(T), c(T) the number of circuits: every
    class, each self-loop stripped as it is made, and every vertex
    eliminated."""
    adj = g.adjacency()
    order = _order(g)
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    loops = k is None
    if loops:
        degree = [sum(a.values()) for a in adj]  # with every loop stripped
        value = [1]
        for v, c in g.loops.items():
            value = _strip_loops(value, degree[v] + 2 * c, c)
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
            last_loops = None
            for D, L, coeff in _classes(tuple(nbrs[u] for u in ns), loops):
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
                            term = _strip_loops(
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
