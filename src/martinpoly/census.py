"""Batch computation over lists of graphs: a plain-text graph file format,
a persistent line-oriented result cache keyed by canonical form, grouping by
invariant, and the command-line interface."""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import families, martin, oracle, polynomial, residues, structure
from .multigraph import (canonical_form, delete_vertex, duplicate, from_edges,
                         is_connected)

GraphRecord = namedtuple("GraphRecord", ["name", "edges"])

InvariantRecord = namedtuple(
    "InvariantRecord", ["name", "key", "n", "degree", "values", "errors"])


def parse_graph_file(path):
    """One graph per nonempty, non-comment line: "name: u1 v1 u2 v2 ...".
    Repeated pairs encode multiplicity, "u u" a self-loop.  Endpoints are
    ASCII integers; names hold no tab or comma, the output's separators."""
    records = []
    names = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ValueError("%s:%d: missing 'name:' prefix" % (path, lineno))
            name, rest = line.split(":", 1)
            name = name.strip()
            if not name:
                raise ValueError("%s:%d: empty graph name" % (path, lineno))
            if "\t" in name or "," in name:
                raise ValueError("%s:%d: tab or comma in graph name %r"
                                 % (path, lineno, name))
            if name in names:
                raise ValueError("%s:%d: duplicate name %r" % (path, lineno, name))
            fields = rest.split()
            if len(fields) % 2:
                raise ValueError("%s:%d: odd number of endpoints" % (path, lineno))
            # int() alone would also take "1_0", "+3" and non-ASCII digits
            joined = "".join(fields)
            try:
                if not joined.isascii() or "_" in joined or "+" in joined:
                    raise ValueError
                ends = [int(f) for f in fields]
            except ValueError:
                raise ValueError("%s:%d: non-integer endpoint" % (path, lineno))
            if any(e < 0 for e in ends):
                raise ValueError("%s:%d: negative vertex label" % (path, lineno))
            edges = list(zip(ends[0::2], ends[1::2]))
            names.add(name)
            records.append(GraphRecord(name, edges))
    return records


def record_to_graph(record):
    """The record's graph on the vertices 0..(largest label).  A label below
    the largest that no edge uses is an error: every task rejects a vertex
    without edges, so the record gets one graph error naming the label."""
    n = 1 + max((max(u, v) for (u, v) in record.edges), default=0)
    used = {v for e in record.edges for v in e}
    for v in range(n):
        if v not in used:
            raise ValueError("vertex label %d is unused" % v)
    return from_edges(n, record.edges)


_HEX_DIGITS = frozenset("0123456789abcdef")
_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_RESIDUE = re.compile(r"([0-9]+) mod ([0-9]+)")
# the task grammar of both _compute_task and the cache: M, M<r>, poly,
# perm and c2@<p>, with r and p written without leading zeros
_TASK = re.compile(r"M(?P<r>[1-9][0-9]*)?|poly|perm|c2@(?P<p>[1-9][0-9]*)")


def _is_rational(text):
    """Whether text is a rational as str(Fraction) writes it: in lowest
    terms, with no leading zero, no "-0" and no denominator 1."""
    return bool(_RATIONAL.fullmatch(text)) and str(Fraction(text)) == text


def _valid_value(task, value):
    """Whether value is written as _compute_task writes task's values: a
    rational for M and M<r>, rationals joined by commas for poly, and
    "<r> mod <m>" with 0 <= r < m for perm and c2@<p>, where m must be the
    prime p."""
    parsed = _TASK.fullmatch(task)
    if not parsed:
        return False
    if task.startswith("M"):
        return _is_rational(value)
    if task == "poly":
        return all(_is_rational(c) for c in value.split(","))
    residue = _RESIDUE.fullmatch(value)
    if not residue:
        return False
    r, m = int(residue[1]), int(residue[2])
    p = parsed["p"]
    if p and (m != int(p) or not residues.is_prime(m)):
        return False
    return r < m and "%d mod %d" % (r, m) == value


def _cache_fields(line):
    """(key, task, value) of a complete cache line, or None when the line is
    torn (no final newline, as a kill mid-append leaves it), malformed, or
    holds a task or value that _compute_task never writes."""
    if not line.endswith("\n"):
        return None
    fields = line[:-1].split("\t")
    if len(fields) != 3 or not all(fields) \
            or not _HEX_DIGITS.issuperset(fields[0]) \
            or not _valid_value(fields[1], fields[2]):
        return None
    return fields


class InvariantCache:
    """Append-only file of "hex-key TAB task TAB value" lines; duplicate
    (key, task) pairs are resolved last-wins, and they, torn lines,
    malformed lines and lines whose task or value does not parse are
    compacted away on load.  A value is only ever read from a complete,
    well-formed line whose value has its task's form.

    A cache with a path keeps one append handle on its file from then on,
    and flushes it after every line, so a killed run keeps each line it
    completed; close() releases the handle."""

    def __init__(self, path=None):
        self.path = path
        self.data = {}
        if path and os.path.exists(path):
            dirty = False
            # bytes that do not decode become lone surrogates, which no
            # field's ASCII grammar admits, so their line is dropped as
            # malformed instead of failing the whole load
            with open(path, errors="surrogateescape") as fh:
                for line in fh:
                    fields = _cache_fields(line)
                    if fields is None:
                        dirty = True
                        continue
                    key_hex, task, value = fields
                    dirty = dirty or (key_hex, task) in self.data
                    self.data[(key_hex, task)] = value
            if dirty:
                self._compact()
        self._fh = open(path, "a") if path else None

    def _compact(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            for (key_hex, task), value in sorted(self.data.items()):
                fh.write("%s\t%s\t%s\n" % (key_hex, task, value))
        os.replace(tmp, self.path)

    def get(self, key_hex, task):
        return self.data.get((key_hex, task))

    def put(self, key_hex, task, value):
        if self.data.get((key_hex, task)) == value:
            return
        self.data[(key_hex, task)] = value
        if self._fh:
            self._fh.write("%s\t%s\t%s\n" % (key_hex, task, value))
            self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()


def _compute_task(g, task):
    parsed = _TASK.fullmatch(task)
    if not parsed:
        raise ValueError("unknown task %r" % task)
    if task.startswith("M"):
        r = int(parsed["r"] or 1)
        return str(martin.martin_invariant(duplicate(g, r)))
    if task == "poly":
        coeffs = martin.martin_polynomial(g)
        return ",".join(map(str, coeffs))
    if task == "perm":
        rep = residues.permanent_square_residue(g)
        return "%d mod %d" % (rep.residue, rep.modulus)
    rep = residues.c2_from_martin(g, int(parsed["p"]))
    return "%d mod %d" % (rep.residue, rep.modulus)


def compute_batch(records, tasks, cache=None):
    """Run every task on every record; failures are recorded per task and do
    not abort the batch.  Results come from the cache when present."""
    if cache is None:
        cache = InvariantCache()
    out = []
    for record in records:
        values = {}
        errors = {}
        try:
            g = record_to_graph(record)
            key_hex = canonical_form(g).hex()
            n, degs = g.n, sorted(set(g.degrees()))
            degree = str(degs[0]) if len(degs) == 1 else "mixed"
        except (ValueError, AssertionError) as exc:
            out.append(InvariantRecord(record.name, None, None, None, {},
                                       {"graph": str(exc)}))
            continue
        for task in tasks:
            hit = cache.get(key_hex, task)
            if hit is not None:
                values[task] = hit
                continue
            try:
                value = _compute_task(g, task)
            except ValueError as exc:
                errors[task] = str(exc)
                continue
            values[task] = value
            cache.put(key_hex, task, value)
        out.append(InvariantRecord(record.name, key_hex, n, degree, values,
                                   errors))
    return out


def group_by_invariant(records, tasks):
    """Partition computed records into classes with equal values of the
    tasks.  Records missing any of them form their own class apiece."""
    classes = {}
    for rec in records:
        try:
            signature = tuple((t, rec.values[t]) for t in tasks)
        except KeyError:
            signature = (("incomplete", rec.name),)
        classes.setdefault(signature, []).append(rec.name)
    return sorted((sig, sorted(names)) for sig, names in classes.items())


def _write_tsv(records, tasks, out):
    out.write("\t".join(["name", "n", "degree"] + list(tasks)) + "\n")
    for rec in records:
        row = [rec.name, str(rec.n), str(rec.degree)]
        for task in tasks:
            if task in rec.values:
                row.append(rec.values[task])
            else:
                row.append("error: " + rec.errors.get(task, rec.errors.get("graph", "?")))
        out.write("\t".join(row) + "\n")


# -- verification suites ----------------------------------------------------


def _check(ok, label, failures):
    print("%s - %s" % ("ok" if ok else "FAIL", label))
    if not ok:
        failures.append(label)


def _suite_identities():
    failures = []
    g = families.complete_graph(5)
    m = martin.martin_polynomial(g)
    J = martin.circuit_partition_polynomial(g)
    _check(polynomial.evaluate(J, 1) ==
           polynomial.evaluate(m, 3), "circuit polynomial is shifted Martin", failures)
    pair = martin.martin_sequence(families.complete_graph(5), 2)
    _check(pair == [6, 2016], "Martin sequence of the 5-clique", failures)
    dsq = structure.decompose(duplicate(families.cycle(6), 2))
    _check(len(dsq) == 4, "doubled 6-cycle splits into four triangles", failures)
    ok = True
    for n in range(3, 7):
        for g in families.regular_multigraphs(n, 4):
            if not is_connected(g):
                continue
            ok = ok and martin.martin_invariant(g) == \
                oracle.invariant_from_polynomial(martin.martin_polynomial(g), g)
    _check(ok, "elimination matches the polynomial's derivative", failures)
    return failures


def _suite_oracles():
    failures = []
    ok = True
    for n in range(2, 6):
        for g in families.regular_multigraphs(n, 4):
            value = oracle.martin_brute_force(g)
            ok = ok and value.polynomial == tuple(martin.martin_polynomial(g))
    _check(ok, "elimination matches the brute-force polynomial", failures)
    k4 = families.complete_graph(4)
    _check(oracle.count_tree_partitions(k4, 2, ordered=False) == 6,
           "tree partitions of the 4-clique", failures)
    return failures


def _suite_residues():
    failures = []
    octa = families.octahedron()
    k5 = families.complete_graph(5)
    ok = True
    for g, vinf in ((octa, 5), (k5, 4)):
        for p in (2, 3):
            a = residues.c2(delete_vertex(g, vinf), p).residue
            b = residues.c2_from_martin(g, p, allow_small=True).residue
            c = residues.c2_from_trees_forests(g, 0, 1, p).residue
            ok = ok and a == b == c
    _check(ok, "three c2 routes agree", failures)
    a = residues.c2(delete_vertex(octa, 5), 5).residue
    b = residues.c2_from_martin(octa, 5).residue
    _check(a == b == 4, "point count and Martin route agree at p = 5",
           failures)
    ok = True
    for n in range(5, 7):
        for g in families.regular_multigraphs(n, 4):
            rep = residues.permanent_square_residue(g)
            M = martin.martin_invariant(g)
            ok = ok and (-1) ** (n - 1) * rep.residue % 3 == M % 3
    _check(ok, "squared permanent matches the Martin residue", failures)
    return failures


def _suite_closed_forms():
    failures = []
    ok = True
    for n in range(5, 9):
        got = martin.martin_invariant(families.circulant(n, (1, 2)))
        ok = ok and got == martin.closed_form_circulant(n)
    _check(ok, "two-jump circulants", failures)
    ok = True
    for ell in (2, 3):
        got = martin.martin_invariant(families.doubled_prism(ell + 1))
        ok = ok and got == martin.closed_form_prism(ell)
    _check(ok, "doubled prisms", failures)
    ok = True
    for r in (1, 2):
        got = martin.martin_invariant(duplicate(families.complete_graph(5), r))
        ok = ok and got == martin.closed_form_K5_power(r)
    _check(ok, "5-clique powers", failures)
    return failures


_SUITES = {
    "identities": _suite_identities,
    "oracles": _suite_oracles,
    "residues": _suite_residues,
    "closed-forms": _suite_closed_forms,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="martinpoly",
        description="Martin invariants, permanents and c2 residues of "
                    "even-regular multigraphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    # the options compute and report share
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--input", required=True)
    batch.add_argument("--tasks", default="M",
                       help="comma list: M, M<r>, poly, perm, c2@<p>")
    batch.add_argument("--cache", default=None)
    batch.add_argument("--out", default=None)

    sub.add_parser("compute", parents=[batch],
                   help="compute invariants for a graph file")

    p_verify = sub.add_parser("verify", help="run a built-in property suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(_SUITES))

    sub.add_parser("report", parents=[batch],
                   help="group graphs by invariant values")

    # an argument the verb does not take is that verb's usage error, as
    # every other one is
    args, unknown = parser.parse_known_args(argv)
    error = sub.choices[args.verb].error
    if unknown:
        error("unrecognized arguments: %s" % " ".join(unknown))

    if args.verb == "verify":
        failures = _SUITES[args.suite]()
        return 1 if failures else 0

    # a task named twice runs once
    tasks = list(dict.fromkeys(t for t in args.tasks.split(",") if t))
    if not tasks:
        error("no task: --tasks names none")
    # opening --out truncates the file the cache then appends its lines to
    if (args.cache and args.out and
            os.path.realpath(args.cache) == os.path.realpath(args.out)):
        error("--out names the --cache file %s" % args.out)
    try:
        records = parse_graph_file(args.input)
    except (OSError, ValueError) as exc:
        error("--input: %s" % exc)
    # an unusable --cache or --out fails here, before any value is computed
    try:
        cache = InvariantCache(args.cache)
    except OSError as exc:
        error("--cache: %s" % exc)
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        cache.close()
        error("--out: %s" % exc)
    try:
        computed = compute_batch(records, tasks, cache)
        if args.verb == "compute":
            _write_tsv(computed, tasks, out)
        else:
            out.write("class\tmembers\tinvariants\n")
            for i, (sig, names) in enumerate(group_by_invariant(computed, tasks)):
                desc = ";".join("%s=%s" % kv for kv in sig)
                out.write("%d\t%s\t%s\n" % (i, ",".join(names), desc))
    finally:
        cache.close()
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
