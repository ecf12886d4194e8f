"""Per-layer hooks into martinpoly and the per-layer metrics built on them.

Each metric names the span names it is built from; when a hook's target is
gone from the library, those spans are never installed and the metric is
left out of the report instead of failing the run.
"""

# fixed here rather than read from structure, so that big_nodes keeps its
# meaning if the library's exhaustive-scan limit changes or goes
EXHAUSTIVE_CUT_LIMIT = 16
POLY_OPS = ("add", "mul", "scale", "evaluate", "derivative", "shift")


def _count_classes(counts, args, kwargs, result):
    counts["families.classes"] += len(result)


def _count_big_nodes(counts, args, kwargs, result):
    if args[0].n > EXHAUSTIVE_CUT_LIMIT:
        counts["structure.big_nodes"] += 1


def _count_points(counts, args, kwargs, result):
    g, p = args[0], args[1]
    counts["residues.points_swept"] += p ** len(g.edge_instances())


def _count_ryser_terms(counts, args, kwargs, result):
    counts["residues.ryser_terms"] += 2 ** len(args[0])


def _count_cache_lookups(counts, args, kwargs, result):
    counts["census.cache_hits" if result is not None
           else "census.cache_misses"] += 1


# (module, attribute, span name, counter, is a generator)
HOOKS = [
    ("families", "regular_multigraphs", "families.regular_multigraphs",
     _count_classes, False),
    ("multigraph", "canonical_form", "multigraph.canonical_form", None, False),
    ("multigraph", "apply_transition", "multigraph.apply_transition", None,
     False),
    ("martin", "_minv", "martin._minv", None, False),
    ("martin", "_mpoly", "martin._mpoly", None, False),
    ("structure", "_all_cuts", "structure._all_cuts", None, True),
    ("structure", "edge_connectivity", "structure.edge_connectivity",
     _count_big_nodes, False),
    ("structure", "split_edge_cut", "structure.split_edge_cut", None, False),
    ("residues", "point_count", "residues.point_count", _count_points, False),
    ("residues", "_ryser_permanent", "residues._ryser_permanent",
     _count_ryser_terms, False),
    ("census", "parse_graph_file", "census.parse_graph_file", None, False),
    ("census", "InvariantCache.__init__", "census.cache_load", None, False),
    ("census", "InvariantCache.get", "census.cache_get",
     _count_cache_lookups, False),
    ("census", "InvariantCache.put", "census.cache_put", None, False),
    ("census", "compute_batch", "census.compute_batch", None, False),
] + [("polynomial", op, "polynomial." + op, None, False) for op in POLY_OPS]


def install(tracer):
    for module, attr, name, count, generator in HOOKS:
        tracer.hook("martinpoly." + module, attr, name, count, generator)


_GEN = "families.regular_multigraphs"
_CF = "multigraph.canonical_form"
_AT = "multigraph.apply_transition"
_RECURSION = ("martin._minv", "martin._mpoly")
_SCAN = "structure._all_cuts"
_SPLIT = "structure.split_edge_cut"
_CUTS = (_SCAN, "structure.edge_connectivity")
_POLY = tuple("polynomial." + op for op in POLY_OPS)


def _leaves(t):
    """Canonical forms computed directly by the class generator: one per
    labelled leaf of its backtrack."""
    gen_ids = {s[0] for s in t.spans if s[1] == _GEN}
    return sum(1 for s in t.spans if s[1] == _CF and s[4] in gen_ids)


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, span names required, value from the tracer)
METRICS = {
    "families.generate_s": ("s", (_GEN,), lambda t: t.busy_s[_GEN]),
    "families.leaves": ("count", (_GEN, _CF), _leaves),
    "families.classes": ("count", (_GEN,),
                         lambda t: t.counts["families.classes"]),
    "families.useful_ratio": ("ratio", (_GEN, _CF),
                              lambda t: _ratio(t.counts["families.classes"],
                                               _leaves(t))),
    "multigraph.canonical_form_calls": ("count", (_CF,),
                                        lambda t: t.counts[_CF]),
    "multigraph.canonical_form_s": ("s", (_CF,), lambda t: t.self_s[_CF]),
    "multigraph.apply_transition_s": ("s", (_AT,), lambda t: t.self_s[_AT]),
    "multigraph.transitions_expanded": ("count", (_AT,),
                                        lambda t: t.counts[_AT]),
    "martin.recursion_nodes": ("count", _RECURSION,
                               lambda t: sum(t.counts[n] for n in _RECURSION)),
    "martin.self_s": ("s", _RECURSION,
                      lambda t: sum(t.self_s[n] for n in _RECURSION)),
    "structure.cut_scan_s": ("s", _CUTS,
                             lambda t: sum(t.self_s[n] for n in _CUTS)),
    "structure.cuts_scanned": ("count", (_SCAN,),
                               lambda t: t.counts[_SCAN + ".items"]),
    "structure.cut_shortcuts": ("count", (_SPLIT,),
                                lambda t: t.counts[_SPLIT]),
    "structure.big_nodes": ("count", ("structure.edge_connectivity",),
                            lambda t: t.counts["structure.big_nodes"]),
    "polynomial.ops": ("count", _POLY,
                       lambda t: sum(t.counts[n] for n in _POLY)),
    "polynomial.s": ("s", _POLY, lambda t: sum(t.self_s[n] for n in _POLY)),
    "residues.point_count_s": ("s", ("residues.point_count",),
                               lambda t: t.self_s["residues.point_count"]),
    "residues.points_swept": ("count", ("residues.point_count",),
                              lambda t: t.counts["residues.points_swept"]),
    "residues.permanent_s": ("s", ("residues._ryser_permanent",),
                             lambda t: t.self_s["residues._ryser_permanent"]),
    "residues.ryser_terms": ("count", ("residues._ryser_permanent",),
                             lambda t: t.counts["residues.ryser_terms"]),
    "census.parse_s": ("s", ("census.parse_graph_file",),
                       lambda t: t.self_s["census.parse_graph_file"]),
    "census.cache_load_s": ("s", ("census.cache_load",),
                            lambda t: t.self_s["census.cache_load"]),
    "census.cache_hits": ("count", ("census.cache_get",),
                          lambda t: t.counts["census.cache_hits"]),
    "census.cache_misses": ("count", ("census.cache_get",),
                            lambda t: t.counts["census.cache_misses"]),
    "census.cache_appends": ("count", ("census.cache_put",),
                             lambda t: t.counts["census.cache_put"]),
    "census.batch_self_s": ("s", ("census.compute_batch",),
                            lambda t: t.self_s["census.compute_batch"]),
}

# read from the library directly rather than from the spans
MEMO_METRIC = ("martin.memo_entries", "count")


def metric_values(tracer):
    return {name: fn(tracer) for name, (_, needs, fn) in METRICS.items()
            if all(n in tracer.installed for n in needs)}


def memo_entries(martin_module):
    memos = [getattr(martin_module, name, None)
             for name in ("_INVARIANT_MEMO", "_POLY_MEMO")]
    if any(m is None for m in memos):
        return None
    return sum(len(m) for m in memos)
