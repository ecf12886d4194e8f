"""Benchmark of the martinpoly library, driven from outside through the calls
the `martinpoly` CLI and the test suites make.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (it needs src/ and data/ beside it).  Each
pass is one fresh single-threaded interpreter (worker.py); passes repeat
for about --seconds (the pass count is --seconds over a pass's time,
rounded, and at least MIN_PASSES).  Times are in reference seconds, which a
calibration loop run between the timed calls converts from measured ones
(see worker.py), so that the machine's drifting speed cancels out.

Workloads, and why each exists:

  classes     regular_multigraphs(5, 6, loops=True) and
              regular_multigraphs(5, 4, loops=True) (384 + 56 classes), then
              the Martin invariant, Martin polynomial and squared-permanent
              residue of every class.  The exhaustive-suite use: class
              generation and canonical_form do the work, the recursion almost
              none.  The squared permanent is computed (mod 3) only for the
              56 4-regular classes; for 6-regular ones the modulus 4 is
              composite and the library returns 0 at once.  Ignores the seed.
              (The 4-regular 6-vertex suite takes 9 s a pass, too long for
              enough passes in a run.)
  batch-cold  what `martinpoly compute --tasks M,poly,c2@3` does, one record
              at a time, with an empty cache file: 101 distinct 4-regular
              graphs (C7(1,2)..C18(1,2), the octahedron and 88 random graphs
              on 9-11 vertices).  The graph set is fixed; the seed relabels
              the vertices of every graph, so the work does not depend on the
              seed.  The cut scan, canonical_form and the recursion do the
              work; C17 and C18 take the branch above 16 vertices.
  batch-warm  the same calls on 10 seeded relabellings of each of those
              graphs, against a cache file that already holds their values:
              parsing, canonical_form on vertex-transitive and random
              graphs, and cache reads.  The recursion does nothing.
  residues    c2 by point count at p=3 of every decompletion of C7(1,2) and
              of the complement of C3+C4, and the r=2 extended permanent of
              the octahedron and C7(1,2): point counts and Ryser.  The seed
              only relabels the inputs.

End-to-end metrics (--trace 0), each a median over the passes: wall_s, the
time of a pass's timed region; record_p50_ms and record_p90_ms, per-record
latency percentiles within a pass (the report line gives the record count);
peak_rss_mb, the ru_maxrss of a pass; setup_s, the time from a process's
start to its first timed call (interpreter start, imports, building the
pass's inputs, copying the warm cache), over the passes and, when there are
fewer than SETUP_SAMPLES of them, set-up-only passes.  failed_ratio, the
share of output cells that error or fail a check, is printed on the line
before the result and is the result's failed/attempted.  The seeded inputs,
and the warm cache filled by `martinpoly compute` in its own process, are
made once per run before the passes.

--trace 1 alternates untraced and traced passes, at least MIN_TRACED_PASSES
of each, prints the per-layer metrics of layers.py from the traced ones
(medians; their times are unscaled and include the probes that fell inside
them) and the tracing overhead (median traced minus median untraced wall_s;
the report line says whether it exceeds the range of the untraced passes),
and writes the spans of the last traced pass to
benchmark/.traces/<workload>.tsv.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CENSUS = os.path.join(ROOT, "data", "census_martin.tsv")
WORKER = os.path.join(BENCH, "worker.py")

DEFAULT_SEED = 1
GRAPH_SET_SEED = 1
TASKS = ["M", "poly", "c2@3"]
MIN_PASSES = 2
SETUP_SAMPLES = 5
MIN_TRACED_PASSES = 3
# no pass starts after this, whatever the minimum counts, so that a run
# stays under three minutes when the machine is slow
LAST_START_S = 110
PASS_TIMEOUT_S = 150

WORKLOADS = {"classes": "classes", "batch-cold": "batch",
             "batch-warm": "batch", "residues": "residues"}

SIZES = {
    "full": {
        "classes": {"families": [[5, 6], [5, 4]]},
        "batch": {"circulants": list(range(7, 19)),
                  "random": {9: 8, 10: 40, 11: 40},
                  "relabellings": 10},
        "residues": {"c2": ["c07_1_2", "c3c4_complement"],
                     "perm": ["octahedron", "c07_1_2"]},
    },
    "tiny": {
        "classes": {"families": [[4, 4]]},
        "batch": {"circulants": [7, 8], "random": {9: 2},
                  "relabellings": 2},
        "residues": {"c2": ["octahedron"], "perm": ["octahedron"]},
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("record_p50_ms", "ms"),
              ("record_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def _run_cli_compute(graph_file, cache, out):
    """`martinpoly compute` over the whole file, in its own process."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from martinpoly.census import main; sys.exit(main(sys.argv[2:]))")
    subprocess.run([sys.executable, "-c", code, SRC, "compute",
                    "--input", graph_file, "--tasks", ",".join(TASKS),
                    "--cache", cache, "--out", out],
                   check=True, capture_output=True, timeout=PASS_TIMEOUT_S)
    with open(out) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        return {row[0]: dict(zip(header, row)) for row in
                (line.rstrip("\n").split("\t") for line in fh)}


def prepare(workload, seed, size, work):
    """Write the seeded inputs; returns the worker spec, the reference data
    the checks need and what goes in the report."""
    import inputs
    kind = WORKLOADS[workload]
    params = SIZES[size][kind]
    spec = {"kind": kind, "src": SRC}
    ref = {}
    report = {}
    if kind == "classes":
        spec.update(params)
    elif kind == "batch":
        # one fixed graph set, so the work does not depend on the seed; the
        # seed relabels it
        graphs = inputs.batch_graphs(inputs.make_rng(GRAPH_SET_SEED, "batch"),
                                     params["circulants"], params["random"])
        rng = inputs.make_rng(seed, "batch")
        graphs = [(name, n, inputs.relabelled(rng, n, edges))
                  for name, n, edges in graphs]
        base_file = os.path.join(work, "batch.graphs")
        report["input_sha256"] = inputs.write_graph_file(base_file, graphs)
        warm = os.path.join(work, "warm.cache")
        ref["cli"] = _run_cli_compute(base_file, warm,
                                      os.path.join(work, "compute.tsv"))
        ref["circulants"] = {g[0] for g in graphs[:len(params["circulants"])]}
        spec.update(tasks=TASKS, input=base_file)
        ref["base_of"] = lambda name: name
        if workload == "batch-warm":
            copies = [("%s_p%02d" % (name, i), n,
                       inputs.relabelled(rng, n, edges))
                      for i in range(params["relabellings"])
                      for name, n, edges in graphs]
            spec["input"] = os.path.join(work, "warm.graphs")
            report["base_sha256"] = report["input_sha256"]
            report["input_sha256"] = inputs.write_graph_file(spec["input"],
                                                             copies)
            spec["warm_cache"] = warm
            ref["base_of"] = lambda name: name.rsplit("_p", 1)[0]
    else:
        rng = inputs.make_rng(seed, "residues")
        named = {"c07_1_2": (7, inputs.circulant_edges(7)),
                 "c3c4_complement": (7, inputs.complement_c3_c4_edges()),
                 "octahedron": (6, inputs.octahedron_edges())}
        graphs = [(name, n, inputs.relabelled(rng, n, edges))
                  for name, (n, edges) in sorted(named.items())
                  if name in params["c2"] + params["perm"]]
        spec.update(params, input=os.path.join(work, "residues.graphs"))
        report["input_sha256"] = inputs.write_graph_file(spec["input"],
                                                         graphs)
    return spec, ref, report


def run_pass(spec, mode, work, index):
    pass_dir = os.path.join(work, "pass%03d" % index)
    os.makedirs(pass_dir)
    spec = dict(spec, mode=mode, pass_dir=pass_dir)
    spec_path = os.path.join(pass_dir, "spec.json")
    out_path = os.path.join(pass_dir, "out.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    spawn = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, repr(spawn), spec_path,
                           out_path], capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError("%s pass failed:\n%s" % (mode, proc.stderr))
    with open(out_path) as fh:
        out = json.load(fh)
    shutil.rmtree(pass_dir)
    return out


def measure(spec, seconds, trace, work):
    """Untraced passes for about `seconds`, at least MIN_PASSES, then
    set-up-only passes until there are SETUP_SAMPLES set-ups.  With --trace,
    untraced and traced passes alternate instead, at least
    MIN_TRACED_PASSES of each, and there are no set-up-only passes.  No
    pass starts after LAST_START_S."""
    run_pass(spec, "setup", work, 0)  # warm-up: byte-compile, fill caches
    runs = {"untraced": [], "traced": []}
    start = time.monotonic()
    index = 1
    while True:
        mode = "traced" if trace and index % 2 == 0 else "untraced"
        t0 = time.monotonic()
        runs[mode].append(run_pass(spec, mode, work, index))
        index += 1
        # stop when one more pass would end nearer after `seconds` than
        # this point is before it
        end = time.monotonic()
        if end - start + (end - t0) / 2 > seconds \
                and len(runs["untraced"]) >= MIN_PASSES and (
                    not trace or len(runs["traced"]) >= MIN_TRACED_PASSES):
            break
        if end - start > LAST_START_S and (runs["traced"] or not trace):
            break
    setups = 0 if trace else max(0, SETUP_SAMPLES - len(runs["untraced"]))
    setup_only = [run_pass(spec, "setup", work, index + i)
                  for i in range(setups)]
    return runs["untraced"], runs["traced"], setup_only


def check(workload, spec, ref, passes, size, tally):
    """Check every pass's output; returns the sha256 of the result table."""
    import checks
    from martinpoly import census
    census_rows = checks.read_census(CENSUS)
    checks.check_census(census_rows, tally)
    kind = WORKLOADS[workload]
    if kind == "classes":
        tables = [checks.check_classes(rows, tally) for rows in passes]
        if size == "full":
            tally.cell(len(passes[0]) == checks.PINNED_CLASS_COUNT,
                       "class count %d" % len(passes[0]))
    else:
        graphs = {r.name: census.record_to_graph(r)
                  for r in census.parse_graph_file(spec["input"])}
        if kind == "batch":
            tables = [checks.check_batch(rows, graphs, ref["cli"],
                                         ref["base_of"], ref["circulants"],
                                         census_rows, TASKS, tally)
                      for rows in passes]
        else:
            refs = checks.residue_references(graphs, tally)
            tables = [checks.check_residues(rows, graphs, refs, tally)
                      for rows in passes]
    digests = [checks.table_digest(t) for t in tables]
    tally.cell(len(set(digests)) == 1, "passes disagree")
    if size == "full":
        pinned = checks.PINNED[workload]
        tally.cell(digests[0] == pinned, "table digest %s, pinned %s"
                   % (digests[0], pinned))
    return digests[0]


def end_to_end(passes, setup_only):
    """Medians over the passes (and the set-up-only passes, for setup_s).  The
    record percentiles are taken within each pass, over the same records
    every time."""
    def median_of(key):
        return statistics.median(key(p) for p in passes)
    values = {
        "wall_s": median_of(lambda p: p["wall_s"]),
        "setup_s": statistics.median(p["setup_s"] for p in passes + setup_only),
        "record_p50_ms": median_of(
            lambda p: statistics.median(p["latency_ms"])),
        "record_p90_ms": median_of(
            lambda p: statistics.quantiles(p["latency_ms"], n=10)[-1]),
        "peak_rss_mb": median_of(lambda p: p["peak_rss_mb"]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(untraced, traced):
    import layers
    units = {name: m[0] for name, m in layers.METRICS.items()}
    units.update([layers.MEMO_METRIC])
    out = {}
    for name in units:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        if values:
            out[name] = {"value": statistics.median_low(values),
                         "unit": units[name]}
    plain = statistics.median(p["wall_s"] for p in untraced)
    overhead = statistics.median(p["wall_s"] for p in traced) - plain
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.overhead_ratio"] = {"value": overhead / plain, "unit": "ratio"}
    return out


def main(argv=None, size="full", mutate=None):
    """mutate, if given, edits the passes' result rows before they are
    checked (the self-test corrupts a cell with it)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in (os.path.join(SRC, "martinpoly", "__init__.py"), CENSUS):
        if not os.path.isfile(needed):
            print("benchmark: %s not found; run from a martinpoly checkout"
                  % os.path.relpath(needed, ROOT), file=sys.stderr)
            return 2
    sys.path[:0] = [BENCH, SRC]
    import checks

    work = os.path.join(BENCH, ".work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        spec, ref, report = prepare(args.workload, args.seed, size, work)
        if args.trace:
            spec["spans"] = os.path.join(BENCH, ".traces",
                                         args.workload + ".tsv")
            os.makedirs(os.path.dirname(spec["spans"]), exist_ok=True)
        untraced, traced, setup_only = measure(spec, args.seconds, args.trace,
                                           work)
        passes = untraced + traced
        rows = [p["rows"] for p in passes]
        if mutate is not None:
            mutate(rows)
        tally = checks.Tally()
        table = check(args.workload, spec, ref, rows, size, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(untraced, traced)
        walls = [p["wall_s"] for p in untraced]
        report["trace_overhead_resolved"] = \
            abs(metrics["trace.overhead_s"]["value"]) > max(walls) - min(walls)
    else:
        metrics = end_to_end(passes, setup_only)
    report.update(workload=args.workload, seed=args.seed, size=size,
                  passes=len(passes), traced_passes=len(traced),
                  setup_only_passes=len(setup_only),
                  records_per_pass=len(passes[0]["latency_ms"]),
                  pass_wall_s=[p["wall_s"] for p in passes],
                  unscaled_pass_wall_s=[p["unscaled"]["wall_s"]
                                        for p in passes],
                  probe_ms=[p["unscaled"]["probe_ms"] for p in passes],
                  table_sha256=table, table_pinned=size == "full",
                  failed_ratio={"value": tally.failed / tally.attempted,
                                "unit": "ratio"},
                  failures=tally.notes)
    print(json.dumps(report))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
