"""One measured pass of a workload, in a fresh interpreter.

The martin memos and each graph's cached canonical form live as long as the
process, so every pass starts a new one; otherwise a second pass would time
memo hits.  Usage (run.py starts it):

    python3 benchmark/worker.py SPAWN_TIME SPEC_JSON OUT_JSON

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; set-up time runs from there to the first timed call.

Times are reported in reference seconds.  The speed of the small virtual
machines this runs on drifts by up to a factor of two over seconds to
minutes, which swamps any change worth measuring.  So while the timed work
runs, an interval timer interrupts it every CAL_EVERY_S to run a fixed
calibration loop (a probe), and every stretch of work between two probes is
converted to reference seconds at the speed the CAL_WINDOW probes around it
measured: a reference second is as long as CAL_REF_S over the median probe
time.  Probe time counts in no timed call.  The unscaled times go in the
output as well.
"""

import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

CAL_ITERATIONS = 8000
CAL_REF_S = 0.001
CAL_EVERY_S = 0.02
CAL_WINDOW = 9

clock = time.perf_counter


def _calibration_loop():
    """Fixed pure-Python work: integer arithmetic and dict stores, and no
    objects the garbage collector tracks."""
    table = {}
    s = 0
    for i in range(CAL_ITERATIONS):
        table[i & 255] = s
        s += i * i % 7
    return s


class Meter:
    """Times the calls of a pass (segments), while a timer runs probes."""

    def __init__(self):
        self.segments = []           # (start, end, is a record)
        self.probes = []             # (start, end)
        self.gaps = None             # (start, end, scale) between probes
        self.gap_starts = None

    def probe(self, *_):
        t0 = clock()
        _calibration_loop()
        self.probes.append((t0, clock()))

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.probes) < CAL_WINDOW:
            self.probe()
        # a probe the timer interrupted is appended after the one it ran
        self.probes.sort()
        times = [b - a for a, b in self.probes]
        self.gaps = []
        for k in range(len(self.probes) - 1):
            lo = max(0, min(k + 1 - CAL_WINDOW // 2,
                            len(times) - CAL_WINDOW))
            self.gaps.append((self.probes[k][1], self.probes[k + 1][0],
                              CAL_REF_S / statistics.median(
                                  times[lo:lo + CAL_WINDOW])))
        self.gap_starts = [g[0] for g in self.gaps]

    def call(self, fn, *args, record=False):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.segments.append((t0, clock(), record))

    def record(self, compute, item):
        """compute(item) as a record; a record that raises becomes a row
        holding only the error."""
        try:
            return self.call(compute, item, record=True)
        except Exception as exc:  # a record that raises is a failed record
            return {"error": "%s: %s" % (type(exc).__name__, exc)}

    def seconds(self, segment, scaled=True):
        """The segment's time outside probes, in reference seconds or
        unscaled."""
        a, b, _ = segment
        total = 0.0
        k = max(0, bisect.bisect(self.gap_starts, a) - 1)
        while k < len(self.gaps) and self.gaps[k][0] < b:
            start, end, scale = self.gaps[k]
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                total += overlap * (scale if scaled else 1.0)
            k += 1
        return total


def _residue(rep):
    return "%d mod %d" % (rep.residue, rep.modulus)


def setup_classes(spec):
    from martinpoly import families, martin, residues

    def compute(g):
        return {"n": g.n,
                "mult": sorted([a, b, m] for (a, b), m in g.mult.items()),
                "loops": sorted([v, c] for v, c in g.loops.items()),
                "M": str(martin.martin_invariant(g)),
                "poly": ",".join(map(str, martin.martin_polynomial(g))),
                "perm": _residue(residues.permanent_square_residue(g))}

    def run(meter):
        graphs = []
        for n, degree in spec["families"]:
            graphs += meter.call(lambda: families.regular_multigraphs(
                n, degree, loops=True))
        return [meter.record(compute, g) for g in graphs]
    return run


def setup_batch(spec):
    from martinpoly import census
    cache_path = os.path.join(spec["pass_dir"], "pass.cache")
    if spec.get("warm_cache"):
        shutil.copyfile(spec["warm_cache"], cache_path)
    else:
        open(cache_path, "w").close()

    def run(meter):
        records = meter.call(census.parse_graph_file, spec["input"])
        cache = meter.call(census.InvariantCache, cache_path)

        def compute(rec):
            [out] = census.compute_batch([rec], spec["tasks"], cache)
            return {"name": out.name, "n": out.n, "degree": out.degree,
                    "values": out.values, "errors": out.errors}
        return [meter.record(compute, rec) for rec in records]
    return run


def setup_residues(spec):
    from martinpoly import census, residues
    from martinpoly.multigraph import delete_vertex
    graphs = {r.name: census.record_to_graph(r)
              for r in census.parse_graph_file(spec["input"])}
    items = [("c2@3", name, u) for name in spec["c2"]
             for u in range(graphs[name].n)]
    items += [("perm^[2]", name, None) for name in spec["perm"]]

    def compute(item):
        task, name, u = item
        if task == "c2@3":
            value = residues.c2(delete_vertex(graphs[name], u), 3)
        else:
            [value] = residues.extended_permanent(graphs[name], [2])
        return {"task": task, "name": name, "u": u,
                "value": _residue(value)}

    def run(meter):
        return [meter.record(compute, item) for item in items]
    return run


SETUPS = {"classes": setup_classes, "batch": setup_batch,
          "residues": setup_residues}


def main():
    spawn = float(sys.argv[1])
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    run = SETUPS[spec["kind"]](spec)
    tracer = None
    if spec["mode"] == "traced":
        from layers import install
        from tracer import Tracer
        tracer = Tracer()
        install(tracer)
    setup = time.monotonic() - spawn
    meter = Meter()
    result = {}
    meter.start()
    if spec["mode"] != "setup":
        result["rows"] = run(meter)
    meter.stop()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["setup_s"] = setup * meter.gaps[0][2]
    result["wall_s"] = sum(map(meter.seconds, meter.segments))
    result["latency_ms"] = [meter.seconds(s) * 1e3 for s in meter.segments
                            if s[2]]
    result["unscaled"] = {
        "setup_s": setup,
        "wall_s": sum(meter.seconds(s, scaled=False) for s in meter.segments),
        "probe_ms": statistics.median(b - a for a, b in meter.probes) * 1e3,
        "probes": len(meter.probes)}
    if tracer is not None:
        from layers import memo_entries, metric_values
        from martinpoly import martin
        result["layers"] = metric_values(tracer)
        memo = memo_entries(martin)
        if memo is not None:
            result["layers"]["martin.memo_entries"] = memo
        tracer.write_spans(spec["spans"])
    with open(sys.argv[3], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
