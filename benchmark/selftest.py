"""Self-test of the benchmark at tiny input sizes.

    python3 benchmark/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and failed_ratio 0, that a traced
run prints every per-layer metric with its unit, and that a corrupted
result cell makes failed_ratio > 0 and the result incorrect.
"""

import contextlib
import io
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402


def _run(workload, trace, mutate=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seconds", "0",
                         "--trace", str(trace)], size="tiny", mutate=mutate)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def _corrupt(passes):
    """Change one value cell of the first pass to a wrong one."""
    row = passes[0][0]
    if "values" in row:
        row["values"]["M"] = str(int(row["values"]["M"]) + 1)
    elif "M" in row:
        row["M"] = str(int(row["M"]) + 1)
    else:
        row["value"] = "0 mod 7"


def _expect(ok, label, failures):
    print("%s - %s" % ("ok" if ok else "FAIL", label))
    if not ok:
        failures.append(label)


def _units_match(metrics, wanted):
    return all(m["name"] in metrics and metrics[m["name"]]["unit"] == m["unit"]
               for m in wanted)


def main():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        code, report, result = _run(workload, 0)
        _expect(code == 0 and result["correct"] and result["failed"] == 0
                and report["failed_ratio"] == {"value": 0.0, "unit": "ratio"},
                "%s: correct, failed_ratio 0" % workload, failures)
        _expect(_units_match(result["metrics"], bench["end_to_end"]),
                "%s: every end-to-end metric with its unit" % workload,
                failures)
        code, report, result = _run(workload, 1)
        _expect(code == 0 and result["correct"]
                and _units_match(result["metrics"], bench["per_layer"]),
                "%s: every per-layer metric with its unit" % workload,
                failures)
        code, report, result = _run(workload, 0, mutate=_corrupt)
        _expect(report["failed_ratio"]["value"] > 0 and not result["correct"],
                "%s: a corrupted cell makes failed_ratio > 0" % workload,
                failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
