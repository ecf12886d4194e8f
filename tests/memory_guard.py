"""Memory guards: one pinned value of g10 (conftest's
cyclically_6_connected_10_vertex) per run, with the process's VmHWM held
under a limit.

    PYTHONPATH=src python tests/memory_guard.py CASE

CASE is M8, M10, c2@13 or perm@13.  VmHWM is the peak resident set of the
whole process, so each case needs a fresh one.  The exit status is 0 when the
value matches its pin and VmHWM is within the limit, else 1, and 2 for an
unknown case."""

import ast
import os
import sys

from martinpoly.martin import martin_invariant
from martinpoly.multigraph import duplicate, from_edges
from martinpoly.residues import c2_from_martin, extended_permanent


def g10():
    """g10 from the edge list in conftest.py, read without importing it:
    conftest loads pytest, which adds about 12 MB to VmHWM."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "conftest.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "cyclically_6_connected_10_vertex")
    return from_edges(*map(ast.literal_eval, build.body[-1].value.args))


def vm_hwm_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# case -> (what, compute, pin, limit in MB)
CASES = {
    # M(g10^[8]): VmHWM about 25 MB under Python 3.11
    "M8": ("M(g10^[8])", lambda g: martin_invariant(duplicate(g, 8)),
           int("1039993712842629896646941116244432243156415933278256909589"
               "25907585637380710394847173599349964800000000000000"), 45),
    # M(g10^[10]): VmHWM 63.6 MB under Python 3.11 before transition
    # classes were kept per sorted multiset; the limit is 10% above
    "M10": ("M(g10^[10])", lambda g: martin_invariant(duplicate(g, 10)),
            int("4734698852405628775959082627300716368408324359781568919644"
                "8282193290432131004856651764322010379539826927211967754010"
                "6240000000000000000000000000000"), 70),
    # c2 of g10 at p = 13, that is M(g10^[12]) / 39 mod 13.  Only the Martin
    # route reaches p = 13: a point count of a decompletion of g10 would
    # sweep 13^16 points.  VmHWM read 117.6-117.8 MB in 8.6-9.0 s under
    # Python 3.11; the limit is 15% above
    "c2@13": ("c2 of g10 at p = 13", lambda g: c2_from_martin(g, 13).residue,
              12, 135),
    # perm(g10^[6])^2 mod 13, the frontier DP at k = 12 on 8 rows; it is
    # -M(g10^[6]) mod 13 (tests/test_residues.py checks both).  VmHWM read
    # 16.0-16.2 MB under Python 3.11, about what the imports take; the limit
    # is 15% above
    "perm@13": ("perm(g10^[6])^2 mod 13",
                lambda g: extended_permanent(g, [6])[0].residue, 1, 19),
}


def main(argv):
    if len(argv) != 1 or argv[0] not in CASES:
        print("usage: memory_guard.py {%s}" % ",".join(CASES), file=sys.stderr)
        return 2
    what, compute, pin, limit = CASES[argv[0]]
    value = compute(g10())
    hwm = vm_hwm_mb()
    print("%s %s the pin, VmHWM %.1f MB (limit %d)"
          % (what, "matches" if value == pin else "DIFFERS FROM", hwm, limit))
    return 0 if value == pin and hwm <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
