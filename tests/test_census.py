"""Graph-file parsing, the invariant cache, batch computation, grouping,
and the command-line entry point."""

import time

import pytest

from martinpoly import census
from martinpoly.census import (
    GraphRecord,
    InvariantCache,
    compute_batch,
    group_by_invariant,
    main,
    parse_graph_file,
    record_to_graph,
)
from martinpoly.families import complete_graph, cycle, octahedron
from martinpoly.martin import martin_invariant
from martinpoly.multigraph import canonical_form, duplicate
from martinpoly.structure import twist

from conftest import twist_pair_ten_vertex


def _graph_line(name, g):
    pairs = " ".join("%d %d" % (u, v) for (u, v, _) in g.edge_instances())
    return "%s: %s\n" % (name, pairs)


# ---------------------------------------------------------------------- parsing


def test_parse_graph_file(tmp_path):
    path = tmp_path / "graphs.txt"
    path.write_text(
        "# a comment line\n"
        "\n"
        "triangle: 0 1 1 2 0 2\n"
        "doubled: 0 1 0 1   # inline comment\n"
        "looped: 0 0 0 1 1 1\n")
    records = parse_graph_file(str(path))
    assert [r.name for r in records] == ["triangle", "doubled", "looped"]
    assert records[1].edges == [(0, 1), (0, 1)]
    g = record_to_graph(records[2])
    assert g.n == 2 and g.loops == {0: 1, 1: 1}
    t = record_to_graph(records[0])
    assert t.n == 3 and t.edge_count() == 3


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("no colon\n0 1 2 3\n", "1: missing"),
        ("ok: 0 1\n: 0 1\n", "2: empty graph name"),
        ("a: 0 1\nb: 0 1\na: 1 2\n", "3: duplicate name"),
        ("a: 0 1 2\n", "1: odd number"),
        ("a: 0 x\n", "1: non-integer"),
        ("a: 0 -1\n", "1: negative"),
        ("a: 0 1_0\n", "1: non-integer"),
        ("a: 0 1\nb: +3 0\n", "2: non-integer"),
        ("a: 0 \u0661\n", "1: non-integer"),  # ARABIC-INDIC DIGIT ONE
        ("a\tb: 0 1\n", "1: tab or comma"),
        ("ok: 0 1\na,b: 0 1\n", "2: tab or comma"),
    ]
    for text, fragment in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            parse_graph_file(str(path))
        assert fragment in str(err.value)


# ------------------------------------------------------------------------ cache


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.tsv")
    cache = InvariantCache(path)
    cache.put("ab12", "M", "6")
    cache.put("ab12", "M", "6")  # unchanged: no duplicate line appended
    cache.put("cd34", "poly", "0,36,15")
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    reloaded = InvariantCache(path)
    assert reloaded.get("ab12", "M") == "6"
    assert reloaded.get("cd34", "poly") == "0,36,15"
    assert reloaded.get("ab12", "perm") is None


def test_cache_appends_each_line_through_one_flushed_handle(tmp_path):
    # each put's line is in the file before the next put, with the handle
    # still open, as a reader after a kill would find it; close() releases
    # the handle, and may be called again
    path = tmp_path / "cache.tsv"
    cache = InvariantCache(str(path))
    lines = []
    for key, task, value in (("ab12", "M", "6"), ("ab12", "M2", "2016"),
                             ("cd34", "poly", "0,36,15")):
        cache.put(key, task, value)
        lines.append("%s\t%s\t%s\n" % (key, task, value))
        assert path.read_text() == "".join(lines)
    cache.close()
    cache.close()
    with pytest.raises(ValueError):
        cache.put("ef56", "M", "1")
    reloaded = InvariantCache(str(path))
    reloaded.close()
    assert reloaded.data == {("ab12", "M"): "6", ("ab12", "M2"): "2016",
                             ("cd34", "poly"): "0,36,15"}


def test_cache_compacts_stale_lines(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("0a\tM\t5\n0a\tM\t6\nff\tM\t1\n")
    cache = InvariantCache(str(path))
    assert cache.get("0a", "M") == "6"  # last write wins
    lines = path.read_text().splitlines()
    assert sorted(lines) == ["0a\tM\t6", "ff\tM\t1"]


def test_cache_drops_torn_final_line(tmp_path):
    # a kill mid-append leaves the last line without its newline; the next
    # append must not be glued onto it and read back as a value
    path = tmp_path / "cache.tsv"
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    key = canonical_form(octahedron()).hex()
    path.write_text("%s\tM\t14" % key)
    assert InvariantCache(str(path)).get(key, "M") is None
    assert path.read_text() == ""
    path.write_text("%s\tM\t14\n%s" % (key, key[:6]))
    main(["compute", "--input", str(graphs), "--tasks", "M,M2",
          "--cache", str(path), "--out", str(tmp_path / "out.tsv")])
    main(["compute", "--input", str(graphs), "--tasks", "M,M2",
          "--cache", str(path), "--out", str(tmp_path / "again.tsv")])
    reloaded = InvariantCache(str(path))
    assert reloaded.get(key, "M") == "14"
    assert reloaded.get(key, "M2") == str(martin_invariant(
        duplicate(octahedron(), 2)))
    assert (tmp_path / "out.tsv").read_text() == \
        (tmp_path / "again.tsv").read_text()
    assert all(line.count("\t") == 2
               for line in path.read_text().splitlines())


def test_cache_skips_garbage_lines(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("no tabs at all\n"
                    "0a\tM\t6\n"
                    "0a\tM2\t1\textra\n"
                    "XYZ\tM\t7\n"
                    "\tM\t8\n"
                    "0b\t\t9\n"
                    "\n"
                    "0c\tpoly\t0,36,15\n")
    cache = InvariantCache(str(path))
    assert cache.data == {("0a", "M"): "6", ("0c", "poly"): "0,36,15"}
    assert sorted(path.read_text().splitlines()) == \
        ["0a\tM\t6", "0c\tpoly\t0,36,15"]


def test_cache_drops_lines_that_are_not_utf8(tmp_path):
    # an undecodable byte costs its own line, never the load, and a value
    # is never read from such a line
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    key = canonical_form(octahedron()).hex().encode()
    path = tmp_path / "cache.tsv"
    # 15 is not M of the octahedron, so an output of 15 comes from the cache
    path.write_bytes(b"\xff\xfe garbage\n" + key + b"\tM\t15\n" +
                     key + b"\tM2\t84\xff096\n")
    out = tmp_path / "out.tsv"
    assert main(["compute", "--input", str(graphs), "--tasks", "M,M2",
                 "--cache", str(path), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert (cells["M"], cells["M2"]) == ("15", "84096")
    assert sorted(path.read_bytes().decode().splitlines()) == [
        key.decode() + "\tM\t15", key.decode() + "\tM2\t84096"]


def test_cache_drops_values_that_do_not_parse_for_their_task(tmp_path):
    # a cached line is served only for a known task and a value of that
    # task's form; compute must answer as if the other lines were absent
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    key = canonical_form(octahedron()).hex()
    bad = ["foo\tbar", "perm\tgarbage", "c2@3\t1 mod 7", "M\tfourteen",
           "M0\t1", "poly\t1,,2", "perm\t3 mod 3", "c2@4\t1 mod 4",
           "M\t1/0", "M2\t4032/2", "poly\t0,036,15", "perm\t01 mod 3",
           "c2@3\t1 mod 03"]
    good = ["M\t14", "M2\t84096", "poly\t0,8,6", "c2@2\t1 mod 2"]
    path = tmp_path / "cache.tsv"
    path.write_text("".join("%s\t%s\n" % (key, line) for line in bad + good))
    cache = InvariantCache(str(path))
    assert sorted(task for (_, task) in cache.data) == \
        ["M", "M2", "c2@2", "poly"]
    assert sorted(path.read_text().splitlines()) == \
        sorted("%s\t%s" % (key, line) for line in good)
    path.write_text("".join("%s\t%s\n" % (key, line) for line in bad))
    outs = []
    for name, cache_args in (("cached", ["--cache", str(path)]),
                             ("fresh", [])):
        out = tmp_path / ("%s.tsv" % name)
        main(["compute", "--input", str(graphs), "--tasks", "M,foo,perm,c2@3",
              "--out", str(out)] + cache_args)
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    header, row = outs[0].splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert cells["M"] == "14"
    assert cells["foo"] == "error: unknown task 'foo'"
    assert cells["perm"] == "1 mod 3"
    assert cells["c2@3"] == "2 mod 3"


def test_compute_and_cache_share_one_task_grammar(tmp_path):
    # a task spelling the cache would drop on load is not computed either,
    # so it is never recomputed on every run nor compacted on every load
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    path = tmp_path / "cache.tsv"
    for run in ("first", "second"):
        out = tmp_path / ("%s.tsv" % run)
        main(["compute", "--input", str(graphs), "--tasks", "M,M01,c2@03",
              "--cache", str(path), "--out", str(out)])
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert cells["M"] == "14"
        assert cells["M01"] == "error: unknown task 'M01'"
        assert cells["c2@03"] == "error: unknown task 'c2@03'"
    key = canonical_form(octahedron()).hex()
    assert path.read_text() == "%s\tM\t14\n" % key


def test_cache_in_memory_without_path():
    cache = InvariantCache()
    cache.put("k", "M", "1")
    assert cache.get("k", "M") == "1"


# ------------------------------------------------------------------------ batch


def test_compute_batch_values_and_task_isolation(tmp_path):
    path = tmp_path / "graphs.txt"
    path.write_text(
        _graph_line("k5", complete_graph(5)) +
        _graph_line("cubic", complete_graph(4)) +  # odd degrees: all tasks fail
        "bowtie: 0 1 1 2 0 2 2 3 3 4 2 4\n" +
        _graph_line("c5sq", duplicate(cycle(5), 2)))
    records = parse_graph_file(str(path))
    out = compute_batch(records, ["M", "poly", "bogus"])
    by_name = {rec.name: rec for rec in out}
    assert by_name["k5"].values["M"] == "6"
    assert by_name["k5"].values["poly"] == "0,36,15"
    assert by_name["c5sq"].values["M"] == "4"
    assert "M" in by_name["cubic"].errors and "poly" in by_name["cubic"].errors
    # non-regular but even degrees: the invariant fails, the polynomial runs
    assert "M" in by_name["bowtie"].errors
    assert by_name["bowtie"].values["poly"] == "0,1"
    assert by_name["bowtie"].degree == "mixed"
    for rec in out:
        assert "bogus" in rec.errors
        assert rec.key == canonical_form(record_to_graph(
            records[[r.name for r in records].index(rec.name)])).hex()


def test_compute_batch_prefers_cache_hits():
    cache = InvariantCache()
    k5 = complete_graph(5)
    key = canonical_form(k5).hex()
    cache.put(key, "M", "poisoned")
    rec = GraphRecord("k5", [(u, v) for (u, v, _) in k5.edge_instances()])
    out = compute_batch([rec], ["M", "M2"], cache)
    assert out[0].values["M"] == "poisoned"  # served from the cache verbatim
    assert out[0].values["M2"] == "2016"  # computed, then stored
    assert cache.get(key, "M2") == "2016"



def test_compute_batch_rejects_an_unused_vertex_label():
    # labels 3..99 are unused, and every task would reject the graph they
    # make, so the record gets one graph error
    doubled_triangle = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
    start = time.perf_counter()
    [out] = compute_batch([GraphRecord("gap", doubled_triangle + [(0, 100)])],
                          ["M", "poly"])
    assert time.perf_counter() - start < 1
    assert out.errors == {"graph": "vertex label 3 is unused"}
    assert out.values == {} and out.key is None
    with pytest.raises(ValueError, match="vertex label 0 is unused"):
        record_to_graph(GraphRecord("empty", []))

def test_group_by_invariant_puts_twisted_pair_together(tmp_path):
    g, s, side, sigma = twist_pair_ten_vertex()
    a, b = g, twist(g, s, side, sigma)
    path = tmp_path / "graphs.txt"
    path.write_text(_graph_line("a", a) + _graph_line("b", b) +
                    _graph_line("k5", complete_graph(5)))
    records = parse_graph_file(str(path))
    computed = compute_batch(records, ["M", "M2"])
    classes = group_by_invariant(computed, ["M", "M2"])
    members = [names for _, names in classes]
    assert ["a", "b"] in members and ["k5"] in members
    assert len(classes) == 2
    # the pair is genuinely non-isomorphic: canonical keys differ
    keys = {rec.key for rec in computed if rec.name in ("a", "b")}
    assert len(keys) == 2


def test_group_by_invariant_isolates_incomplete_records():
    rec = GraphRecord("cubic", [(u, v) for (u, v, _)
                                in complete_graph(4).edge_instances()])
    classes = group_by_invariant(compute_batch([rec], ["M"]), ["M"])
    assert classes[0][0] == (("incomplete", "cubic"),)


# -------------------------------------------------------------------------- CLI


def test_cli_compute_writes_tsv_and_reruns_identically(tmp_path):
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()) +
                      _graph_line("k5", complete_graph(5)))
    out1 = tmp_path / "out1.tsv"
    out2 = tmp_path / "out2.tsv"
    cache = tmp_path / "cache.tsv"
    rc = main(["compute", "--input", str(graphs),
               "--tasks", "M,perm,M2,c2@2,c2@3",
               "--cache", str(cache), "--out", str(out1)])
    assert rc == 0
    rc = main(["compute", "--input", str(graphs),
               "--tasks", "M,perm,M2,c2@2,c2@3",
               "--cache", str(cache), "--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, octa_row, k5_row = out1.read_text().splitlines()
    assert header.split("\t") == ["name", "n", "degree", "M", "perm",
                                  "M2", "c2@2", "c2@3"]
    cells = dict(zip(header.split("\t"), octa_row.split("\t")))
    assert cells["M"] == "14"
    assert cells["M2"] == "84096"
    assert cells["perm"] == "1 mod 3"
    assert cells["c2@2"] == "1 mod 2"
    assert cells["c2@3"] == "2 mod 3"
    k5_cells = dict(zip(header.split("\t"), k5_row.split("\t")))
    assert k5_cells["M"] == "6"
    assert k5_cells["c2@2"].startswith("error")  # needs >= 6 vertices
    assert cache.exists() and len(cache.read_text().splitlines()) >= 8


@pytest.mark.parametrize("args, message", [
    (["--input", "missing.txt"], "--input: [Errno 2] No such file"),
    (["--input", "bad.txt"], "bad.txt:1: odd number of endpoints"),
    (["--cache", "."], "--cache: [Errno 21] Is a directory"),
    (["--cache", "missing/cache.tsv"], "--cache: [Errno 2] No such file"),
    (["--out", "missing/out.tsv"], "--out: [Errno 2] No such file"),
    (["--cache", "same.tsv", "--out", "./same.tsv"],
     "--out names the --cache file"),
    (["--tasks", ""], "no task: --tasks names none"),
    (["--rmax", "2"], "unrecognized arguments: --rmax 2"),
], ids=["input-missing", "input-malformed", "cache-directory",
        "cache-missing-directory", "out-missing-directory", "out-is-cache",
        "tasks-empty", "unknown-argument"])
def test_cli_rejects_bad_arguments_with_one_line(tmp_path, monkeypatch,
                                                 capsys, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graphs.txt").write_text(_graph_line("octa", octahedron()))
    (tmp_path / "bad.txt").write_text("a: 0 1 2\n")
    # every bad argument is rejected before any value is computed
    monkeypatch.setattr(census, "compute_batch",
                        lambda *args: pytest.fail("computed a value"))
    for verb in ("compute", "report"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", "graphs.txt"] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith("martinpoly %s: error: " % verb), err
        assert message in last, err


def test_cli_closes_the_cache_when_the_batch_raises(tmp_path, monkeypatch):
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    opened = []

    class Cache(InvariantCache):
        def __init__(self, path=None):
            super().__init__(path)
            opened.append(self)

    def fail(*args):
        raise RuntimeError("batch failed")
    monkeypatch.setattr(census, "InvariantCache", Cache)
    monkeypatch.setattr(census, "compute_batch", fail)
    with pytest.raises(RuntimeError, match="batch failed"):
        main(["compute", "--input", str(graphs),
              "--cache", str(tmp_path / "cache.tsv")])
    [cache] = opened
    assert cache._fh.closed


def test_cli_tasks_skip_empty_fields(tmp_path):
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    outs = []
    for tasks in (",M,,c2@2,", "M,c2@2"):
        out = tmp_path / ("out%d.tsv" % len(outs))
        assert main(["compute", "--input", str(graphs), "--tasks", tasks,
                     "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    header, row = outs[0].splitlines()
    assert header.split("\t") == ["name", "n", "degree", "M", "c2@2"]
    assert row.split("\t")[-2:] == ["14", "1 mod 2"]


@pytest.mark.parametrize("args", [["--rmax", "2"], ["--primes", "3"]],
                         ids=["rmax", "primes"])
def test_cli_takes_no_rmax_or_primes(tmp_path, monkeypatch, capsys, args):
    # M<r> and c2@<p> are named by --tasks alone, so even a value these
    # removed options took is refused before any value is computed
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    monkeypatch.setattr(census, "compute_batch",
                        lambda *args: pytest.fail("computed a value"))
    for verb in ("compute", "report"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", str(graphs)] + args)
        assert exc.value.code == 2
        assert ("unrecognized arguments: %s" % " ".join(args)
                in capsys.readouterr().err)


@pytest.mark.parametrize("args", [
    ["--tasks", "M,M"],
], ids=["tasks-twice"])
def test_cli_task_named_twice_gets_one_column(tmp_path, args):
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("octa", octahedron()))
    out = tmp_path / "out.tsv"
    assert main(["compute", "--input", str(graphs), "--out", str(out)]
                + args) == 0
    header = out.read_text().splitlines()[0].split("\t")
    assert header == ["name", "n", "degree", args[1].split(",")[0]]
    report = tmp_path / "report.tsv"
    assert main(["report", "--input", str(graphs), "--out", str(report)]
                + args) == 0
    assert report.read_text().count("=") == 1


def test_cli_report_groups_classes(tmp_path):
    g, s, side, sigma = twist_pair_ten_vertex()
    a, b = g, twist(g, s, side, sigma)
    graphs = tmp_path / "graphs.txt"
    graphs.write_text(_graph_line("a", a) + _graph_line("b", b) +
                      _graph_line("k5", complete_graph(5)))
    out = tmp_path / "report.tsv"
    rc = main(["report", "--input", str(graphs), "--tasks", "M",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "class\tmembers\tinvariants"
    rows = [line.split("\t") for line in lines[1:]]
    assert ["0", "a,b", "M=524"] in rows
    assert any(r[1] == "k5" and r[2] == "M=6" for r in rows)


def test_cli_verify_suites_pass(capsys):
    for suite in ("identities", "oracles", "residues", "closed-forms"):
        rc = main(["verify", "--suite", suite])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        assert "FAIL" not in captured.out
        assert "ok -" in captured.out


def test_cli_verify_takes_no_size(capsys):
    # each suite checks fixed sizes, so no size can leave a suite's loop
    # over graphs empty while it still prints ok
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "residues", "--max-vertices", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-vertices 6" in capsys.readouterr().err
