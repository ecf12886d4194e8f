"""Graph-file parsing, the invariant cache, batch computation, grouping,
and the command-line entry point."""

import pytest

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


def test_cache_compacts_stale_lines(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("0a\tM\told\n0a\tM\tnew\nff\tM\t1\n")
    cache = InvariantCache(str(path))
    assert cache.get("0a", "M") == "new"  # last write wins
    lines = path.read_text().splitlines()
    assert sorted(lines) == ["0a\tM\tnew", "ff\tM\t1"]


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
    rc = main(["compute", "--input", str(graphs), "--tasks", "M,perm",
               "--rmax", "2", "--primes", "2,3",
               "--cache", str(cache), "--out", str(out1)])
    assert rc == 0
    rc = main(["compute", "--input", str(graphs), "--tasks", "M,perm",
               "--rmax", "2", "--primes", "2,3",
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
        rc = main(["verify", "--suite", suite, "--max-vertices", "5"])
        captured = capsys.readouterr()
        assert rc == 0, captured.out
        assert "FAIL" not in captured.out
        assert "ok -" in captured.out
