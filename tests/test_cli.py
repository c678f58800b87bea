import io
import json
import re
from collections import deque
from dataclasses import replace

import pytest

from conftest import CO_C6_EDGE_LIST, N_EDGE_LIST
from oppograph import cli
from oppograph.cli import EXIT_DISAGREEMENT, EXIT_MEMBER, EXIT_NON_MEMBER, EXIT_PARSE, EXIT_UNDECIDED, EXIT_USAGE, main
from oppograph.constraints import ConstraintGraph
from oppograph.graphs import cycle_graph, encode_graph6, parse_graph6, path_graph
from oppograph.p4 import COALITION, OPPOSITION
from oppograph.patterns import make_Hk, make_Tk


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def c5_g6(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(encode_graph6(cycle_graph(5)) + "\n")
    return str(path)


@pytest.fixture
def co_c6_el(tmp_path):
    path = tmp_path / "co-c6.el"
    path.write_text(CO_C6_EDGE_LIST)
    return str(path)


@pytest.fixture
def n_el(tmp_path):
    path = tmp_path / "n.el"
    path.write_text(N_EDGE_LIST)
    return str(path)


@pytest.fixture
def h1_el(tmp_path):
    h1 = make_Hk(1).as_graph()
    path = tmp_path / "h1.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in h1.edges))
    return str(path)


def test_recognize_c5_exit_1(c5_g6):
    code, out = run(["recognize", "--class", "opposition", c5_g6])
    assert code == EXIT_NON_MEMBER
    assert "odd-closed-walk" in out


def test_recognize_co_c6_generalized_exit_0(co_c6_el):
    code, out = run(["recognize", "--class", "generalized-opposition", co_c6_el])
    assert code == EXIT_MEMBER
    assert "decision: member" in out


def test_recognize_coalition_n_with_witness(n_el):
    code, out = run(["recognize", "--class", "coalition", "--witness", n_el])
    assert code == EXIT_NON_MEMBER
    assert "witness: N" in out


def test_recognize_json_schema_and_determinism(co_c6_el):
    code1, out1 = run(["recognize", "--class", "opposition", "--output", "json", co_c6_el])
    code2, out2 = run(["recognize", "--class", "opposition", "--output", "json", co_c6_el])
    assert code1 == code2 == EXIT_NON_MEMBER
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "oppograph.verdict/1"
    assert payload["certificate"]["kind"] == "flip-exhaustion"


def test_recognize_union_prints_induced_subgraph(tmp_path):
    # P4 on a..d beside co-C6 on 1..6: the co-C6 component refutes the
    # union, printed in the input's labels
    path = tmp_path / "union.el"
    path.write_text("a b\nb c\nc d\n" + CO_C6_EDGE_LIST)
    code, out = run(["recognize", "--class", "opposition", str(path)])
    assert code == EXIT_NON_MEMBER
    lines = out.splitlines()
    start = lines.index("certificate: induced-subgraph")
    assert lines[start + 1 : start + 4] == [
        "  vertices: 1 3 5 2 4 6",
        "  certificate: flip-exhaustion",
        "    flips exhausted: 1",
    ]
    assert lines[start + 4].startswith("    flips 0: cycle ")
    code, out = run(["recognize", "--class", "opposition", "--output", "json", str(path)])
    cert = json.loads(out)["certificate"]
    assert cert["kind"] == "induced-subgraph" and cert["certificate"]["kind"] == "flip-exhaustion"


def test_recognize_oracle_crosscheck(c5_g6):
    code, out = run(["recognize", "--class", "opposition", "--oracle", c5_g6])
    assert code == EXIT_NON_MEMBER
    assert "oracle: non-member" in out


@pytest.mark.parametrize("output", ["human", "json", "dot"])
def test_recognize_verify_adds_one_line(c5_g6, co_c6_el, output):
    for graph_class, path in (("opposition", c5_g6), ("generalized-opposition", co_c6_el)):
        argv = ["recognize", "--class", graph_class, "--output", output, path]
        plain_code, plain = run(argv)
        code, out = run(argv + ["--verify"])
        assert code == plain_code
        assert out == plain + "verify: ok\n"


def test_recognize_verify_before_oracle(c5_g6):
    code, out = run(["recognize", "--class", "opposition", "--oracle", "--verify", c5_g6])
    assert code == EXIT_NON_MEMBER
    assert out.endswith("verify: ok\noracle: non-member\n")


def test_recognize_capped_oracle_prints_nothing(tmp_path):
    # P_12 is past the oracle's cap: a usage error, with no verdict printed
    # before it
    path = tmp_path / "p12.g6"
    path.write_text(encode_graph6(path_graph(12)) + "\n")
    for extra in ([], ["--verify"], ["--output", "json"]):
        code, out = run(["recognize", "--class", "opposition", "--oracle", *extra, str(path)])
        assert (code, out) == (EXIT_USAGE, "")


def test_recognize_verify_rejection_exits_3(monkeypatch, c5_g6):
    recognize = cli._run_recognizer
    monkeypatch.setattr(cli, "_run_recognizer", lambda *args: replace(recognize(*args), certificate=None))
    code, out = run(["recognize", "--class", "opposition", "--verify", c5_g6])
    assert code == EXIT_DISAGREEMENT
    assert out.endswith("verify: rejected: non-member verdict without a certificate\n")


def test_orient_h1_dot_v1_source(h1_el):
    code, out = run(["orient", "--class", "opposition", h1_el])
    assert code == EXIT_MEMBER
    assert out.startswith("digraph")
    assert out.count('"0" ->') == 3


def test_orient_ptolemaic_method(h1_el):
    code, out = run(["orient", "--class", "opposition", "--method", "ptolemaic", "--output", "arcs", h1_el])
    assert code == EXIT_MEMBER
    assert "0 3" in out or "0 4" in out


def test_orient_tree_coalition(tmp_path):
    path = tmp_path / "tree.el"
    path.write_text("a b\nb c\nc d\nb e\n")
    code, out = run(["orient", "--class", "coalition", str(path)])
    assert code == EXIT_MEMBER
    assert out.startswith("digraph")


def test_orient_t1_rejected(tmp_path):
    t1 = make_Tk(1).as_graph()
    path = tmp_path / "t1.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in t1.edges))
    for method in ("auto", "ptolemaic"):
        code, out = run(["orient", "--class", "opposition", "--method", method, str(path)])
        assert code == EXIT_NON_MEMBER
        assert "certificate: odd-closed-walk" in out
        assert "witness: T1" in out


def test_orient_ptolemaic_refuses_coalition(tmp_path):
    # the layer constructor's opposition orientation of P4 0-1-2-3 is not
    # a coalition orientation, so the combination is a usage error
    path = tmp_path / "p4.el"
    path.write_text("0 1\n1 2\n2 3\n")
    code, out = run(["orient", "--class", "coalition", "--method", "ptolemaic", "--output", "arcs", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    code, out = run(["orient", "--class", "generalized-opposition", "--method", "ptolemaic", "--output", "arcs", str(path)])
    assert code == EXIT_MEMBER


def test_orient_ptolemaic_fallback_keeps_class(co_c6_el):
    # co-C6 is a generalized-opposition member but not ptolemaic: the
    # constructor fails, and the class asked for decides what is printed
    argv = ["orient", "--class", "generalized-opposition", "--output", "arcs", co_c6_el]
    code, out = run(argv[:3] + ["--method", "ptolemaic"] + argv[3:])
    assert code == EXIT_USAGE
    assert out == ""
    code, _ = run(argv)
    assert code == EXIT_MEMBER
    code, out = run(["orient", "--class", "opposition", "--method", "ptolemaic", co_c6_el])
    assert code == EXIT_NON_MEMBER
    assert "class: opposition" in out


def test_orient_flip_cap_undecided(tmp_path):
    # O(G) of this graph has two components and the first flip vector
    # forces a directed cycle, so a cap of one flip vector is hit
    path = tmp_path / "two.g6"
    path.write_text("FUxqO\n")
    code, out = run(["orient", "--class", "opposition", "--flip-cap", "1", str(path)])
    assert code == EXIT_UNDECIDED
    assert out == "undecided: flip cap hit\n"


def test_aux_co_c6_labeled_dot(co_c6_el):
    code, out = run(["aux", "--kind", "opposition", co_c6_el])
    assert code == EXIT_MEMBER
    assert out.count(" -- ") == 18
    assert '[label="1->5"]' in out


def test_aux_coalition_n_check_bipartite(n_el):
    code, out = run(["aux", "--kind", "coalition", "--check-bipartite", n_el])
    assert code == EXIT_NON_MEMBER
    assert "odd walk of length 3" in out


def test_aux_p4_check_bipartite(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text("a b\nb c\nc d\n")
    code, out = run(["aux", "--kind", "opposition", "--check-bipartite", str(path)])
    assert code == EXIT_MEMBER
    assert "bipartite, 1 component" in out


@pytest.mark.parametrize("kind", [OPPOSITION, COALITION])
def test_aux_check_bipartite_colours_every_variable_as_a_bfs(kind, tmp_path):
    # F}SyO beside a P5: four aux components, and in each kind some
    # end-edges k put their variable 2k on side 1.  Every node's colour and
    # component equal a BFS 2-colouring of the aux graph in variable
    # order, each component starting at side 0 from its least variable
    g6 = "K}SyO?@?G?_@"
    path = tmp_path / "f_p5.g6"
    path.write_text(g6 + "\n")
    code, out = run(["aux", "--kind", kind, "--check-bipartite", str(path)])
    assert code == EXIT_MEMBER
    assert out.endswith("}\n// bipartite, 4 component(s)\n")
    cg = ConstraintGraph(kind, parse_graph6(g6))
    side, comp = [None] * cg.var_count, [None] * cg.var_count
    count = 0
    for start in range(cg.var_count):
        if side[start] is not None:
            continue
        side[start], comp[start], queue = 0, count, deque([start])
        while queue:
            v = queue.popleft()
            for w in cg.adj[v]:
                if side[w] is None:
                    side[w], comp[w] = 1 - side[v], count
                    queue.append(w)
                assert side[w] != side[v]
        count += 1
    assert count == 4 and any(side[::2])
    nodes = re.findall(r'^  (\d+) \[label="[^"]*", style=filled, fillcolor=(\w+), comment="component (\d+)"\];$', out, re.M)
    colours = ("lightblue", "lightyellow")
    assert nodes == [(str(i), colours[side[i]], str(comp[i])) for i in range(cg.var_count)]


def test_dot_quotes_backslashes_and_quotes(tmp_path):
    path = tmp_path / "quoted.el"
    path.write_text('a\\ b\nb "c\n"c d\n')
    code, out = run(["recognize", "--class", "opposition", "--output", "dot", str(path)])
    assert code == EXIT_MEMBER
    assert '  "a\\\\";' in out and '  "\\"c";' in out
    code, out = run(["aux", "--kind", "opposition", "--check-bipartite", str(path)])
    assert code == EXIT_MEMBER
    assert '  0 [label="a\\\\->b", style=filled, fillcolor=lightblue, comment="component 0"];' in out
    assert '[label="\\"c->d"' in out


def test_aux_dot_keeps_variables_apart(tmp_path):
    # joined labels would name both 1->12 and 11->2 "112"
    path = tmp_path / "digits.el"
    path.write_text("1 12\n12 5\n5 6\n11 2\n2 7\n7 8\n")
    for extra in ([], ["--check-bipartite"]):
        code, out = run(["aux", "--kind", "opposition", *extra, str(path)])
        assert code == EXIT_MEMBER
        nodes = [line.split()[0] for line in out.splitlines() if "[label=" in line]
        assert nodes == [str(i) for i in range(8)]  # two P4s, two end-edges each
        assert '[label="1->12"' in out and '[label="11->2"' in out


def test_oracle_subcommand(n_el):
    code, out = run(["oracle", "--class", "coalition", n_el])
    assert code == EXIT_NON_MEMBER


def test_recognize_dot_output_member(h1_el):
    code, out = run(["recognize", "--class", "opposition", "--output", "dot", h1_el])
    assert code == EXIT_MEMBER
    assert out.startswith("digraph")
    assert out.count("->") == 5


def test_aux_p4_is_four_cycle_dot(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text("a b\nb c\nc d\n")
    code, out = run(["aux", "--kind", "opposition", str(path)])
    assert code == EXIT_MEMBER
    assert out.count(" -- ") == 4


def test_recognize_dot_output_non_member_highlights_witness(n_el):
    code, out = run(["recognize", "--class", "coalition", "--witness", "--output", "dot", n_el])
    assert code == EXIT_NON_MEMBER
    assert out.startswith("graph")
    assert out.count("style=filled") == 6  # the N embedding covers all six vertices


def test_oracle_json_output(n_el):
    code, out = run(["oracle", "--class", "coalition", "--output", "json", n_el])
    assert code == EXIT_NON_MEMBER
    payload = json.loads(out)
    assert payload["schema"] == "oppograph.oracle/1"
    assert payload["decision"] == "non-member"


def test_parse_error_exit_10(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("a a\n")
    code, _ = run(["recognize", "--class", "opposition", str(path)])
    assert code == EXIT_PARSE


def test_usage_error_exit_11():
    code, _ = run(["recognize", "--class", "nonsense", "x"])
    assert code == EXIT_USAGE
    code, _ = run(["recognize", "--class", "opposition", "--flip-cap", "0", "x"])
    assert code == EXIT_USAGE
    for sizes in (["--max-n", "0"], ["--max-n", "-3"], ["--count", "-1"]):
        code, out = run(["sweep", "--generator", "dh", *sizes])
        assert (code, out) == (EXIT_USAGE, "")


def test_autodetection_parses_graph6_once(monkeypatch, tmp_path):
    # one parse both detects graph6 and returns the graph; a first line that
    # is no graph6 falls back to the edge list, and one with a space is
    # never tried as graph6
    calls = []
    parse = cli.parse_graph6
    monkeypatch.setattr(cli, "parse_graph6", lambda line: calls.append(line) or parse(line))
    path = tmp_path / "data"
    for text, n, tries in (
        (encode_graph6(cycle_graph(5)) + "\n", 5, 1),
        ("#c3\na b\nb c\nc a\n", 3, 1),
        ("a b\nb c\n", 3, 0),
    ):
        calls.clear()
        path.write_text(text)
        assert cli.load_graph(str(path), "auto").n == n
        assert len(calls) == tries
    calls.clear()
    path.write_text("x\n")
    with pytest.raises(cli.CliError, match="expected 2 tokens") as info:
        cli.load_graph(str(path), "auto")
    assert info.value.code == EXIT_PARSE and len(calls) == 1


def test_flip_cap_only_where_a_recognizer_runs(tmp_path):
    # aux and oracle run no recognizer, so they take no --flip-cap
    path = tmp_path / "p4.el"
    path.write_text("a b\nb c\nc d\n")
    for argv in (["oracle", "--class", "opposition"], ["aux", "--kind", "opposition"]):
        code, out = run([*argv, "--flip-cap", "5", str(path)])
        assert (code, out) == (EXIT_USAGE, "")


def test_sweep_stdin(monkeypatch, capsys):
    import sys

    lines = [encode_graph6(cycle_graph(k)) for k in (4, 5, 6)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    out = io.StringIO()
    code = main(["sweep", "--generator", "stdin"], out=out)
    assert code == EXIT_MEMBER
    text = out.getvalue()
    assert "disagreements: 0" in text
    assert "opposition: graphs=3" in text


def test_sweep_random_trees():
    out1 = io.StringIO()
    code = main(["sweep", "--generator", "tree", "--count", "15", "--max-n", "9", "--seed", "4"], out=out1)
    assert code == EXIT_MEMBER
    out2 = io.StringIO()
    main(["sweep", "--generator", "tree", "--count", "15", "--max-n", "9", "--seed", "4"], out=out2)
    assert out1.getvalue() == out2.getvalue()
    assert "disagreements: 0" in out1.getvalue()


def test_format_autodetection(tmp_path):
    # graph6 content in an extensionless file
    path = tmp_path / "data"
    path.write_text(encode_graph6(cycle_graph(5)) + "\n")
    code, _ = run(["recognize", "--class", "opposition", str(path)])
    assert code == EXIT_NON_MEMBER
    # explicit --format wins
    code, _ = run(["recognize", "--class", "opposition", "--format", "edgelist", str(path)])
    assert code == EXIT_PARSE


def _contrary_oracle(monkeypatch):
    """Make every oracle answer the opposite of the real one."""
    oracle = cli._oracle

    def contrary(graph_class):
        def run_oracle(g):
            res = oracle(graph_class)(g)
            return replace(res, decision="non-member" if res.is_member else "member")

        return run_oracle

    monkeypatch.setattr(cli, "_oracle", contrary)


def test_sweep_reports_each_disagreement(monkeypatch):
    import sys

    _contrary_oracle(monkeypatch)
    c5 = encode_graph6(cycle_graph(5))
    monkeypatch.setattr(sys, "stdin", io.StringIO(c5 + "\n"))
    code, out = run(["sweep", "--class", "opposition"])
    assert code == EXIT_DISAGREEMENT
    assert out.splitlines()[-2:] == [
        "disagreements: 1",
        f"  line 1 opposition recognizer=non-member oracle=member {c5}",
    ]


def test_recognize_oracle_disagreement_exits_3(monkeypatch, c5_g6):
    _contrary_oracle(monkeypatch)
    code, out = run(["recognize", "--class", "opposition", "--oracle", c5_g6])
    assert code == EXIT_DISAGREEMENT
    assert out.endswith("oracle: member\noracle disagreement\n")


def test_dash_reads_stdin(monkeypatch, c5_g6):
    import sys

    with open(c5_g6) as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    assert run(["recognize", "--class", "opposition", "-"]) == run(["recognize", "--class", "opposition", c5_g6])


def test_unreadable_path_exit_10(tmp_path, capsys):
    missing = tmp_path / "missing.el"
    code, out = run(["recognize", "--class", "opposition", str(missing)])
    assert (code, out) == (EXIT_PARSE, "")
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_sweep_bad_graph6_line_exit_10(monkeypatch, capsys):
    import sys

    # a blank line is skipped but counted
    monkeypatch.setattr(sys, "stdin", io.StringIO(encode_graph6(cycle_graph(5)) + "\n\n~bad\n"))
    code, _ = run(["sweep", "--class", "opposition"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("stdin line 3: ")
