import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gdlog
from gdlog.cli import build_parser, main
from gdlog.corpus import PROGRAMS
from gdlog.lang import parse_program
from gdlog.oracle import ref_dijkstra
from gdlog.tsvio import FactFileError, model_lines, read_facts_dir, read_model, write_facts_dir
from oracle_helpers import reachable


@pytest.fixture
def advisor_file(tmp_path):
    p = tmp_path / "advisor.dl"
    p.write_text(
        "student('Jim Black', ee, senior).\n"
        "professor(ohm, ee).\n"
        "professor(bell, ee).\n" + PROGRAMS["advisor"]
    )
    return str(p)


def test_run_advisor_single_row(advisor_file, tmp_path, capsys):
    out = tmp_path / "model.tsv"
    assert main(["run", advisor_file, "-o", str(out)]) == 0
    model = read_model(str(out))
    assert len(model["actual_adv"]) == 1


def test_run_same_seed_byte_identical(advisor_file, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"m{i}.tsv"
        assert main(["run", advisor_file, "--seed", "7", "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_parse_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.dl"
    p.write_text("p(X) :- q(Y).\n")
    assert main(["run", str(p)]) == 1
    assert "unbound" in capsys.readouterr().err


def test_run_choice_keyword_heads_only_quoted(tmp_path, capsys):
    # a quoted keyword names a relation a rule can derive; bare, it is an error
    p = tmp_path / "choice.dl"
    p.write_text("q(1).\n'choice'(X) :- q(X).\np(X) :- q(X), 'choice'(X).\n")
    out = tmp_path / "model.tsv"
    assert main(["run", str(p), "-o", str(out)]) == 0
    assert read_model(str(out)) == {"choice": {(1,)}, "p": {(1,)}, "q": {(1,)}}
    p.write_text("q(1).\nchoice(X) :- q(X).\n")
    assert main(["run", str(p)]) == 1
    assert "2:1: a bare choice cannot head a rule" in capsys.readouterr().err


def test_run_non_ascii_digit_exit_1(tmp_path, capsys):
    p = tmp_path / "sup.dl"
    p.write_text("q(1).\np(\u00b2).\n", encoding="utf-8")
    assert main(["run", str(p)]) == 1
    assert "2:3: unexpected character '\u00b2'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-o", "--trace"])
def test_run_to_a_directory_exit_1(advisor_file, tmp_path, capsys, flag):
    assert main(["run", advisor_file, flag, str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_run_tab_in_quoted_symbol_exit_1(tmp_path, capsys):
    p = tmp_path / "tab.dl"
    p.write_text("p('a\tb').\n", encoding="utf-8")
    assert main(["run", str(p)]) == 1
    assert capsys.readouterr().err == "error: 1:3: quoted symbol holds '\\t'\n"


def test_run_non_utf8_facts_exit_1(tmp_path, capsys):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_bytes(b"a\t1\n\xff\t2\n")
    p = tmp_path / "h.dl"
    p.write_text("h(X,C) :- g(X,C).\n")
    assert main(["run", str(p), "--facts", str(tmp_path / "f")]) == 1
    assert "error: g.facts: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("pred", ["chosen_r1", "diffchoice_r1"])
def test_run_reserved_fact_file_exit_1(tmp_path, capsys, pred):
    # a chosen_r1 file would hand the run chosen tuples no selection made:
    # (b, 99) next to the chosen (b, 5) breaks the rule's FD Y -> C
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text("a\tb\t5\nb\tc\t1\n")
    (tmp_path / "f" / f"{pred}.facts").write_text("c\t1\nb\t99\n")
    p = tmp_path / "dijkstra.dl"
    p.write_text(PROGRAMS["dijkstra"])
    assert main(["run", str(p), "--facts", str(tmp_path / "f")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {pred}.facts: predicate name {pred} uses a reserved prefix" in out.err
    with pytest.raises(FactFileError, match=f"{pred}.facts: predicate name {pred} uses a reserved prefix"):
        read_facts_dir(str(tmp_path / "f"))


def test_run_non_utf8_program_exit_1(tmp_path, capsys):
    p = tmp_path / "latin1.dl"
    p.write_bytes("p('caf\u00e9').\n".encode("latin-1"))
    assert main(["run", str(p)]) == 1
    assert f"{p} is not UTF-8 text" in capsys.readouterr().err


def test_run_overflow_exit_2(tmp_path):
    p = tmp_path / "over.dl"
    p.write_text(
        "reach(a,0).\n"
        f"big(b, {2**63 - 1}).\n"
        "reach(Y,C) :- reach(X,C1), big(Y,C2), C = C1 + C2, choice((Y),(C)).\n"
    )
    assert main(["run", str(p)]) == 2


@pytest.mark.parametrize(
    "src", ["p(Y) :- q(X), Y = X + 1.\nq(b).\n", "p(X) :- q(X), X < 3.\nq(b).\n"], ids=["plus", "less"]
)
def test_run_builtin_over_symbols_exit_2(tmp_path, capsys, src):
    p = tmp_path / "sym.dl"
    p.write_text(src)
    assert main(["run", str(p)]) == 2
    assert "r1: " in capsys.readouterr().err


def test_run_dijkstra_from_generated_facts(tmp_path, capsys):
    facts = tmp_path / "facts"
    assert (
        main(
            [
                "gen",
                "--family",
                "sparse-connected",
                "--n",
                "100",
                "--arcs",
                "400",
                "--directed",
                "--seed",
                "5",
                "--out",
                str(facts),
            ]
        )
        == 0
    )
    prog = tmp_path / "dij.dl"
    prog.write_text(PROGRAMS["dijkstra"])
    out = tmp_path / "model.tsv"
    assert main(["run", str(prog), "--facts", str(facts), "-o", str(out)]) == 0
    model = read_model(str(out))
    arcs = read_facts_dir(str(facts))["g"]
    assert {y: c for y, c in model["dj"]} == ref_dijkstra(arcs, "a")


def test_gen_complete_three_nodes(tmp_path):
    out = tmp_path / "f"
    assert main(["gen", "--family", "complete", "--n", "3", "--out", str(out)]) == 0
    g = read_facts_dir(str(out))["g"]
    assert len(g) == 6  # 3 pairs x 2 orientations
    assert {(u, v) for u, v, _ in g} == {
        ("a", "n2"), ("n2", "a"), ("a", "n3"), ("n3", "a"), ("n2", "n3"), ("n3", "n2")
    }
    costs = {tuple(sorted((u, v))): set() for u, v, _ in g}
    for u, v, c in g:
        costs[tuple(sorted((u, v)))].add(c)
    assert all(len(cs) == 1 for cs in costs.values())  # symmetric costs


def test_gen_sparse_connected(tmp_path):
    out = tmp_path / "f"
    assert (
        main(["gen", "--family", "sparse-connected", "--n", "10", "--arcs", "20", "--out", str(out)])
        == 0
    )
    g = read_facts_dir(str(out))["g"]
    assert reachable(g, "a") == {"a"} | {f"n{i}" for i in range(2, 11)}


def test_gen_bipartite_two_by_two(tmp_path):
    out = tmp_path / "f"
    assert main(["gen", "--family", "bipartite", "--n", "2", "--out", str(out)]) == 0
    g = read_facts_dir(str(out))["g"]
    assert len(g) == 4


def test_enumerate_and_check_roundtrip(advisor_file, tmp_path, capsys):
    assert main(["enumerate", advisor_file, "-o", str(tmp_path / "models.tsv")]) == 0
    text = (tmp_path / "models.tsv").read_text()
    assert text.count("% model") == 2

    out = tmp_path / "model.tsv"
    main(["run", advisor_file, "-o", str(out)])
    assert main(["check", advisor_file, "--model", str(out)]) == 0
    assert "stable" in capsys.readouterr().out


@pytest.mark.parametrize("sym", ["a\x0cb", "a\u2028b"])
def test_check_accepts_the_model_of_a_symbol_with_a_line_separator(tmp_path, capsys, sym):
    # once as a program symbol, once as a fact cell
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text(f"{sym}\n", encoding="utf-8")
    prog = tmp_path / "p.dl"
    prog.write_text(f"p('{sym}').\nq(X) :- p(X).\nh(X) :- g(X).\n", encoding="utf-8")
    out = tmp_path / "m.tsv"
    assert main(["run", str(prog), "--facts", str(tmp_path / "f"), "-o", str(out)]) == 0
    assert main(["check", str(prog), "--facts", str(tmp_path / "f"), "--model", str(out)]) == 0
    assert capsys.readouterr().out == "stable\n"
    assert read_model(str(out)) == {k: {(sym,)} for k in "ghpq"}


def test_check_rejects_junk_model(advisor_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("actual_adv\t'Jim Black'\tohm\n")
    assert main(["check", advisor_file, "--model", str(bad)]) == 3


def test_check_witness_prints_the_reduct_minimum(advisor_file, tmp_path, capsys):
    # the run's model plus one junk atom: still a model, but not stable
    out = tmp_path / "m.tsv"
    assert main(["run", advisor_file, "-o", str(out)]) == 0
    with open(out, "a", encoding="utf-8") as f:
        f.write("actual_adv\tnobody\tohm\n")
    assert main(["check", advisor_file, "--model", str(out), "--witness"]) == 3
    assert capsys.readouterr().out == (
        "model but not stable\n"
        "% reduct minimum: actual_adv\t'Jim Black'\tbell\n"
        "% reduct minimum: chosen_r1\t'Jim Black'\tbell\n"
        "% reduct minimum: diffchoice_r1\t'Jim Black'\tohm\n"
        "% reduct minimum: professor\tbell\tee\n"
        "% reduct minimum: professor\tohm\tee\n"
        "% reduct minimum: student\t'Jim Black'\tee\tsenior\n"
    )


def test_check_non_utf8_model_exit_1(advisor_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"actual_adv\t'Jim Black'\t\xff\n")
    assert main(["check", advisor_file, "--model", str(bad)]) == 1
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


def test_explain_outputs(advisor_file, capsys):
    assert main(["explain", advisor_file]) == 0
    out = capsys.readouterr().out
    assert "chosen_r1" in out and "diffchoice_r1" in out and "stratum" in out


def test_explain_quotes_predicate_names(tmp_path, capsys):
    p = tmp_path / "quoted.dl"
    p.write_text("'a b'(X) :- q(X).\nq(1).\n")
    assert main(["explain", str(p), "--foe"]) == 0
    out = capsys.readouterr().out
    assert out == "q(1).\n'a b'(X) :- q(X).\n"
    assert parse_program(out).rules == parse_program(p.read_text()).rules
    assert main(["explain", str(p), "--plan"]) == 0
    assert "stratum 2: 'a b' rules=" in capsys.readouterr().out


def test_explain_classify_prints_only_the_rule_kinds(advisor_file, capsys):
    assert main(["explain", advisor_file, "--classify"]) == 0
    assert capsys.readouterr().out == "r1\tpure-choice\n"


def test_enumerate_max_models_truncates(advisor_file, capsys):
    # advisor has two choice models; the cap keeps the first
    assert main(["enumerate", advisor_file, "--max-models", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("% model") == 1
    assert out.endswith("% 1 model(s) (truncated)\n")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-models", "0", "--max-models must be at least 1, not 0"),
        ("--max-models", "-3", "--max-models must be at least 1, not -3"),
        ("--candidate-cap", "-1", "--candidate-cap must be at least 0, not -1"),
    ],
)
def test_enumerate_rejects_a_cap_below_its_least(advisor_file, capsys, flag, value, message):
    # a cap no model count could meet is a usage error (exit 1), not a
    # truncated enumeration or a cap error (exit 2)
    assert main(["enumerate", advisor_file, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--trace", "--facts"])
def test_explain_has_no_run_options(advisor_file, tmp_path, capsys, flag):
    # explain never runs the program; gdlog run --trace writes the trace
    with pytest.raises(SystemExit) as exc:
        main(["explain", advisor_file, flag, str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_run_trace_factorized_sort(tmp_path):
    # a factorized stratum's theta holds only the remaining domain values
    prog = tmp_path / "sort.dl"
    prog.write_text("d(3).\nd(1).\nd(2).\n" + PROGRAMS["sort"])
    trace, model = tmp_path / "trace.tsv", tmp_path / "m.tsv"
    assert main(["run", str(prog), "--factorize", "--trace", str(trace), "-o", str(model)]) == 0
    assert trace.read_text().splitlines() == [
        "1\tr1\t2\troot,3\t0\t5",
        "2\tr1\t1\t3,2\t0\t7",
        "3\tr1\t0\t2,1\t0\t9",
    ]
    assert "chosen_r1\t3\t2" in model.read_text().splitlines()


COUNTER_COLUMNS = [
    "iterations", "firings", "derived", "join_probes", "theta_inserts",
    "theta_deletes", "pq_ops", "conflict_checks", "emissions", "scan_steps",
    "work", "wall_time_s",
]


def test_stats_and_bench_counter_columns(advisor_file, tmp_path, capsys):
    assert main(["run", advisor_file, "-o", str(tmp_path / "m.tsv"), "--stats"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split("\t")[0] for line in err] == COUNTER_COLUMNS
    out = tmp_path / "report.tsv"
    args = ["bench", "--example", "sequence", "--sizes", "16", "--reps", "3", "--out", str(out)]
    assert main(args) == 0
    header = out.read_text().splitlines()[1].split("\t")
    assert header == ["example", "family", "n", "e", "rep", "seed"] + COUNTER_COLUMNS


def test_run_trace_file(advisor_file, tmp_path):
    # one row per selection: iteration, rule, theta size, chosen tuple,
    # purged candidates, model size
    trace = tmp_path / "trace.tsv"
    assert main(["run", advisor_file, "-o", str(tmp_path / "m.tsv"), "--trace", str(trace)]) == 0
    assert trace.read_text() == "1\tr1\t0\t'Jim Black',bell\t1\t4\n"


def test_bench_report_and_degenerate_ladder(tmp_path, capsys):
    out = tmp_path / "report.tsv"
    assert (
        main(
            [
                "bench",
                "--example",
                "sequence",
                "--sizes",
                "64",
                "--reps",
                "3",
                "--factorize",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    text = out.read_text()
    assert "slope undefined" in text  # one-point ladder has no slope
    assert "work" in text


def test_bench_slope_pass(tmp_path):
    out = tmp_path / "report.tsv"
    code = main(
        [
            "bench",
            "--example",
            "sequence",
            "--sizes",
            "64,128,256",
            "--reps",
            "3",
            "--factorize",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "verdict=PASS" in out.read_text()


def test_bench_rejects_bad_ladder(capsys):
    assert main(["bench", "--example", "sequence", "--sizes", "64,32", "--reps", "3"]) == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["--sizes=1,a"], "--sizes takes comma-separated integers, not '1,a'"),
        (["--sizes="], "--sizes takes comma-separated integers, not ''"),
        (["--sizes=0,1"], "sizes and --cost-max must be at least 1"),
        (["--sizes=-4,8"], "sizes and --cost-max must be at least 1"),
        (["--sizes=8", "--cost-max=0"], "sizes and --cost-max must be at least 1"),
    ],
)
def test_bench_rejects_numbers_that_are_not_positive_integers(capsys, args, message):
    assert main(["bench", "--example", "sequence", *args, "--reps", "3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "complete", "--n", "-3"],
        ["--family", "sparse-connected", "--n", "0"],
        ["--family", "bipartite", "--n", "2", "--n2", "0"],
        ["--family", "complete", "--n", "3", "--cost-max", "0"],
    ],
)
def test_gen_rejects_a_size_or_cost_max_below_1(tmp_path, capsys, args):
    out = tmp_path / "f"
    assert main(["gen", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --n, --n2 and --cost-max must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "arcs, directed, bounds",
    [("-5", False, "2 and 3"), ("1", False, "2 and 3"), ("4", False, "2 and 3"), ("7", True, "2 and 6")],
)
def test_gen_rejects_arcs_outside_tree_and_node_pairs(tmp_path, capsys, arcs, directed, bounds):
    # n - 1 arcs form the spanning tree; n(n-1) directed or n(n-1)/2
    # undirected arcs join every node pair
    out = tmp_path / "f"
    args = ["gen", "--family", "sparse-connected", "--n", "3", f"--arcs={arcs}", "--out", str(out)]
    assert main(args + ["--directed"] * directed) == 1
    assert capsys.readouterr().err == f"error: --arcs must be between {bounds} for --n 3, not {arcs}\n"
    assert not out.exists()


@pytest.mark.parametrize("arcs, directed", [(2, False), (3, False), (6, True)])
def test_gen_writes_arcs_at_the_bounds(tmp_path, arcs, directed):
    out = tmp_path / "f"
    args = ["gen", "--family", "sparse-connected", "--n", "3", "--arcs", str(arcs), "--out", str(out)]
    assert main(args + ["--directed"] * directed) == 0
    g = read_facts_dir(str(out))["g"]
    assert len({(u, v) for u, v, _ in g}) == arcs * (1 if directed else 2)


# A fact file as wide as the program's atoms of its predicate, and two that
# are not: g is used with three arguments
ARITY_PROGRAM = "p(X,Y) :- g(X,Y,C), choice((X),(Y)).\n"


@pytest.mark.parametrize("command", ["run", "enumerate", "check"])
@pytest.mark.parametrize("row, width", [("a\tb", 2), ("a\tb\t1\t2", 4)])
def test_fact_file_narrower_or_wider_than_the_program_exit_1(tmp_path, capsys, command, row, width):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text(f"{row}\n")
    prog = tmp_path / "p.dl"
    prog.write_text(ARITY_PROGRAM)
    model = tmp_path / "m.tsv"
    model.write_text("")
    extra = ["--model", str(model)] if command == "check" else []
    assert main([command, str(prog), "--facts", str(tmp_path / "f"), *extra]) == 1
    assert capsys.readouterr().err == f"error: g.facts: {width} columns, but the program uses g/3\n"


# Two FDs whose left sides a second candidate shares while it agrees with
# the first on the right side, so both are chosen (see docs/dialect.md)
SHARED_LEFT = {
    "P1": "q(a,b,c,d).\nq(a,b,e,f).\np(X,Y,Z,V) :- q(X,Y,Z,V), choice((X),(Y)), choice((Z),(V)).\n",
    "P2": (
        "q(x,y1,z,1).\nq(x,y2,z,5).\nq(x,y2,z2,0).\n"
        "p(X,Y,Z,C) :- q(X,Y,Z,C), choice((X),(Y)), choice_least((Z),(C)).\n"
    ),
}


@pytest.mark.parametrize("name, chosen", [("P1", ["a\tb\tc\td", "a\tb\te\tf"]), ("P2", ["x\ty2\tz2\t0", "x\ty2\tz\t5"])])
def test_check_accepts_the_run_model_of_shared_fd_left_sides(tmp_path, capsys, name, chosen):
    prog = tmp_path / "p.dl"
    prog.write_text(SHARED_LEFT[name])
    out = tmp_path / "m.tsv"
    assert main(["run", str(prog), "-o", str(out)]) == 0
    assert {line for line in out.read_text().splitlines() if line.startswith("p\t")} == {
        f"p\t{c}" for c in chosen
    }
    assert main(["check", str(prog), "--model", str(out)]) == 0
    assert capsys.readouterr().out == "stable\n"


def test_facts_roundtrip(tmp_path):
    edb = {"g": [("a", "n2", 3), ("Jim Black", "x", -1)], "d": [(7,)]}
    write_facts_dir(str(tmp_path / "f"), edb)
    back = read_facts_dir(str(tmp_path / "f"))
    assert back == {k: list(v) for k, v in edb.items()}


# fact cells that are not dialect integers, though int() takes the first
# three and str.isdigit holds for the fourth: only an optional '-' followed by
# ASCII digits is an integer, and it must fit in 64 bits.  The last two hold
# characters that str.splitlines splits at; a line ends only at '\n'.
SYMBOL_CELLS = ["1_000", " 7", "+5", "\u00b2", "a\x0cb", "a\u2028b"]


def test_fact_cells_that_are_not_dialect_integers_are_symbols(tmp_path):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text("".join(f"{c}\t-12\n" for c in SYMBOL_CELLS), encoding="utf-8")
    assert read_facts_dir(str(tmp_path / "f")) == {"g": [(c, -12) for c in SYMBOL_CELLS]}
    model = tmp_path / "m.tsv"
    model.write_text("".join(f"g\t{c}\t-12\n" for c in SYMBOL_CELLS), encoding="utf-8")
    assert read_model(str(model)) == {"g": {(c, -12) for c in SYMBOL_CELLS}}


def test_a_model_whose_symbols_hold_other_line_separators_round_trips(tmp_path):
    relations = {"g": [(c, -12) for c in SYMBOL_CELLS]}
    model = tmp_path / "m.tsv"
    model.write_text("".join(f"{line}\n" for line in model_lines(relations)), encoding="utf-8")
    assert read_model(str(model)) == {"g": set(relations["g"])}


@pytest.mark.parametrize("symbol", ["a\tb", "a\nb", "a\rb", "a\r\nb"])
def test_writers_refuse_a_symbol_that_no_file_cell_can_hold(tmp_path, symbol):
    # read back, a tab would split the cell and a line break the line, as
    # text mode reads '\r' as '\n': written raw, ('a\rb',) came back as
    # the symbol 'a and a zero-arity predicate b'
    message = f"symbol {symbol!r} holds a tab or line break, which no file cell can hold"
    with pytest.raises(FactFileError) as exc:
        model_lines({"p": [(1, "x"), (2, symbol)]})
    assert str(exc.value) == message
    with pytest.raises(FactFileError) as exc:
        write_facts_dir(str(tmp_path / "f"), {"g": [("a",), (symbol,)]})
    assert str(exc.value) == message
    assert not (tmp_path / "f" / "g.facts").exists()


@pytest.mark.parametrize("cell", [str(2**63), str(-(2**63) - 1), "99999999999999999999"])
def test_fact_cell_outside_64_bits_is_an_error(tmp_path, cell):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text(f"a\t1\nb\t{cell}\n")
    with pytest.raises(FactFileError, match=f"g.facts:2: integer {cell} outside the 64-bit range"):
        read_facts_dir(str(tmp_path / "f"))
    model = tmp_path / "m.tsv"
    model.write_text(f"% model\ng\t{cell}\n")
    with pytest.raises(FactFileError, match=f"m.tsv:2: integer {cell} outside"):
        read_model(str(model))
    # the extremes themselves are integers
    (tmp_path / "f" / "g.facts").write_text(f"a\t{2**63 - 1}\nb\t{-(2**63)}\n")
    assert read_facts_dir(str(tmp_path / "f")) == {"g": [("a", 2**63 - 1), ("b", -(2**63))]}


@pytest.mark.parametrize(
    "cell, code, text",
    [
        ("1_000", 0, "h\tx\t'1_000'\n"),
        ("99999999999999999999", 1, "g.facts:1: integer 99999999999999999999 outside the 64-bit range"),
    ],
    ids=["underscores", "past-64-bits"],
)
def test_run_reads_fact_cells_as_the_dialect_does(tmp_path, capsys, cell, code, text):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text(f"x\t{cell}\n")
    p = tmp_path / "h.dl"
    p.write_text("h(X,C) :- g(X,C).\n")
    assert main(["run", str(p), "--facts", str(tmp_path / "f")]) == code
    out, err = capsys.readouterr()
    assert text in (err if code else out)


@pytest.fixture
def matching_run(tmp_path):
    """matching.dl over a generated 6x6 bipartite graph: (program, facts dir)."""
    facts = tmp_path / "facts"
    args = ["gen", "--family", "bipartite", "--n", "6", "--seed", "1", "--out", str(facts)]
    assert main(args) == 0
    prog = tmp_path / "matching.dl"
    prog.write_text(PROGRAMS["matching"])
    return str(prog), str(facts)


def _run_model(capsys, *args) -> str:
    capsys.readouterr()
    assert main(["run", *args]) == 0
    return capsys.readouterr().out


def test_run_seeded_output_independent_of_hash_seed(matching_run):
    prog, facts = matching_run
    src = os.path.dirname(os.path.dirname(gdlog.__file__))
    outs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "gdlog.cli", "run", prog, "--facts", facts, "--seed", "7"],
            env=env,
            capture_output=True,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1] == outs[2]


def test_run_seed_alone_means_random_ties(matching_run, capsys):
    prog, facts = matching_run
    lex = _run_model(capsys, prog, "--facts", facts)
    rand = _run_model(capsys, prog, "--facts", facts, "--ties", "random", "--seed", "7")
    assert rand != lex  # the instance tells the two policies apart
    assert _run_model(capsys, prog, "--facts", facts, "--seed", "7") == rand
    assert _run_model(capsys, prog, "--facts", facts, "--ties", "lex", "--seed", "7") == lex


@pytest.mark.parametrize("command", ["run", "bench"])
def test_pq_takes_only_auto_or_off(matching_run, capsys, command):
    prog, facts = matching_run
    args = [prog, "--facts", facts] if command == "run" else ["--example", "prim", "--sizes", "8,16"]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--pq", "on"])
    assert exc.value.code == 2
    assert "invalid choice: 'on'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["greedy", "lazy", "least"])
def test_run_mode_takes_only_auto_or_choice(matching_run, capsys, mode):
    prog, facts = matching_run
    with pytest.raises(SystemExit) as exc:
        main(["run", prog, "--facts", facts, "--mode", mode])
    assert exc.value.code == 2
    assert f"invalid choice: '{mode}'" in capsys.readouterr().err


# 5,000 digits: past sys.get_int_max_str_digits(), so int() alone would
# raise ValueError instead of the out-of-range error
LONG = "9" * 5000


@pytest.mark.parametrize("where", ["facts", "program", "model"])
def test_integer_of_5000_digits_exits_1_out_of_range(tmp_path, capsys, where):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text(f"x\t1\ny\t{LONG if where == 'facts' else 2}\n")
    prog = tmp_path / "h.dl"
    prog.write_text(f"h(X,C) :- g(X,C).\nk({LONG if where == 'program' else 3}).\n")
    model = tmp_path / "m.tsv"
    model.write_text(f"% model\ng\tx\t{LONG}\n")
    command = ["check", "--model", str(model)] if where == "model" else ["run"]
    assert main([command[0], str(prog), "--facts", str(tmp_path / "f"), *command[1:]]) == 1
    expected = {
        "facts": f"g.facts:2: integer {LONG} outside the 64-bit range",
        "program": "2:3: integer literal outside 64-bit range",
        "model": f"{model}:2: integer {LONG} outside the 64-bit range",
    }[where]
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_zero_padded_integer_of_5000_digits_is_in_range(tmp_path, capsys):
    padded = "0" * 5000 + "7"
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text(f"x\t{padded}\n")
    prog = tmp_path / "h.dl"
    prog.write_text(f"h(X,C) :- g(X,C).\nk(-{padded}).\n")
    assert main(["run", str(prog), "--facts", str(tmp_path / "f")]) == 0
    assert capsys.readouterr().out == "g\tx\t7\nh\tx\t7\nk\t-7\n"


def test_predicate_starting_with_percent_is_rejected(tmp_path, capsys):
    # a model line '%x<TAB>a' would be a comment to check --model
    prog = tmp_path / "p.dl"
    prog.write_text("'%x'(a).\np(X) :- '%x'(X).\n")
    assert main(["run", str(prog)]) == 1
    assert capsys.readouterr().err == "error: 1:1: predicate name '%x' starts with '%'\n"
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "%x.facts").write_text("a\n")
    prog.write_text("p(a).\n")
    assert main(["run", str(prog), "--facts", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == "error: %x.facts: predicate name %x starts with '%'\n"


def test_fact_file_named_with_a_line_or_cell_separator_exits_1(tmp_path, capsys):
    # the model line "a<TAB>b<TAB>1" would read back as the atom a(b, 1)
    prog = tmp_path / "p.dl"
    prog.write_text("p(a).\n")
    for c in "\t\n\r":
        facts = tmp_path / f"f{ord(c)}"
        facts.mkdir()
        (facts / f"a{c}b.facts").write_text("1\n")
        assert main(["run", str(prog), "--facts", str(facts)]) == 1
        assert capsys.readouterr().err == f"error: a{c}b.facts: predicate name a{c}b holds {c!r}\n"


def test_run_then_check_keeps_a_percent_inside_a_predicate_name(tmp_path, capsys):
    prog = tmp_path / "p.dl"
    prog.write_text("'x%'(a).\np(X) :- 'x%'(X), choice((), (X)).\n")
    out = tmp_path / "m.tsv"
    assert main(["run", str(prog), "-o", str(out)]) == 0
    assert "x%\ta\n" in out.read_text()
    assert main(["check", str(prog), "--model", str(out)]) == 0
    assert capsys.readouterr().out == "stable\n"


def test_facts_naming_a_file_says_it_is_not_a_directory(tmp_path, capsys):
    prog = tmp_path / "p.dl"
    prog.write_text("p(a).\n")
    facts = tmp_path / "g.facts"
    facts.write_text("a\n")
    assert main(["run", str(prog), "--facts", str(facts)]) == 1
    assert capsys.readouterr().err == f"error: facts path {facts} is not a directory\n"
    assert main(["run", str(prog), "--facts", str(tmp_path / "missing")]) == 1
    assert capsys.readouterr().err == f"error: facts directory {tmp_path / 'missing'} does not exist\n"


def _readme_synopsis() -> dict[str, set[str]]:
    """The options README's CLI synopsis names, per subcommand."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("gdlog "):
            command = options.setdefault(line.split()[1], set())
        command.update(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", line))
    return options


def test_readme_synopsis_names_every_option_of_each_subcommand():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    synopsis = _readme_synopsis()
    assert set(synopsis) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        # each option by one of its names, and no name the parser lacks
        names = [set(a.option_strings) for a in parser._actions if a.option_strings and a.dest != "help"]
        named = synopsis[command]
        assert all(group & named for group in names), command
        assert named <= set().union(*names), command
