import functools
import os
import subprocess
import sys

import pytest

import gdlog
from gdlog import cli
from gdlog.cli import main
from gdlog.engine import Engine
from gdlog.corpus import PROGRAMS
from gdlog.oracle import ref_dijkstra
from gdlog.tsvio import FactFileError, read_facts_dir, read_model, write_facts_dir
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


def test_run_non_utf8_facts_exit_1(tmp_path, capsys):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_bytes(b"a\t1\n\xff\t2\n")
    p = tmp_path / "h.dl"
    p.write_text("h(X,C) :- g(X,C).\n")
    assert main(["run", str(p), "--facts", str(tmp_path / "f")]) == 1
    assert "error: g.facts: not UTF-8 text" in capsys.readouterr().err


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


def test_check_rejects_junk_model(advisor_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("actual_adv\t'Jim Black'\tohm\n")
    assert main(["check", advisor_file, "--model", str(bad)]) == 3


def test_check_non_utf8_model_exit_1(advisor_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"actual_adv\t'Jim Black'\t\xff\n")
    assert main(["check", advisor_file, "--model", str(bad)]) == 1
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


def test_explain_outputs(advisor_file, capsys):
    assert main(["explain", advisor_file]) == 0
    out = capsys.readouterr().out
    assert "chosen_r1" in out and "diffchoice_r1" in out and "stratum" in out


def test_explain_trace_dumps_tables(advisor_file, tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    assert main(["explain", advisor_file, "--trace", str(trace)]) == 0
    text = trace.read_text()
    assert "% final chosen tables" in text
    assert "chosen_r1" in text
    assert "% theta_r1: 0 candidates left" in text


def test_explain_trace_factorized_sort(tmp_path, monkeypatch):
    # explain builds a plain Engine; with factorize on, the stratum's domain
    # theta table is what it reports
    monkeypatch.setattr(cli, "Engine", functools.partial(Engine, factorize=True))
    prog = tmp_path / "sort.dl"
    prog.write_text("d(3).\nd(1).\nd(2).\n" + PROGRAMS["sort"])
    trace = tmp_path / "trace.tsv"
    assert main(["explain", str(prog), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[:3] == [
        "1\tr1\t2\troot,3\t0\t6",
        "2\tr1\t1\t3,2\t0\t8",
        "3\tr1\t0\t2,1\t0\t10",
    ]
    assert "chosen_r1\t3\t2" in lines
    assert "% theta_r1: 0 candidates left" in lines


COUNTER_COLUMNS = [
    "iterations", "firings", "derived", "join_probes", "theta_inserts",
    "theta_deletes", "pq_ops", "conflict_checks", "work", "wall_time_s",
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


def test_facts_roundtrip(tmp_path):
    edb = {"g": [("a", "n2", 3), ("Jim Black", "x", -1)], "d": [(7,)]}
    write_facts_dir(str(tmp_path / "f"), edb)
    back = read_facts_dir(str(tmp_path / "f"))
    assert back == {k: list(v) for k, v in edb.items()}


# fact cells that are not dialect integers, though int() takes the first
# three and str.isdigit holds for the last: only an optional '-' followed by
# ASCII digits is an integer, and it must fit in 64 bits
SYMBOL_CELLS = ["1_000", " 7", "+5", "\u00b2"]


def test_fact_cells_that_are_not_dialect_integers_are_symbols(tmp_path):
    (tmp_path / "f").mkdir()
    (tmp_path / "f" / "g.facts").write_text("".join(f"{c}\t-12\n" for c in SYMBOL_CELLS), encoding="utf-8")
    assert read_facts_dir(str(tmp_path / "f")) == {"g": [(c, -12) for c in SYMBOL_CELLS]}
    model = tmp_path / "m.tsv"
    model.write_text("".join(f"g\t{c}\t-12\n" for c in SYMBOL_CELLS), encoding="utf-8")
    assert read_model(str(model)) == {"g": {(c, -12) for c in SYMBOL_CELLS}}


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


def test_run_mode_greedy_needs_least_or_most_rule(matching_run, capsys):
    prog, facts = matching_run
    assert main(["run", prog, "--facts", facts, "--mode", "greedy"]) == 2
    assert "requires at least one choice_least or choice_most rule" in capsys.readouterr().err
