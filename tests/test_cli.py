import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from causalid import DiscreteModel
from causalid import cli, dsep
from causalid.cli import main
from causalid.identify import EngineInvariantError

DEMO = Path(__file__).resolve().parent.parent / "demo"

LOYALTY = """\
var U latent
var Z
var X
var Y
edge U -> Z
edge Z -> X
edge X -> Y
edge U -> Y
"""

FRONTDOOR = """\
var U latent
var X
var Z
var Y
edge U -> X
edge U -> Y
edge X -> Z
edge Z -> Y
"""

CHAIN = "var X\nvar Z\nvar Y\nedge X -> Z\nedge Z -> Y\n"
FORK = "var X\nvar Z\nvar Y\nedge Z -> X\nedge Z -> Y\n"
COLLIDER = "var X\nvar Z\nvar Y\nedge X -> Z\nedge Y -> Z\n"

CONFOUNDER = """\
var Z
var X
var Y
edge Z -> X
edge Z -> Y
edge X -> Y
domain Z 0 1
domain X 0 1
domain Y 0 1
cpt Z | : 1/2 1/2
cpt X | Z=0 : 3/4 1/4
cpt X | Z=1 : 1/4 3/4
cpt Y | Z=0 X=0 : 9/10 1/10
cpt Y | Z=0 X=1 : 1/2 1/2
cpt Y | Z=1 X=0 : 2/3 1/3
cpt Y | Z=1 X=1 : 1/10 9/10
"""

ZERO_W = """\
var W
var Y
edge W -> Y
domain W 0 1
domain Y 0 1
cpt W | : 1 0
cpt Y | W=0 : 1/2 1/2
cpt Y | W=1 : 1/2 1/2
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("loyalty.graph", LOYALTY),
                       ("frontdoor.graph", FRONTDOOR),
                       ("chain.graph", CHAIN), ("fork.graph", FORK),
                       ("collider.graph", COLLIDER),
                       ("confounder.model", CONFOUNDER),
                       ("zerow.model", ZERO_W)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- dsep -----------------------------------------------------------------

def test_dsep_separated_under_outgoing_cut(files, capsys):
    code, out, err = run(capsys, "dsep", files["loyalty.graph"],
                         "--x", "X", "--y", "Y", "--given", "Z",
                         "--cut-outgoing", "X")
    assert code == 0 and out == "SEPARATED\n" and err == ""


def test_dsep_connected_with_witness(files, capsys):
    code, out, _ = run(capsys, "dsep", files["collider.graph"],
                       "--x", "X", "--y", "Y", "--given", "Z")
    assert code == 0
    assert out == "CONNECTED X -> Z <- Y\n"


def test_dsep_unknown_variable_exit_2(files, capsys):
    code, out, err = run(capsys, "dsep", files["chain.graph"],
                         "--x", "Q", "--y", "Y")
    assert code == 2 and out == "" and "'Q'" in err


def test_dsep_json(files, capsys):
    code, out, _ = run(capsys, "dsep", files["chain.graph"],
                       "--x", "X", "--y", "Y", "--given", "Z", "--json")
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["separated"] is True
    assert doc["witness"] is None


@pytest.mark.parametrize("argv, out", [
    (("--x", "X", "--y", "Y", "--given", "Z"), "SEPARATED\n"),
    (("--x", "X", "--y", "Y"), "CONNECTED X -> Z -> Y\n"),
], ids=["separated", "connected"])
def test_dsep_sweeps_once(files, monkeypatch, capsys, argv, out):
    # the witness search answers both verdicts: one reachability sweep
    sweeps = []
    reach_states = dsep._reach_states

    def counting_reach_states(*args):
        sweeps.append(args)
        return reach_states(*args)

    monkeypatch.setattr(dsep, "_reach_states", counting_reach_states)
    assert run(capsys, "dsep", files["chain.graph"], *argv) == (0, out, "")
    assert len(sweeps) == 1


@pytest.mark.parametrize("argv, message", [
    (("--x", "X,X", "--y", "Y"), "--x names 'X' twice"),
    (("--x", "X", "--y", "Y, Y"), "--y names 'Y' twice"),
    (("--x", "X", "--y", "Y", "--given", "Z,Z"), "--given names 'Z' twice"),
    (("--x", "X", "--y", "Y", "--cut-incoming", "Z,Z"),
     "--cut-incoming names 'Z' twice"),
    (("--x", "X", "--y", "Y", "--cut-outgoing", "X,X"),
     "--cut-outgoing names 'X' twice"),
], ids=["x-twice", "y-twice", "given-twice", "cut-incoming-twice",
        "cut-outgoing-twice"])
def test_dsep_names_each_variable_once(files, capsys, argv, message):
    code, out, err = run(capsys, "dsep", files["chain.graph"], *argv,
                         "--json")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# -- identify -----------------------------------------------------------------

def test_identify_frontdoor_text(files, capsys):
    code, out, _ = run(capsys, "identify", files["frontdoor.graph"],
                       "--x", "X", "--y", "Y")
    assert code == 0
    assert "status: IDENTIFIED (9 steps)" in out
    assert "formula: sum_Z p(Z|X) sum_X' p(Y|X',Z) p(X')" in out


def test_identify_pricing(files, tmp_path, capsys):
    pricing = tmp_path / "pricing.graph"
    pricing.write_text("var U latent\nvar X\nvar Z\nvar Y\n"
                       "edge U -> X\nedge U -> Z\nedge X -> Z\n"
                       "edge X -> Y\nedge Z -> Y\n")
    code, out, _ = run(capsys, "identify", str(pricing),
                       "--x", "X", "--y", "Y")
    assert code == 1
    assert "KNOWN-NON-IDENTIFIABLE" in out


def test_identify_budget_one(files, capsys):
    code, out, _ = run(capsys, "identify", files["frontdoor.graph"],
                       "--x", "X", "--y", "Y", "--budget", "1")
    assert code == 1
    assert "NOT-IDENTIFIED-WITHIN-BUDGET (1)" in out


def test_identify_ignores_leaves_that_would_overflow_the_joint(tmp_path,
                                                             capsys):
    # X -> Y plus 20 leaves: 22 binary nodes would need a 2^22-cell joint,
    # over the cell budget, but the oracle check runs on G[An(X u Y)]
    leaves = [f"E{i}" for i in range(20)]
    g = tmp_path / "leaves.graph"
    g.write_text("".join(f"var {n}\n" for n in ["X", "Y", *leaves])
                 + "edge X -> Y\n"
                 + "".join(f"edge {'X' if i % 2 == 0 else 'Y'} -> {e}\n"
                           for i, e in enumerate(leaves)))
    code, out, err = run(capsys, "identify", str(g), "--x", "X", "--y", "Y",
                         "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["status"], doc["budget_spent"], doc["formula"]) == \
        ("identified", 1, "p(Y|X)")


def test_identify_latent_treatment_is_error(files, capsys):
    code, out, err = run(capsys, "identify", files["frontdoor.graph"],
                         "--x", "U", "--y", "Y")
    assert code == 2 and "observed" in err


def test_identify_latex_and_json(files, capsys):
    code, out, _ = run(capsys, "identify", files["loyalty.graph"],
                       "--x", "X", "--y", "Y", "--latex")
    assert "\\sum_{Z} p(Y|X,Z) \\: p(Z)" in out
    code, out, _ = run(capsys, "identify", files["loyalty.graph"],
                       "--x", "X", "--y", "Y", "--json")
    doc = json.loads(out)
    assert doc["status"] == "identified"
    assert doc["formula"] == "sum_Z p(Y|X,Z) p(Z)"
    assert [s["rule"] for s in doc["derivation"]] == \
        ["marginalize", "chain", "rule3", "rule2"]
    assert doc["derivation"][0]["step"] == 1


# -- eval ----------------------------------------------------------------------

def test_eval_do_marginal(files, capsys):
    code, out, _ = run(capsys, "eval", files["confounder.model"],
                       "--do", "X=1", "--target", "Y")
    assert code == 0
    assert "X=1 Y=1: 7/10 = 0.7" in out


def test_eval_check_prints_zero_difference(files, capsys):
    code, out, _ = run(capsys, "eval", files["confounder.model"],
                       "--do", "X=1", "--target", "Y", "--check")
    assert code == 0
    assert out.count("check-diff: 0") == 2


def test_eval_formula(files, capsys):
    code, out, _ = run(capsys, "eval", files["confounder.model"],
                       "--formula", "sum_Z p(Y|X,Z) p(Z)")
    assert code == 0
    assert "X=1 Y=1: 7/10 = 0.7" in out


def test_eval_formula_check_against_oracle(files, capsys):
    code, out, _ = run(capsys, "eval", files["confounder.model"],
                       "--formula", "sum_Z p(Y|X,Z) p(Z)",
                       "--do", "X", "--target", "Y", "--check")
    assert code == 0
    assert out.count("check-diff: 0") == 4


def test_eval_positivity_error_names_term(files, capsys):
    code, out, err = run(capsys, "eval", files["zerow.model"],
                         "--formula", "p(Y|W)")
    assert code == 1 and out == ""
    assert "p(W)" in err


def test_eval_usage_errors(files, capsys):
    code, _, err = run(capsys, "eval", files["confounder.model"])
    assert code == 2 and "--formula or --do" in err
    code, _, err = run(capsys, "eval", files["confounder.model"],
                       "--do", "X=1", "--do", "Z=1", "--target", "Y")
    assert code == 2 and "exactly one" in err
    for argv, message in [
            (("--do", "X=9", "--target", "Y"),
             "value '9' not in domain of 'X'"),
            (("--formula", "p(Y|X)", "--do", "X", "--check"),
             "--check on a formula needs --do and --target to name the "
             "oracle quantity"),
            (("--do", "X"), "--do needs --target"),
            (("--formula", "sum_X' sum_X' p(Y,X')", "--target", "Y"),
             "bound variable rebinds name in scope: X'")]:
        assert run(capsys, "eval", files["confounder.model"], *argv) == \
            (2, "", f"error: {message}\n")


def test_binder_clash_names_repeat_across_hash_seeds():
    # the clashing names are printed sorted, so the message is the same
    # in every process, whatever its string-hash seed
    argv = [sys.executable, "-m", "causalid.cli", "eval",
            str(DEMO / "confounder.model"), "--formula",
            "sum_{Z,X} sum_{Z,X} p(Y,Z,X)", "--target", "Y"]
    runs = {(done.returncode, done.stdout, done.stderr) for done in (
        subprocess.run(argv, capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": str(seed)})
        for seed in range(1, 5))}
    assert runs == {(2, "", "error: bound variable rebinds name in scope: "
                             "X, Z\n")}


def test_eval_json_document(files, capsys):
    # rows run over each do-assignment, then the targets, then the
    # formula's other free variables; bindings keep that key order
    code, out, err = run(capsys, "eval", files["confounder.model"],
                         "--formula", "sum_Z p(Y|X,Z) p(Z)", "--do", "X",
                         "--target", "Y", "--check", "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": 1, "command": "eval", "rows": [
        {"binding": {"X": x, "Y": y}, "exact": exact,
         "approx": float(F(exact)), "check_diff": "0"}
        for x, y, exact in [("0", "0", "47/60"), ("0", "1", "13/60"),
                            ("1", "0", "3/10"), ("1", "1", "7/10")]]}
    code, out, _ = run(capsys, "eval", files["confounder.model"],
                       "--formula", "p(Y|X,Z)", "--do", "X=1", "--target",
                       "Y", "--json")
    rows = json.loads(out)["rows"]
    assert code == 0 and [list(r["binding"].items()) for r in rows] == [
        [("X", "1"), ("Y", y), ("Z", z)] for y in "01" for z in "01"]
    assert [r["exact"] for r in rows] == ["1/2", "1/10", "1/2", "9/10"]
    # a primed free variable is a row axis of its own, keyed as written
    code, out, err = run(capsys, "eval", files["confounder.model"],
                         "--formula", "p(Y|X')", "--do", "X=1", "--json")
    rows = json.loads(out)["rows"]
    assert code == 0 and err == ""
    assert [list(r["binding"].items()) for r in rows] == [
        [("X", "1"), ("X'", x), ("Y", y)] for x in "01" for y in "01"]
    assert [r["exact"] for r in rows] == ["101/120", "19/120", "1/5", "4/5"]


@pytest.mark.parametrize("do, xs", [
    ((), [""]),
    (("--do", "X=1"), ["X=1 "]),
    (("--do", "X"), ["X=0 ", "X=1 "]),
], ids=["no-do", "do-fixed", "do-free"])
def test_eval_primed_variable_is_its_own_axis(files, capsys, do, xs):
    # p(Y|X') does not mention X, so every X row reads the same values
    code, out, err = run(capsys, "eval", files["confounder.model"],
                         "--formula", "p(Y|X')", *do)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"{x}X'={xp} Y={y}: {v}" for x in xs for xp, y, v in [
            ("0", "0", "101/120 = 0.8416666666666667"),
            ("0", "1", "19/120 = 0.15833333333333333"),
            ("1", "0", "1/5 = 0.2"), ("1", "1", "4/5 = 0.8")]]


def test_double_underscore_name_end_to_end(tmp_path, capsys):
    # a name ending in __<digits> is an ordinary name, and so is its
    # primed copy in a formula
    graph = "var A\nvar B__1\nedge A -> B__1\n"
    (tmp_path / "ab.graph").write_text(graph)
    (tmp_path / "ab.model").write_text(
        graph + "domain A 0 1\ndomain B__1 0 1\ncpt A | : 1/3 2/3\n"
        "cpt B__1 | A=0 : 1/4 3/4\ncpt B__1 | A=1 : 3/5 2/5\n")
    code, out, err = run(capsys, "identify", str(tmp_path / "ab.graph"),
                         "--x", "A", "--y", "B__1")
    assert code == 0 and err == ""
    assert "formula: p(B__1|A)" in out.splitlines()
    code, out, err = run(capsys, "eval", str(tmp_path / "ab.model"),
                         "--formula", "p(B__1|A) / sum_B__1' p(B__1'|A)",
                         "--do", "A", "--target", "B__1", "--check")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "A=0 B__1=0: 1/4 = 0.25  check-diff: 0",
        "A=0 B__1=1: 3/4 = 0.75  check-diff: 0",
        "A=1 B__1=0: 3/5 = 0.6  check-diff: 0",
        "A=1 B__1=1: 2/5 = 0.4  check-diff: 0"]


@pytest.mark.parametrize("argv, message", [
    (("--do", "X=1", "--target", "Y,Y"), "--target names 'Y' twice"),
    (("--do", "X=1", "--do", "X=0", "--target", "Y"),
     "--do names 'X' twice"),
    (("--formula", "p(Y|X)", "--do", "X", "--do", "X", "--target", "Y"),
     "--do names 'X' twice"),
], ids=["target-twice", "do-value-twice", "do-axis-twice"])
def test_eval_names_each_variable_once(files, capsys, argv, message):
    code, out, err = run(capsys, "eval", files["confounder.model"], *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_eval_check_target_must_be_free_in_formula(files, capsys):
    code, out, err = run(capsys, "eval", files["confounder.model"],
                         "--formula", "p(Y|X)", "--do", "X", "--target",
                         "Z", "--check")
    assert code == 2 and out == ""
    assert err == ("error: --check target 'Z' is not a free variable of "
                   "the formula\n")


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("var A\nedge A ->\n")
    code, out, err = run(capsys, "dsep", str(bad), "--x", "A", "--y", "A")
    assert code == 2 and "line 2" in err


# -- equiv / pattern --------------------------------------------------------------

def test_equiv_chain_fork(files, capsys):
    code, out, _ = run(capsys, "equiv", files["chain.graph"],
                       files["fork.graph"])
    assert code == 0 and out == "EQUIVALENT\n"


def test_equiv_chain_collider(files, capsys):
    code, out, _ = run(capsys, "equiv", files["chain.graph"],
                       files["collider.graph"])
    assert code == 0
    assert out.startswith("DISTINCT")
    assert "(X,Z,Y)" in out


def test_equiv_skeleton_edge_and_json(files, tmp_path, capsys):
    triangle = tmp_path / "triangle.graph"
    triangle.write_text(CHAIN + "edge X -> Y\n")
    code, out, _ = run(capsys, "equiv", files["chain.graph"],
                       str(triangle))
    assert code == 0
    assert out == f"DISTINCT skeleton edge X-Y only in {triangle}\n"
    code, out, _ = run(capsys, "equiv", files["chain.graph"],
                       files["collider.graph"], "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1, "command": "equiv", "equivalent": False,
        "detail": f"v-structure (X,Z,Y) only in {files['collider.graph']}"}


def test_pattern_output(files, capsys):
    code, out, _ = run(capsys, "pattern", files["collider.graph"])
    assert code == 0 and out == "X->Z  Y->Z\n"
    code, out, _ = run(capsys, "pattern", files["chain.graph"])
    assert code == 0 and out == "X-Z  Z-Y\n"


def test_pattern_json_and_no_edges(files, tmp_path, capsys):
    code, out, _ = run(capsys, "pattern", files["collider.graph"], "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "command": "pattern",
                               "directed": [["X", "Z"], ["Y", "Z"]],
                               "undirected": []}
    empty = tmp_path / "empty.graph"
    empty.write_text("var A\nvar B\n")
    code, out, _ = run(capsys, "pattern", str(empty))
    assert code == 0 and out == "(no edges)\n"


# -- corpus ---------------------------------------------------------------------

def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "--list")
    assert code == 0
    for name in ("loyalty", "insurance", "sales-training", "pricing",
                 "rct-coin", "front-door"):
        assert name in out
    assert "unavailable:" in out


def test_corpus_list_json(capsys):
    code, out, _ = run(capsys, "corpus", "--list", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["command"] == "corpus"
    loyalty = next(e for e in doc["entries"] if e["name"] == "loyalty")
    assert loyalty["treatment"] == ["X"] and loyalty["outcome"] == ["Y"]
    assert loyalty["nodes"] == 4 and loyalty["latent"] == 1
    assert doc["unavailable"] and all(set(u) == {"name", "note"}
                                      for u in doc["unavailable"])


def test_corpus_run_all_green(capsys):
    code, out, _ = run(capsys, "corpus", "--run")
    assert code == 0
    assert "FAIL" not in out
    assert "12/12 passed" in out


def test_corpus_run_filter(capsys):
    code, out, _ = run(capsys, "corpus", "--run", "--filter", "pricing")
    assert code == 0
    assert "1/1 passed" in out


def test_corpus_json_single_document(capsys):
    code, out, _ = run(capsys, "corpus", "--run", "--json")
    doc = json.loads(out)  # exactly one JSON document on stdout
    assert doc["failed"] == 0 and doc["passed"] == 12


def test_identical_runs_are_byte_identical(files, capsys):
    a = run(capsys, "identify", files["frontdoor.graph"],
            "--x", "X", "--y", "Y", "--json")
    b = run(capsys, "identify", files["frontdoor.graph"],
            "--x", "X", "--y", "Y", "--json")
    assert a == b


def test_eval_builds_one_oracle_table_per_do_assignment(monkeypatch,
                                                        capsys):
    # each do-assignment's rows read one surgery table (and, under
    # --do --check, one truncated-product table) built on its first row
    calls = []
    do_marginal = DiscreteModel.do_marginal
    truncated = DiscreteModel.truncated

    def counting_do_marginal(self, *args):
        calls.append("do_marginal")
        return do_marginal(self, *args)

    def counting_truncated(self, *args):
        calls.append("truncated")
        return truncated(self, *args)

    monkeypatch.setattr(DiscreteModel, "do_marginal", counting_do_marginal)
    monkeypatch.setattr(DiscreteModel, "truncated", counting_truncated)
    model = str(DEMO / "frontdoor.model")
    code, out, _ = run(capsys, "eval", model, "--do", "X=1", "--target",
                       "Y", "--check")
    assert code == 0 and out.count("check-diff: 0\n") == 2
    assert sorted(calls) == ["do_marginal", "truncated"]
    calls.clear()
    code, out, _ = run(capsys, "eval", model, "--formula",
                       "sum_Z p(Z|X) sum_X' p(Y|X',Z) p(X')", "--do", "X",
                       "--target", "Y", "--check")
    assert code == 0 and out.count("check-diff: 0\n") == 4
    assert calls == ["do_marginal"] * 2


# -- usage errors caught before any work ----------------------------------------

@pytest.mark.parametrize("budget", ["0", "-3"])
def test_identify_budget_below_one_is_usage_error(files, capsys, budget):
    code, out, err = run(capsys, "identify", files["frontdoor.graph"],
                         "--x", "X", "--y", "Y", "--budget", budget)
    assert code == 2 and out == ""
    assert err == "error: --budget must be at least 1\n"


@pytest.mark.parametrize("argv, message", [
    (("--x", "X,X", "--y", "Y"), "--x names 'X' twice"),
    (("--x", "X", "--y", "Y, Y"), "--y names 'Y' twice"),
], ids=["x-twice", "y-twice"])
def test_identify_names_each_variable_once(files, capsys, argv, message):
    code, out, err = run(capsys, "identify", files["frontdoor.graph"], *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("do", ["X=1", "X"])
def test_eval_target_repeating_do_is_usage_error(capsys, do):
    code, out, err = run(capsys, "eval", str(DEMO / "frontdoor.model"),
                         "--do", do, "--target", "X")
    assert code == 2 and out == ""
    assert err == "error: --target and --do must be disjoint\n"


# -- exit codes of the entry point --------------------------------------------

def test_main_called_twice_matches_fresh_processes(capsys):
    # the parser is built once per process; no --do list carries over
    # from one call to the next
    model = str(DEMO / "confounder.model")
    calls = [("eval", model, "--do", "X=1", "--target", "Y"),
             ("eval", model, "--do", "X", "--target", "Y")]
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "causalid.cli", *argv],
            capture_output=True, text=True)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                      fresh.stderr)
    assert run(capsys, *calls[1])[1].count("\n") == 4
    assert cli._build_parser() is cli._build_parser()


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "pattern", str(tmp_path / "missing.graph"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {tmp_path / 'missing.graph'}")


def test_argparse_error_is_usage_error(capsys):
    code, out, err = run(capsys, "identify", "--x", "X")
    assert code == 2 and out == "" and "usage:" in err


def test_engine_invariant_error_exits_3(files, monkeypatch, capsys):
    def broken(query, budget):
        raise EngineInvariantError("formula disagrees")

    monkeypatch.setattr(cli, "identify", broken)
    code, out, err = run(capsys, "identify", files["frontdoor.graph"],
                         "--x", "X", "--y", "Y")
    assert code == 3 and out == ""
    assert err == "internal error: formula disagrees\n"
