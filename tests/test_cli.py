import ast
import json
import shutil
import time

import pytest

from symcanon.cli import main
from symcanon.report import fixtures_dir

from conftest import run_python


CONFIRM = "re-evaluated sum of {} outer powers: matches input\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_markdown_f3(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--order", "3", "--format", "md")
    assert code == 0
    assert out.count("| 3 |") >= 2  # two rank-3 orbit rows


def test_classify_rejects_composite_p(capsys):
    code, _, err = run(capsys, "classify", "--p", "4", "--order", "3")
    assert code == 2
    assert "prime" in err


def test_huge_prime_is_refused_promptly(capsys):
    # 2^61 - 1 is prime: the primality test answers at once, and the budget
    # then refuses the space with exit 3; from 2^64 on the modulus is a
    # usage error
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "--p", str(2**61 - 1), "--tensor", "c:1,0,0,0")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == "" and "budget" in err
    code, out, err = run(capsys, "rank", "--p", str(2**64 + 13), "--tensor", "c:1,0,0,0")
    assert code == 2 and out == "" and "2^64" in err


def test_classify_budget_exit(capsys):
    code, _, err = run(capsys, "classify", "--p", "17", "--order", "3", "--budget", "100")
    assert code == 3
    assert "budget" in err


def test_classify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--p", "2", "--order", "3",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["stratum_counts"] == [1, 3, 3, 1]


def test_classify_unwritable_out_is_usage_error(tmp_path, capsys):
    # exit 1 is reserved for a verify-paper MISMATCH
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "classify", "--p", "2", "--order", "3",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not out_path.parent.exists()


def test_rank_query(capsys):
    code, out, _ = run(capsys, "rank", "--p", "2", "--tensor", "0,0,0,0,0,0,0,1")
    assert code == 0 and out.strip() == "1"


def test_rank_undecomposable_exit4(capsys):
    code, _, err = run(capsys, "rank", "--p", "2", "--tensor", "c:0,1,0,0")
    assert code == 4
    assert "no symmetric decomposition" in err


@pytest.mark.parametrize("command", ["rank", "decompose"])
def test_undecomposable_query_names_the_tensor(capsys, command):
    code, out, err = run(capsys, command, "--p", "2", "--tensor", "c:0,1,0,0")
    assert code == 4 and out == ""
    assert err == "error: no symmetric decomposition (0,1,1,0,1,0,0,0)\n"


def test_rank_rejects_asymmetric_literal(capsys):
    code, _, err = run(capsys, "rank", "--p", "2", "--tensor", "0,1,0,0,0,0,0,0")
    assert code == 2
    assert "symmetric" in err


def test_rank_rejects_bad_literal(capsys):
    code, _, _ = run(capsys, "rank", "--p", "2", "--tensor", "0,1,2")
    assert code == 2


@pytest.mark.parametrize("literal", ["c:1_0,1,1,1", "c:\u0663,1,+1,1", "c:\uff13,1,+1,1",
                                     "c:1,2,,0,3", "c:0,1,1,1,"])
def test_rank_rejects_non_ascii_decimal_digits(capsys, literal):
    # int() would read 10, 3 and 1 here, and dropping the empty fields would
    # read c:1,2,0,3 and c:0,1,1,1, each answering with exit 0
    code, out, err = run(capsys, "rank", "--p", "11", "--tensor", literal)
    assert code == 2 and out == ""
    assert "bad tensor literal digit" in err and "Traceback" not in err


def test_canon_of_zero(capsys):
    code, out, _ = run(capsys, "canon", "--p", "3", "--tensor", "0,0,0,0,0,0,0,0")
    assert code == 0 and out.strip() == "0,0,0,0,0,0,0,0"


def test_canon_of_rank2_f5(capsys):
    # x^3 + y^3 is rank 2 over F_5; its orbit minimum is the table's rank-2 row
    code, out, _ = run(capsys, "canon", "--p", "5", "--tensor", "c:1,0,0,1")
    assert code == 0 and out.strip() == "0,1,1,0,1,0,0,1"


def test_orbit_and_stabilizer(capsys):
    code, out, _ = run(capsys, "orbit", "--p", "3", "--tensor", "c:0,1,0,2")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "stabilizer", "--p", "3", "--tensor", "c:0,1,0,2")
    assert code == 0 and out.strip() == "2"


def test_decompose_prints_witness_and_confirmation(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "2", "--tensor", "0,1,1,1,1,1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert set(lines[:-1]) == {"1,0", "1,1"}
    assert "matches input" in lines[-1]


def test_order_inferred_from_literal(capsys):
    code, out, _ = run(capsys, "rank", "--p", "2",
                       "--tensor", "c:0,0,0,0,1")
    assert code == 0 and out.strip() == "1"


def test_verify_paper_consistent_table(capsys):
    code, out, _ = run(capsys, "verify-paper", "--p", "3", "--order", "3")
    assert code == 0
    assert "reproduced exactly" in out


def test_verify_paper_errata_still_exit0(capsys):
    code, out, _ = run(capsys, "verify-paper", "--p", "17", "--order", "3")
    assert code == 0
    assert out.count("ERRATUM-SUSPECTED") == 2  # sizes + prose note
    assert "MISMATCH" not in out


def test_verify_paper_missing_fixture(capsys):
    code, _, err = run(capsys, "verify-paper", "--p", "19", "--order", "3")
    assert code == 2
    assert "no reference table" in err


def test_verify_paper_needs_p_or_all(capsys):
    code, _, err = run(capsys, "verify-paper", "--order", "3")
    assert code == 2
    assert "--p" in err


def test_verify_paper_mismatch_exit1(tmp_path, capsys):
    lines = ["p=2", "k=3",
             "0,1,0 0 0 0 0 0 0 0",
             "1,3,0 0 0 0 0 0 0 1",
             "2,3,0 1 1 1 1 1 1 1",
             "3,2,0 1 1 1 1 1 1 0"]  # wrong size on the last row
    (tmp_path / "k3_p2.table").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify-paper", "--p", "2", "--order", "3",
                       "--fixtures", str(tmp_path))
    assert code == 1
    assert "MISMATCH" in out


def test_stats_table(capsys):
    code, out, _ = run(capsys, "stats", "--p", "2", "--order", "3")
    assert code == 0
    assert "0,1,6.25" in out and "undecomposable,8,50.00" in out


def test_missing_order_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--p", "3")
    assert code == 2 and "--order" in err


def test_threads_option_is_rejected(capsys):
    code, _, err = run(capsys, "classify", "--p", "3", "--order", "3", "--threads", "2")
    assert code == 2 and "--threads" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMCANON_BUDGET", "100")
    code, _, err = run(capsys, "classify", "--p", "17", "--order", "3")
    assert code == 3 and "budget" in err
    # an explicit flag wins over the environment
    code, _, _ = run(capsys, "stats", "--p", "17", "--order", "3",
                     "--budget", str(10**8))
    assert code == 0


def test_orbit_queries_honour_the_budget(capsys, monkeypatch):
    # canon, orbit and stabilizer scan all |GL2| group elements, so they
    # refuse an oversized group as rank refuses an oversized space, by flag
    # or by environment
    query = ["--p", "17", "--order", "3", "--tensor", "c:1,0,0,1"]
    for command in ("canon", "orbit", "stabilizer"):
        code, out, err = run(capsys, command, *query, "--budget", "10")
        assert code == 3 and out == "" and "budget of 10 codes" in err, command
    monkeypatch.setenv("SYMCANON_BUDGET", "10")
    for command in ("canon", "orbit", "stabilizer"):
        code, out, err = run(capsys, command, *query)
        assert code == 3 and out == "" and "budget of 10 codes" in err, command


def test_orbit_queries_count_the_group_not_the_space(capsys):
    # at p = 17 the space holds 83 521 codes and GL2 78 336 elements
    query = ["--p", "17", "--order", "3", "--tensor", "c:1,0,0,1", "--budget"]
    for command, answer in (("canon", "0,1,1,0,1,0,0,1"), ("orbit", "39168"), ("stabilizer", "2")):
        assert run(capsys, command, *query, "80000") == (0, answer + "\n", ""), command
        code, out, err = run(capsys, command, *query, "78335")
        assert code == 3 and out == "" and "78336 exceeds the budget of 78335 codes" in err, command


def test_orbit_queries_never_load_numpy():
    # numpy's own __init__ imports numpy.linalg, on 1.24 and 2.x alike, so
    # its absence means numpy was never loaded.  Every one-tensor query stays
    # clear of it, on a basis scan (17,3), a support enumeration (a rank-10
    # tensor at (5,4)), no basis at all ((3,4), one tensor of rank 8 and one
    # undecomposable) and a rank-5 tensor at (7,3); stats ranks the whole
    # space with it
    script = """
import sys
import symcanon, symcanon.cli
queries = [("17", "3", "c:1,2,3,4", 0), ("7", "4", "c:1,2,3,4,5", 0), ("5", "4", "c:0,0,0,1,0", 0),
           ("3", "4", "c:0,0,1,0,0", 0), ("3", "4", "c:0,0,0,1,0", 4), ("7", "3", "c:6,6,5,6", 0)]
for command in ("canon", "orbit", "stabilizer", "rank", "decompose"):
    for p, k, tensor, code in queries:
        expected = code if command in ("rank", "decompose") else 0
        assert symcanon.cli.main([command, "--p", p, "--order", k, "--tensor", tensor]) == expected
loaded = ["numpy.linalg" in sys.modules]
assert symcanon.cli.main(["stats", "--p", "7", "--order", "4"]) == 0
print(loaded + ["numpy.linalg" in sys.modules])
"""
    assert run_python("-c", script).splitlines()[-1] == "[False, True]"


def test_queries_import_only_the_query_path():
    # a fresh process pays for every module it imports: the five one-tensor
    # commands, on a basis scan, a support enumeration and no basis at all,
    # undecomposable input included, load no whole-space module
    script = """
import sys
before = set(sys.modules)
import symcanon.cli
whole_space = ["dataclasses", "json", "numpy", "symcanon.classify", "symcanon.report", "symcanon.rank_strata"]
queries = [("17", "3", "c:1,2,3,4"), ("5", "4", "c:0,0,0,1,0"), ("3", "4", "c:0,0,0,1,0")]
new = {}
for command in ("rank", "decompose", "canon", "orbit", "stabilizer"):
    for p, k, tensor in queries:
        assert symcanon.cli.main([command, "--p", p, "--order", k, "--tensor", tensor]) in (0, 4)
    new[command] = [m for m in whole_space if m in sys.modules and m not in before]
new["symcanon"] = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "symcanon")
print(repr(new))
"""
    new = ast.literal_eval(run_python("-c", script).splitlines()[-1])
    assert new.pop("symcanon") == ["symcanon", "symcanon._version", "symcanon.apolar", "symcanon.cli",
                                   "symcanon.errors", "symcanon.gfp", "symcanon.group_action", "symcanon.tensor"]
    assert new == dict.fromkeys(["rank", "decompose", "canon", "orbit", "stabilizer"], [])


@pytest.mark.parametrize("argv, line", [
    (["stats", "--p", "2", "--order", "3"], "undecomposable,8,50.00"),
    (["classify", "--p", "3", "--order", "3", "--format", "tabular"], "3,24,0 1 1 0 1 0 0 2"),
    (["verify-paper", "--all"], "p=3 k=3: table reproduced exactly"),
])
def test_whole_space_commands_from_a_fresh_process(capsys, argv, line):
    # they import the whole-space modules when they run, under -m as well
    out = run_python("-m", "symcanon.cli", *argv)
    assert line in out.splitlines()
    assert run(capsys, *argv) == (0, out, "")


def test_rank_queries_count_their_solves_not_the_space(capsys):
    # at p = 17, k = 3 the space holds 83 521 codes, and a rank query solves
    # the k + 1 coefficients of each of the C(18, 4) = 3 060 bases: 12 240
    query = ["--p", "17", "--order", "3", "--tensor", "c:1,2,3,4", "--budget"]
    for command, answer in (("rank", "3\n"), ("decompose", "7,13\n10,2\n1,15\n" + CONFIRM.format(3))):
        assert run(capsys, command, *query, "80000") == (0, answer, ""), command
        assert run(capsys, command, *query, "12240") == (0, answer, ""), command
        code, out, err = run(capsys, command, *query, "12239")
        assert code == 3 and out == "", command
        assert err == "error: basis scan of (k+1) C(p+1, k+1) = 12240 exceeds the budget of 12239 codes\n"


def test_enumerations_count_against_the_budget(capsys):
    # a rank-10 tensor at (5,4) costs 10 on the bases, so its rank also
    # needs the supports of 6 points: the one support, with 4 choices of its
    # sixth coefficient, adds 5 * 4 = 20 solves to the 5 * C(6, 5) = 30; at
    # (3,4) no 5 of the 4 points make a basis, and the 3^4 coefficient
    # vectors are tried instead
    for p, k, tensor, answer, what, count in (
            ("5", "4", "c:0,0,0,1,0", "10", "basis scan and support enumeration", 50),
            ("3", "4", "c:0,0,1,0,0", "8", "coefficient vectors p^(p+1)", 81)):
        query = ["--p", p, "--order", k, "--tensor", tensor, "--budget"]
        assert run(capsys, "rank", *query, str(count)) == (0, answer + "\n", "")
        code, out, err = run(capsys, "rank", *query, str(count - 1))
        assert code == 3 and out == ""
        assert err == f"error: {what} = {count} exceeds the budget of {count - 1} codes\n"


def test_budget_env_unparsable(capsys, monkeypatch):
    for bad in ("abc", "1e6"):
        monkeypatch.setenv("SYMCANON_BUDGET", bad)
        code, _, err = run(capsys, "rank", "--p", "5", "--tensor", "c:1,0,0,0")
        assert code == 2
        assert "SYMCANON_BUDGET" in err and repr(bad) in err


def test_fixtures_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SYMCANON_FIXTURES", str(tmp_path))
    code, _, err = run(capsys, "verify-paper", "--p", "3", "--order", "3")
    assert code == 2 and "no reference table" in err


def test_verify_paper_all(capsys):
    code, out, _ = run(capsys, "verify-paper", "--all")
    assert code == 0
    assert out.count("reproduced exactly") == 7  # the seven fully consistent tables
    assert out.count("ERRATUM-SUSPECTED") == 5
    assert "MISMATCH" not in out


@pytest.mark.parametrize("name", ["k3_p5_old.table", "kx_p5.table", "k03_p5.table"])
def test_verify_paper_all_names_a_stray_table(tmp_path, capsys, name):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), fixtures)
    shutil.copy(fixtures / "k3_p5.table", fixtures / name)
    code, out, err = run(capsys, "verify-paper", "--all", "--fixtures", str(fixtures))
    assert code == 2 and out == ""
    assert err == f"error: {name}: table names must read k<order>_p<prime>.table\n"
