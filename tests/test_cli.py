import json

from symcanon.cli import main


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


def test_rank_rejects_asymmetric_literal(capsys):
    code, _, err = run(capsys, "rank", "--p", "2", "--tensor", "0,1,0,0,0,0,0,0")
    assert code == 2
    assert "symmetric" in err


def test_rank_rejects_bad_literal(capsys):
    code, _, _ = run(capsys, "rank", "--p", "2", "--tensor", "0,1,2")
    assert code == 2


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
