"""Command-line driver: exit codes, report files, determinism."""

import json

import pytest

from convalg import __version__, checks, groupalg
from convalg.cli import main
from convalg.errors import SizeError


def test_verify_weights_suite_passes(capsys):
    assert main(["verify", "--suite", "weights"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_writes_summary(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    assert main(["verify", "--suite", "seqalg", "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["version"] == __version__
    assert doc["config"]["suite"] == "seqalg"
    assert all(check["passed"] for check in doc["checks"])


def test_verify_lists_each_registered_check_once(monkeypatch, tmp_path, capsys):
    # the acceptance tests run the check bodies; here each is stubbed out
    registry = [(module, name, lambda: "stub") for module, name, _ in checks.CHECKS]
    monkeypatch.setattr(checks, "CHECKS", registry)
    out_file = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert [c["name"] for c in doc["checks"]] == \
        [f"{module}/{name}" for module, name, _ in registry]


def test_verify_reports_failed_checks(monkeypatch, capsys):
    def false_condition():
        checks._require(1.0 > 2.0, "one is not above two")
        return "unreachable"

    def package_error():
        raise SizeError("too big")

    monkeypatch.setattr(checks, "CHECKS", [
        ("seqalg", "false-condition", false_condition),
        ("seqalg", "package-error", package_error),
        ("seqalg", "passing", lambda: "fine")])
    assert main(["verify", "--suite", "seqalg"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  seqalg/false-condition: one is not above two" in out
    assert "FAIL  seqalg/package-error: SizeError: too big" in out
    assert "PASS  seqalg/passing: fine" in out
    assert "1/3 checks passed" in out


def test_blowup_csv_report(tmp_path, capsys):
    out_file = tmp_path / "blowup.csv"
    code = main(["blowup", "--case", "1", "--r", "0.5", "--gamma", "0.5",
                 "--p", "1", "--n", "9,16", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    assert config["case"] == 1 and config["version"] == __version__
    assert lines[1] == "n,ratio,model_value,k_n,lower_bound_ratio,cr_empirical"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "9"
    assert float(first[1]) == pytest.approx(13.51743308, rel=1e-6)


def test_blowup_rejects_inadmissible_r(capsys):
    code = main(["blowup", "--case", "2", "--r", "0.6", "--a", "2",
                 "--n", "5"])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


def test_distortion_json_deterministic(tmp_path, capsys):
    args = ["distortion", "--a", "2", "--r", "0.05", "--N", "32",
            "--format", "json"]
    f1, f2 = tmp_path / "d1.json", tmp_path / "d2.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    row = doc["rows"][0]
    assert row["distortion"] >= 1.0 - 1e-9
    assert row["nonstandard_witness"] is True


def test_group_scan(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code = main(["group-scan", "--n", "4", "--norm-n", "3,4",
                 "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["scan"]["total"] == 24
    assert doc["scan"]["standard_count"] == 8
    assert len(doc["norm_scans"]) == 2
    text = capsys.readouterr().out
    assert "24 dual-permutation automorphisms" in text


@pytest.mark.parametrize("argv", [["--n", "9", "--norm-n", "4,12"],
                                  ["--n", "10", "--norm-n", "4"]])
def test_group_scan_refuses_oversize_orders_before_scanning(monkeypatch, capsys, argv):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran before the size check")

    monkeypatch.setattr(groupalg, "enumerate_l2_automorphisms", no_scan)
    monkeypatch.setattr(groupalg, "small_norm_scan", no_scan)
    assert main(["group-scan", *argv]) == 1
    assert "SizeError" in capsys.readouterr().err


def test_weights_check_inline_descriptor(capsys):
    code = main(["weights-check", "--weight",
                 '{"family": "polynomial", "a": 2.0}', "--p", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "submultiplicative: False" in out
    assert "algebra constant" in out


def test_weights_check_descriptor_from_file(tmp_path, capsys):
    desc = tmp_path / "w.json"
    desc.write_text('{"family": "subexp", "gamma": 0.5}')
    out_file = tmp_path / "report.json"
    code = main(["weights-check", "--weight", f"@{desc}",
                 "--p", "1", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["submultiplicative"]["verdict"] is True
    assert "algebra_constant" not in doc  # p = 1 has no Hoelder constant


def test_chain_rule_pass_and_fail(capsys):
    assert main(["chain-rule", "--count", "3", "--support", "10",
                 "--seed", "1"]) == 0
    assert main(["chain-rule", "--count", "3", "--support", "10",
                 "--tol", "1e-300"]) == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["blowup", "--case", "7", "--r", "0.5"])
    assert exc_info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert __version__ in capsys.readouterr().out
