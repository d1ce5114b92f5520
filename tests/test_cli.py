"""Command-line driver: exit codes, report files, determinism."""

import argparse
import dataclasses
import itertools
import json

import pytest

from convalg import __version__, checks, compops, groupalg, weights
from convalg.cli import _build_parser, main
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


def test_weights_check_names_the_pair_of_the_max_ratio(capsys):
    # the excess w(xy) - w(x) w(y) peaks at 201 on (-1, -100), the ratio at 4 on (-1, -1)
    assert main(["weights-check", "--weight", '{"family": "polynomial", "a": 2}', "--p", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "submultiplicative: False (max excess 201, max ratio 4 at (-1, -1))"


def test_weights_check_report_names_the_pair_of_each_maximum(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["weights-check", "--weight", '{"family": "polynomial", "a": 2}', "--p", "1",
                 "--out", str(out_file)]) == 0
    sub = json.loads(out_file.read_text())["submultiplicative"]
    assert sub["max_excess"] == 201 and sub["max_ratio"] == 4
    assert sorted(map(abs, sub["argmax_excess"])) == [1, 100]
    assert sub["argmax_ratio"] == [-1, -1] and "argmax" not in sub


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


def test_weights_check_group_descriptor(capsys):
    code = main(["weights-check", "--weight",
                 '{"family": "tabulated", "values": [1.0, 2.0, 2.0], "domain": {"group": "Z3"}}'])
    assert code == 0
    assert "submultiplicative: True" in capsys.readouterr().out
    code = main(["weights-check", "--weight",
                 '{"family": "tabulated", "values": [1.0, 2.0, 2.0], "lo": 0, "group": "Z3"}'])
    assert code == 1
    assert "ParameterError" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [
    '{"family": "constant", "domain": {"group": "Zx"}}',
    '{"family": "constant", "domain": {"group": 5}}',
    '{"family": "polynomial", "a": "2"}',
    '{"family": "tabulated", "values": "ab"}',
    '{"family": "tabulated", "values": [2.0, 1.0], "lo": "x"}',
    '{"family": "polynomial", "a": 2',
    "@missing-descriptor.json",
])
def test_weights_check_rejects_malformed_descriptors(tmp_path, monkeypatch, capsys, weight):
    monkeypatch.chdir(tmp_path)
    assert main(["weights-check", "--weight", weight]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--weight", '{"family":"exppoly","a":1e10}'],
    ["--weight", '{"family":"polynomial","a":1e400}'],
    ["--weight", '{"family":"subexp","gamma":0.0005}', "--p", "1.001"],
])
def test_weights_check_refuses_values_out_of_range(capsys, argv):
    assert main(["weights-check", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RangeError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["chain-rule", "--count", "-3"],
    ["chain-rule", "--support", "-2", "--count", "2"],
    ["blowup", "--case", "1", "--gamma", "0.5", "--r", "0.5", "--n", "9", "--tol", "0"],
    ["blowup", "--case", "1", "--gamma", "0.5", "--r", "0.5", "--n", "9", "--tol", "-1"],
    ["blowup", "--case", "1", "--gamma", "0.5", "--r", "0.5", "--n", "9", "--tol", "nan"],
    ["distortion", "--r", "0.1", "--N", "-1"],
    ["chain-rule", "--tol", "0"],
    ["chain-rule", "--tol", "-1"],
    ["chain-rule", "--tol", "nan"],
])
def test_invalid_sizes_and_tolerances_exit_one(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


def test_weights_check_refuses_an_infinite_p_before_the_scan(monkeypatch, capsys):
    monkeypatch.setattr(weights, "check_submultiplicative", None)  # not reached
    assert main(["weights-check", "--weight", '{"family":"polynomial","a":2}', "--p", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


def test_weights_check_refuses_a_window_above_the_cap(capsys):
    # refused before the (2W+1)^2 pair table, which would take terabytes
    assert main(["weights-check", "--weight", '{"family":"polynomial","a":2}',
                 "--window", "1000000", "--p", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SizeError: ") and err.count("\n") == 1


# one tiny run per subcommand; verify's checks are stubbed out
TINY_RUNS = {
    "verify": ["--suite", "seqalg"],
    "blowup": ["--case", "1", "--gamma", "0.5", "--r", "0.5", "--p", "1", "--n", "9"],
    "distortion": ["--r", "0.05", "--N", "8", "--format", "json"],
    "group-scan": ["--n", "3", "--norm-n", "3"],
    "weights-check": ["--weight", '{"family":"constant"}', "--window", "5"],
    "chain-rule": ["--count", "2", "--support", "3"],
}


def _subparsers() -> dict:
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_option_reaches_the_report(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(checks, "CHECKS", [("seqalg", "stub", lambda: "stub")])
    subparsers = _subparsers()
    assert TINY_RUNS.keys() == subparsers.keys()
    for command, argv in TINY_RUNS.items():
        out_file = tmp_path / f"{command}.report"
        assert main([command, *argv, "--out", str(out_file)]) == 0, command
        text = out_file.read_text()
        if text.startswith("# config: "):
            config = json.loads(text.splitlines()[0][len("# config: "):])
            assert config.pop("version") == __version__
        else:
            config = json.loads(text)["config"]
        options = {a.dest for a in subparsers[command]._actions} - {"help", "out", "format"}
        assert config.keys() == options, command
        stdout = capsys.readouterr().out
        assert [line for line in stdout.splitlines() if line.startswith("wrote ")] == \
            [f"wrote {'csv' if command == 'blowup' else 'json'} report to {out_file}"], command


def test_out_in_a_missing_directory_is_refused_before_the_run(monkeypatch, tmp_path, capsys):
    def no_run(*args):
        raise AssertionError("the checks ran before --out was checked")

    monkeypatch.setattr(checks, "run", no_run)
    out_file = tmp_path / "missing" / "verify.json"
    assert main(["verify", "--suite", "weights", "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


def test_a_failing_write_is_one_error_line(tmp_path, capsys):
    # the directory exists, but --out names the directory itself
    assert main(["chain-rule", "--count", "2", "--support", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1


def test_a_failed_run_keeps_an_earlier_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    out_file.write_text("earlier report\n")
    assert main(["weights-check", "--weight", "{", "--out", str(out_file)]) == 1
    assert out_file.read_text() == "earlier report\n"


def test_chain_rule_pass_and_fail(capsys):
    assert main(["chain-rule", "--count", "3", "--support", "10",
                 "--seed", "1"]) == 0
    assert main(["chain-rule", "--count", "3", "--support", "10",
                 "--tol", "1e-300"]) == 1


@pytest.mark.parametrize("residual", [lambda rep: float("nan"), lambda rep: 2.0 * rep.bound],
                         ids=["nan", "twice-its-bound"])
def test_chain_rule_fails_as_its_check_does(monkeypatch, capsys, residual):
    # the second of three reports: Python max would drop a NaN there
    real, calls = compops.chain_rule_check, itertools.count()

    def check(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, residual_l1=residual(rep)) if next(calls) == 1 else rep

    monkeypatch.setattr(compops, "chain_rule_check", check)
    assert main(["chain-rule", "--count", "3", "--support", "10"]) == 1
    assert capsys.readouterr().out.startswith("FAIL  chain rule on 3 random sequences")


def test_usage_error_exits_two(capsys):
    for argv in (["blowup", "--case", "7", "--r", "0.5"],
                 ["blowup", "--case", "1", "--gamma", "0.5", "--r", "0.5", "--n", "9,x"],
                 ["distortion", "--r", "0.1,abc"],
                 ["distortion", "--r", "0.1", "--N", "16", "--tol", "0"],  # no --tol option
                 ["group-scan", "--norm-n", "3,x"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err


def test_an_empty_grid_is_a_usage_error(tmp_path, capsys):
    out_file = tmp_path / "report"
    for argv in (["blowup", "--case", "1", "--gamma", "0.5", "--r", "0.5", "--n", ""],
                 ["distortion", "--r", ""],
                 ["distortion", "--r", " , "],
                 ["group-scan", "--norm-n", ""]):
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--out", str(out_file)])
        assert exc_info.value.code == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "expected at least one value" in err
        assert not out_file.exists()


def test_group_scan_refuses_a_nan_threshold_before_the_census(monkeypatch, capsys):
    def no_census(n):
        raise AssertionError("the census ran")
    monkeypatch.setattr(groupalg, "enumerate_l2_automorphisms", no_census)
    assert main(["group-scan", "--n", "4", "--norm-n", "4", "--threshold", "nan"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


@pytest.mark.parametrize("p", ["nan", "0.5", "0.999", "-inf"])
def test_weights_check_refuses_an_exponent_below_one_before_the_scan(monkeypatch, capsys, p):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran")
    monkeypatch.setattr(weights, "check_submultiplicative", no_scan)
    assert main(["weights-check", "--weight", '{"family":"polynomial","a":2}', f"--p={p}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


def test_weights_check_at_p_one_scans_submultiplicativity_only(capsys):
    assert main(["weights-check", "--weight", '{"family":"polynomial","a":2}', "--p", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("submultiplicative: ") and out.count("\n") == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert __version__ in capsys.readouterr().out
