import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ivpoq import amplification, cli
from ivpoq.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_run_deterministic_bytes(capsys):
    args = ["run", "--scheme", "hm2", "--ell", "6", "--a", "3", "--seed", "9"]
    code1, out1 = run_cli(capsys, args)
    code2, out2 = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["config"]["seed"] == 9
    assert payload["result"]["record"]["verdict"] in (True, False)


def test_seed_changes_output(capsys):
    base = ["run", "--scheme", "hm2", "--ell", "6", "--a", "3"]
    _, out1 = run_cli(capsys, base + ["--seed", "1"])
    _, out2 = run_cli(capsys, base + ["--seed", "2"])
    assert out1 != out2


def test_completeness_json_and_csv(capsys):
    args = [
        "completeness", "--scheme", "hm2", "--ell", "6", "--a", "3",
        "--trials", "200", "--seed", "4", "--grid", "oracle",
    ]
    code, out = run_cli(capsys, args)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["trials"] == 200
    assert 0.8 <= payload["result"]["rate"] <= 1.0
    code, out_csv = run_cli(capsys, args + ["--format", "csv"])
    assert code == 0
    header, row = out_csv.strip().splitlines()
    assert "rate" in header.split(",")
    assert "p_good" in header.split(",")


def test_soundness_profile(capsys):
    args = [
        "soundness", "--scheme", "hm2", "--ell", "6", "--a", "3",
        "--trials", "160", "--seed", "2", "--prover", "classical-honest",
        "--r-grid", "4",
    ]
    code, out = run_cli(capsys, args)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["per_randomness"]["rates"]) == 4


def test_lemmas_exit_zero(capsys):
    code, out = run_cli(
        capsys,
        ["lemmas", "--scheme", "hm2", "--ell", "6", "--a", "3", "--trials", "250", "--seed", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    verdicts = {r["lemma"]: r["verdict"] for r in payload["result"]["reports"]}
    assert verdicts["hash-hitting-bounds"] == "holds"
    assert "transcript-law" in verdicts


def test_reduce_on_const(capsys):
    code, out = run_cli(
        capsys,
        ["reduce", "--scheme", "const", "--ell", "5", "--epsilon", "0.5",
         "--trials", "5", "--seed", "0"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["success_rate"] >= 0.1


def test_amplify_separation(capsys):
    code, out = run_cli(
        capsys,
        ["amplify", "--c", "0.9", "--s", "0.6", "--lambda", "20", "--trials", "20", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["pass_rate_honest"] >= 0.9
    assert payload["result"]["pass_rate_cheater"] <= 0.1


def test_a_nan_in_the_payload_exits_1_without_printing(monkeypatch, capsys):
    # NaN is not JSON; a payload that holds one is an error, not bad output.
    class NanReport:
        def to_json_dict(self):
            return {"pass_rate_honest": float("nan")}

    monkeypatch.setattr(amplification, "separation_experiment", lambda *args: NanReport())
    code, out = run_cli(capsys, ["amplify", "--trials", "1"])
    assert code == 1
    assert out == ""


def test_gl_subcommand(capsys):
    code, out = run_cli(
        capsys,
        ["gl", "--ell", "10", "--advantage", "0.25", "--trials", "5", "--seed", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["recovered"] >= 4


def test_gl_checks_ell_before_building_its_noise_table(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the 2^ell noise table was built before the ell check")

    monkeypatch.setattr(cli, "_noisy_parity_oracle", unreachable)
    for ell in ("25", "0"):
        assert main(["gl", "--ell", ell, "--trials", "1"]) == 1
        assert "outside supported range" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["run", "--scheme", "bogus"]) == 1
    # a subcommand takes only the flags it reads
    assert main(["amplify", "--scheme", "hm2"]) == 1
    assert main(["run", "--workers", "2"]) == 1
    assert main(["lemmas", "--epsilon", "0"]) == 1


@pytest.mark.parametrize("command", ["run", "completeness", "soundness", "reduce", "lemmas"])
@pytest.mark.parametrize("scheme", ["const", "ident"])
def test_a_is_a_usage_error_off_hm2(command, scheme, capsys):
    # Only hm2 has a hiding parameter; --a with another scheme is refused, not ignored.
    # It fails before any session runs, so the default trials cost nothing.
    assert main([command, "--scheme", scheme, "--ell", "5", "--a", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --a applies to --scheme hm2 only" in captured.err


def test_python_dash_m_ivpoq_prints_what_main_prints(capsys):
    argv = ["run", "--scheme", "hm2", "--ell", "6", "--a", "3", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    module = subprocess.run([sys.executable, "-m", "ivpoq", *argv], capture_output=True, text=True, env=env)
    assert (module.returncode, module.stdout) == run_cli(capsys, argv)
    usage = subprocess.run([sys.executable, "-m", "ivpoq", "frobnicate"], capture_output=True, env=env)
    assert usage.returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--trials", "0"],
        ["gl", "--trials", "0"],
        ["amplify", "--trials", "0"],
        ["soundness", "--r-grid", "0"],
        ["completeness", "--trials", "-5"],
        ["completeness", "--workers", "0"],
    ],
)
def test_count_flags_must_be_positive(argv, capsys):
    assert main(argv) == 1
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["completeness", "run", "reduce", "amplify"])
def test_negative_seed_is_a_usage_error(command, capsys):
    # Rejected at parse time, naming the flag, before any session runs.
    assert main([command, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "argument --seed: must be non-negative, got -1" in err


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scheme=hm2\nell=6\na=3\nseed=5\n")
    for extra, ell in (
        ([], 6),
        (["--ell", "5"], 5),  # explicit flag beats the file
        (["--ell", "12"], 12),  # even when it equals the default
    ):
        code, out = run_cli(capsys, ["run", "--config", str(cfg)] + extra)
        assert code == 0
        assert json.loads(out)["config"]["ell"] == ell
        assert json.loads(out)["config"]["seed"] == 5
    # keys are flag names, --lambda and --r-grid included
    cfg.write_text("lambda=20\nc=0.9\ns=0.6\n")
    _, out = run_cli(capsys, ["amplify", "--trials", "5", "--config", str(cfg)])
    assert json.loads(out)["config"]["lam"] == 20
    cfg.write_text("r-grid=2\nell=5\na=2\n")
    _, out = run_cli(capsys, ["soundness", "--trials", "8", "--config", str(cfg)])
    assert len(json.loads(out)["result"]["per_randomness"]["rates"]) == 2


def test_config_file_indented_comment_and_blank_line(tmp_path, capsys):
    # Lines are stripped before the comment test, so both files parse alike.
    plain, indented = tmp_path / "plain.cfg", tmp_path / "indented.cfg"
    plain.write_text("# note\nscheme=const\nell=4\n")
    indented.write_text("  # note\n \t \nscheme=const\n\tell=4\n")
    outs = []
    for cfg in (plain, indented):
        code, out = run_cli(capsys, ["run", "--seed", "1", "--config", str(cfg)])
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["config"]["ell"] == 4 and outs[0] == outs[1]


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for command, line in (
        ("run", "frob=1"),
        ("run", "workers=2"),  # a flag run does not read
        ("amplify", "scheme=hm2"),
        ("soundness", "prover=bogus"),  # values meet the flag's choices and type
        ("completeness", "format=xml"),
        ("completeness", "trials=0"),
        ("run", "ell"),
    ):
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 1, line


def test_config_file_unreadable(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "bad config file" in capsys.readouterr().err


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "session.json"
    code = main(["run", "--scheme", "const", "--ell", "4", "--seed", "1", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["config"]["scheme"] == "const"
