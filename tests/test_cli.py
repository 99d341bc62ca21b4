import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from paulidyn.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMub:
    def test_d3_writes_family_and_table(self, tmp_path, capsys):
        code, out, _ = run(["mub", "--d", "3", "--out", str(tmp_path)], capsys)
        assert code == 0
        data = json.loads((tmp_path / "mub_d3.json").read_text())
        assert data["dim"] == 3
        assert len(data["bases"]) == 4
        lines = (tmp_path / "mub_d3_overlaps.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,beta,k,l,overlap_sq"
        assert len(lines) == 1 + 54
        for line in lines[1:]:
            assert abs(float(line.split(",")[4]) - 1.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 5, 13])
    def test_overlaps_csv_equals_row_by_row_formatting(self, d, tmp_path, capsys):
        from paulidyn.mub import mub_family, unbiasedness_table

        rows = unbiasedness_table(mub_family(d))
        expected = "".join(f"{a},{b},{k},{l},{format(val, '.17g')}\n"
                           for (a, b, k, l, val) in rows)
        code, out, _ = run(["mub", "--d", str(d), "--out", str(tmp_path)], capsys)
        assert code == 0
        text = (tmp_path / f"mub_d{d}_overlaps.csv").read_text()
        assert text == "alpha,beta,k,l,overlap_sq\n" + expected
        worst = max(abs(val - 1.0 / d) for (*_, val) in rows)
        assert f"{len(rows)} cross-overlap rows, max |overlap^2 - 1/d| = {worst:.3e}" in out

    def test_unbiasedness_table_rows(self):
        from paulidyn.mub import mub_family, unbiasedness_table

        family = mub_family(3)
        sq = np.abs(np.einsum("akm,blm->abkl", family.bases.conj(), family.bases)) ** 2
        expected = [(a + 1, b + 1, k, l, float(sq[a, b, k, l]))
                    for a in range(4) for b in range(a + 1, 4) for k in range(3) for l in range(3)]
        rows = unbiasedness_table(family)
        assert rows == expected
        assert all(type(x) is int for row in rows for x in row[:4])

    def test_d2_bases_match_textbook_up_to_phase(self, tmp_path, capsys):
        code, *_ = run(["mub", "--d", "2", "--out", str(tmp_path)], capsys)
        assert code == 0
        data = json.loads((tmp_path / "mub_d2.json").read_text())
        bases = np.array([[[c[0] + 1j * c[1] for c in vec] for vec in b] for b in data["bases"]])
        s = 1 / np.sqrt(2)
        expected = [
            np.array([[s, s], [s, -s]]),
            np.array([[s, 1j * s], [s, -1j * s]]),
            np.eye(2),
        ]
        for target in expected:
            found = False
            for b in bases:
                overlaps = np.abs(target.conj() @ b.T)
                if np.allclose(np.sort(overlaps, axis=None), [0, 0, 1, 1], atol=1e-12):
                    found = True
            assert found

    def test_nonprime_rejected(self, tmp_path, capsys):
        code, _, err = run(["mub", "--d", "4", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "not prime" in err


class TestChannel:
    def test_boundary_qubit_channel(self, capsys):
        code, out, _ = run(["channel", "--d", "2", "--lambdas", "1,-1,-1"], capsys)
        assert code == 0
        assert "cp: true" in out
        assert "probabilities: 0 1 0 0" in out

    def test_lists_starting_with_a_dash(self, capsys):
        code, out, err = run(["channel", "--d", "2", "--lambdas", "-1,-1,1"], capsys)
        assert code == 0, err
        assert "probabilities: 0 0 0 1" in out
        code, _, err = run(["channel", "--d", "2", "--probs", "-0.1,0.5,0.3,0.3"], capsys)
        assert code == 0, err

    def test_non_cp_channel(self, capsys):
        code, out, _ = run(["channel", "--d", "2", "--lambdas", "1,1,-1"], capsys)
        assert code == 0  # a non-CP finding is a successful analysis
        assert "cp: false" in out

    def test_depolarizing_d3_probabilities(self, capsys):
        code, out, _ = run(
            ["channel", "--d", "3", "--lambdas", "0,0,0,0", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["probabilities"] == pytest.approx([1 / 9, 2 / 9, 2 / 9, 2 / 9, 2 / 9])
        assert data["cp_flag"] is True

    def test_writes_json_file(self, tmp_path, capsys):
        code, out, _ = run(
            ["channel", "--d", "2", "--probs", "0.7,0.1,0.1,0.1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "channel_d2.json").read_text())
        assert data["dim"] == 2

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(["channel", "--d", "2"], capsys)
        assert code == 2
        code, _, err = run(
            ["channel", "--d", "2", "--lambdas", "1,1,1", "--probs", "1,0,0,0"], capsys
        )
        assert code == 2

    def test_bad_float_list(self, capsys):
        code, _, err = run(["channel", "--d", "2", "--lambdas", "1,x,1"], capsys)
        assert code == 2

    def test_wrong_length(self, capsys):
        code, _, err = run(["channel", "--d", "3", "--lambdas", "1,1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("source, image", [
        ("--lambdas=1e308,1e308,1e308", "the probability vector of these eigenvalues"),
        ("--probs=1e308,-1e308,1,0", "the eigenvalue vector of these probabilities"),
    ], ids=["lambdas", "probs"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_coordinates_exit_2(self, source, image, fmt, capsys):
        code, out, err = run(["channel", "--d", "2", source, "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {image} has non-finite entries\n"


class TestDynamics:
    def test_eternal_qubit_report(self, tmp_path, capsys):
        code, out, _ = run(
            ["dynamics", "--preset", "eternal-qubit", "--t-max", "5", "--steps", "100",
             "--attempts", "300", "--blp-pairs", "6", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["criteria"]["cp_divisible"]["status"] == "violated"
        assert report["criteria"]["p_necessary"]["status"] == "holds"
        assert report["trace_norm_witness"]["found"] is False
        csv_lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 102
        assert "cp_divisible: violated" in out

    def test_avg_decoherence_finds_witness(self, tmp_path, capsys):
        code, out, _ = run(
            ["dynamics", "--preset", "avg-decoherence", "--d", "3", "--t-max", "5",
             "--steps", "80", "--attempts", "300", "--blp-pairs", "6", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["criteria"]["p_necessary"]["status"] == "holds"
        assert report["criteria"]["p_sufficient"]["status"] == "violated"
        assert report["trace_norm_witness"]["found"] is True

    def test_explicit_gammas_semigroup(self, tmp_path, capsys):
        code, out, _ = run(
            ["dynamics", "--d", "2", "--gamma", "1", "--gamma", "1", "--gamma", "1",
             "--steps", "50", "--attempts", "100", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        statuses = {k: v["status"] for k, v in report["criteria"].items()}
        assert set(statuses.values()) == {"holds"}

    def test_semigroup_preset_with_constants(self, tmp_path, capsys):
        code, *_ = run(
            ["dynamics", "--preset", "semigroup", "--c", "1,0.5,2", "--steps", "40",
             "--attempts", "100", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0

    def test_nonprime_dimension_rejected(self, capsys):
        code, _, err = run(
            ["dynamics", "--d", "4", "--gamma", "1", "--gamma", "1", "--gamma", "1",
             "--gamma", "1", "--gamma", "1"],
            capsys,
        )
        assert code == 2

    def test_parse_error_exits_3(self, capsys):
        code, _, err = run(
            ["dynamics", "--d", "2", "--gamma", "1+", "--gamma", "1", "--gamma", "1"],
            capsys,
        )
        assert code == 3
        assert "error" in err

    def test_evaluation_error_exits_3(self, capsys):
        code, _, err = run(
            ["dynamics", "--d", "2", "--gamma", "ln(t-1)", "--gamma", "1", "--gamma", "1"],
            capsys,
        )
        assert code == 3

    def test_literal_beyond_double_range_exits_3(self, tmp_path, capsys):
        code, _, err = run(["dynamics", "--d", "2", "--gamma=1 + 1e999*t", "--gamma=1",
                            "--gamma=1", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert err == "error: number 1e999 is outside the double range (at position 4)\n"
        assert not (tmp_path / "report.json").exists()

    def test_deep_nesting_exits_3(self, tmp_path, capsys):
        code, _, err = run(["dynamics", "--d", "2", "--gamma=" + "(" * 1000 + "1" + ")" * 1000,
                            "--gamma=1", "--gamma=1", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert err.startswith("error: expression nested too deeply (at position ")
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_eigenvalue_exits_3(self, tmp_path, capsys):
        code, _, err = run(shlex.split(
            "dynamics --preset semigroup --c=-40,-40,0 --t-max 10 --steps 50"
        ) + ["--out", str(tmp_path)], capsys)
        assert code == 3
        assert err == "error: map eigenvalue lambda_3 overflows at t=9.0\n"

    @pytest.mark.parametrize("budget", [[], ["--attempts", "0"]])
    def test_overflowing_eigenvalue_ratio_exits_3(self, budget, tmp_path, capsys):
        # lambda_1 underflows to 0 near t = 2.5 and recovers: lambda_1(5)/lambda_1(2.5) > 1e308
        code, _, err = run(["dynamics", "--d", "3", *["--gamma=200*tanh(3*(2.5-t))"] * 3,
                            "--gamma=1", *budget, "--out", str(tmp_path)], capsys)
        assert code == 3
        assert err == ("error: eigenvalue ratio lambda_1(t)/lambda_1(s) overflows "
                       "for s=2.5, t=5.0\n")

    @pytest.mark.parametrize("amplitude", ["104.08", "104.1", "104.27"])
    def test_axis_ratio_near_the_double_range(self, amplitude, tmp_path, capsys):
        # the largest eigenvalue ratio (4.8e307 to 1.7e308) is finite, while the trace norm
        # of the applied axis operator overflows; it once failed as an internal error
        rate = f"--gamma={amplitude}*tanh(3*(2.5-t))"
        code, _, err = run(["dynamics", "--d=3", rate, rate, rate, "--gamma=1", "--steps=100",
                            "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        witness = json.loads((tmp_path / "report.json").read_text())["trace_norm_witness"]
        assert witness["kind"] == "trace-norm"
        assert 4e307 < witness["magnitude"] < math.inf

    @pytest.mark.parametrize("constants,message", [
        ("1e308,1,1", "error: rate gamma_1 failed: adaptive Simpson sums overflow the double "
                      "range on [0.0, 0.0125] of [0.0, 0.0125]\n"),
        ("2e307,2e307,2e307", "error: log lambda_1 = G_1 - G leaves the double range at t=3.0\n"),
    ])
    def test_rate_integrals_beyond_double_range_exit_3(self, constants, message, tmp_path,
                                                       capsys):
        code, _, err = run(["dynamics", "--preset", "semigroup", "--c", constants,
                            "--out", str(tmp_path)], capsys)
        assert code == 3
        assert err == message
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("constants", ["nan,1,1", "1,inf,1", "1,1,-inf"])
    def test_non_finite_semigroup_constants_exit_2(self, constants, tmp_path, capsys):
        code, _, err = run(["dynamics", "--preset", "semigroup", "--c", constants,
                            "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "semigroup constants must be finite" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "seed must be >= 0"),
        ("--tol", "nan", "tol must be positive and finite"),
        ("--blp-pairs", "-2", "BLP pair count must be >= 0"),
    ])
    def test_out_of_range_value_exits_2(self, flag, value, message, tmp_path, capsys):
        code, _, err = run(["dynamics", "--preset", "eternal-qubit", "--steps", "40",
                            "--attempts", "50", flag, value, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--attempts", "-5"), ("--refine-iters", "-3")])
    def test_negative_search_budget_exits_2(self, flag, value, tmp_path, capsys):
        code, _, err = run(["dynamics", "--preset", "avg-decoherence", "--d", "3", "--steps", "40",
                            flag, value, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: attempts and refine_iters must be >= 0")
        assert "Traceback" not in err

    def test_missing_rates_rejected(self, capsys):
        code, _, err = run(["dynamics", "--d", "2"], capsys)
        assert code == 2

    def test_underflowing_cp_divisible_semigroup(self, tmp_path, capsys, monkeypatch):
        # lambda underflows to 0 from t ~ 7.5 on; intermediate maps must stay finite
        monkeypatch.chdir(tmp_path)
        code, _, err = run(shlex.split(
            "dynamics --preset semigroup --c 50,50,50 --t-max 10 --steps 200"
        ), capsys)
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["criteria"]["cp_divisible"]["status"] == "holds"
        assert report["trace_norm_witness"] == {"found": False}
        assert report["blp_witness"] == {"found": False}

    def test_rate_inside_the_slack_is_not_cp_divisible(self, tmp_path, capsys):
        # -9e-13 is within the 1e-12 slack of the other checks; cp_divisible judges signs
        code, out, err = run(["dynamics", "--preset", "semigroup", "--c", "0,0,-9e-13",
                              "--out", str(tmp_path)], capsys)
        assert code == 0, err
        assert "cp_divisible: violated" in out

    def test_constants_starting_with_a_dash(self, tmp_path, capsys):
        code, _, err = run(["dynamics", "--preset", "semigroup", "--c", "-0.1,1,1",
                            "--steps", "40", "--attempts", "50", "--out", str(tmp_path)], capsys)
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["criteria"]["cp_divisible"]["violations"][0]["label"] == "gamma_1"

    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = ["dynamics", "--preset", "avg-decoherence", "--d", "3", "--steps", "60",
                "--seed", "7", "--attempts", "200", "--blp-pairs", "6"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code_a, stdout_a, _ = run(args + ["--out", str(out_a)], capsys)
        code_b, stdout_b, _ = run(args + ["--out", str(out_b)], capsys)
        assert code_a == code_b == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert stdout_a.replace(str(out_a), "") == stdout_b.replace(str(out_b), "")


class TestMisc:
    def test_presets_list(self, capsys):
        code, out, _ = run(["presets", "list"], capsys)
        assert code == 0
        for name in ("eternal-qubit", "eternal-general", "avg-decoherence", "semigroup"):
            assert name in out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "paulidyn.cli", "presets", "list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "eternal-qubit" in proc.stdout


def test_readme_cli_lines_run_as_written(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("paulidyn ")]
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    failed = []
    for line in lines:
        code = main(shlex.split(line)[1:])
        _, err = capsys.readouterr()
        if code != 0:
            failed.append(f"{line!r} exited {code}: {err.strip()}")
    assert not failed, failed
