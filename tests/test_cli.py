import dataclasses
import json

import pytest

from noncrossing import harness, limitlaws
from noncrossing.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEnumerate:
    def test_nc(self, capsys):
        code, out = run_cli(capsys, "enumerate", "nc", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert "{1,2,3}" in lines

    def test_dyck(self, capsys):
        code, out = run_cli(capsys, "enumerate", "dyck", "--n", "2")
        assert code == 0
        assert sorted(out.split()) == ["UDUD", "UUDD"]


class TestSample:
    def test_deterministic(self, capsys):
        _, first = run_cli(capsys, "sample", "nc", "--n", "20", "--samples", "3", "--seed", "5")
        _, second = run_cli(capsys, "sample", "nc", "--n", "20", "--samples", "3", "--seed", "5")
        assert first == second
        assert len(first.strip().splitlines()) == 3

    def test_dyck_sampling(self, capsys):
        code, out = run_cli(capsys, "sample", "dyck", "--n", "1", "--samples", "2")
        assert code == 0
        assert out.split() == ["UD", "UD"]


class TestStats:
    def test_partition_text_input(self, capsys):
        code, out = run_cli(
            capsys, "stats", "--partition", "{1,2,5,6,7,8}|{3,4}|{9}"
        )
        assert code == 0
        assert "num_blocks,3" in out
        assert "largest_block,6" in out
        assert "width,2" in out
        assert "3,2" in out.splitlines()  # gap 3 has width 2

    def test_sampled_input(self, capsys):
        code, out = run_cli(capsys, "stats", "--n", "30", "--seed", "2")
        assert code == 0
        assert "num_blocks," in out


class TestExact:
    def test_catalan_json(self, capsys):
        code, out = run_cli(capsys, "exact", "catalan", "--n", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["numerator"] == "16796"
        assert payload["denominator"] == "1"

    def test_mean_size_fraction(self, capsys):
        code, out = run_cli(
            capsys, "exact", "mean-size", "--n", "3", "--l", "1", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("6/5")

    def test_covariance(self, capsys):
        code, out = run_cli(
            capsys, "exact", "covariance", "--n", "3", "--k", "1", "--l", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["numerator"] == "-3" and payload["denominator"] == "25"

    def test_blocks_poly_csv(self, capsys):
        code, out = run_cli(
            capsys, "exact", "blocks-poly", "--n", "3", "--l", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0,1", "1,3", "2,0", "3,1"]

    def test_blocks_poly_json(self, capsys):
        code, out = run_cli(
            capsys, "exact", "blocks-poly", "--n", "3", "--l", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["quantity"], payload["n"], payload["l"]) == ("blocks-poly", 3, 1)
        coefficients = payload["coefficients"]
        assert [c["numerator"] for c in coefficients] == ["1", "3", "0", "1"]
        assert [c["denominator"] for c in coefficients] == ["1"] * 4
        assert [c["decimal"] for c in coefficients] == [1.0, 3.0, 0.0, 1.0]

    def test_second_factorial(self, capsys):
        code, out = run_cli(
            capsys, "exact", "second-factorial", "--n", "3", "--l", "1", "--format", "csv"
        )
        assert code == 0
        assert out == "6/5 = 1.2\n"

    def test_cross_moment(self, capsys):
        code, out = run_cli(
            capsys, "exact", "cross-moment", "--n", "3", "--k", "1", "--l", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["numerator"] == "3" and payload["denominator"] == "5"


class TestExperimentCommands:
    def test_clt_blocks_small(self, capsys):
        code, out = run_cli(
            capsys,
            "clt-blocks", "--n", "64", "--samples", "4000", "--seed", "0",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["experiment_id"] == "clt-blocks"
        assert "ks_distance" in payload["observed"]

    def test_width_process(self, capsys):
        code, out = run_cli(capsys, "width-process", "--n", "40", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,width_at_gap"
        assert len(lines) == 40  # header + 39 gaps

    def test_singularity(self, capsys):
        code, out = run_cli(capsys, "singularity", "--k", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert 0.25 < payload["z0"] < 0.26
        assert abs(payload["residual_fixed_point"]) < 1e-13
        report = limitlaws.solve_characteristic_maxblock(5)
        assert out == json.dumps(dataclasses.asdict(report), indent=2) + "\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _ = run_cli(
            capsys, "width-process", "--n", "10", "--seed", "0", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("x,width_at_gap")


@pytest.mark.parametrize(
    "command, n, params",
    [
        ("clt-blocks", 64, {}),
        ("clt-size", 64, {"l": 2}),
        ("covariance", 64, {"k": 1, "l": 3}),
        ("largest-block", 64, {}),
        ("width", 64, {}),
    ],
)
def test_experiment_command_prints_its_report(capsys, command, n, params):
    flags = [f"--{name}={value}" for name, value in params.items()]
    code, out = run_cli(
        capsys, command, "--n", str(n), "--samples", "3000", "--seed", "6", *flags
    )
    [report] = harness.run_experiments(n, 3000, 6, [harness.Request(command, params)])
    assert out == report.to_json() + "\n"
    assert code == (0 if report.passed else 1)


@pytest.mark.parametrize("flag", ["--samples", "--threads"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_non_positive_counts_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["clt-blocks", "--n", "64", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >= 1, got '{value}'" in err.splitlines()[-1]
    assert "Traceback" not in err


def test_unknown_quantity_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["exact", "nonsense", "--n", "3"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["covariance", "--n", "64", "--k", "2", "--l", "2"], "sizes must differ"),
        (["width", "--n", "8"], "n must be >= 16"),
        (["clt-size", "--n", "64", "--l", "0"], "need 1 <= l < n"),
        (["sample", "nc", "--n", "0"], "n must be >= 1"),
        (["singularity", "--k", "0"], "k must be >= 1"),
        (["stats", "--partition", "{1,3}|{2,4}"], "has a crossing"),
        (["exact", "mean-size", "--n", "3", "--l", "5"], "need 1 <= l <= n"),
        (["stats", "--partition", "{}"], "malformed block '{}'"),
        (["exact", "second-factorial", "--n", "3", "--l", "5"], "need 1 <= l <= n"),
        (
            ["exact", "cross-moment", "--n", "5", "--k", "2", "--l", "2"],
            "sizes must differ; use the variance path for k == l",
        ),
        (["exact", "cross-moment", "--n", "3", "--k", "5", "--l", "1"], "sizes must lie in 1..n"),
        (["stats"], "stats needs --partition or --n"),
    ],
)
def test_invalid_sizes_exit_2_with_one_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
