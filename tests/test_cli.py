"""End-to-end runs of the command surface: files, exit codes, replay."""
import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from kronlab import FrequencyTuple, KroneckerInstance, TorusPoint, ValidationError, cli
from kronlab.cli import main


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def snapshot(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestConvergents:
    def test_files_and_first_row(self, tmp_path):
        r = run("convergents", "--freq", "golden-1", "--k", 12, "--out", tmp_path)
        assert r.exit_code == 0, r.output
        assert (tmp_path / "sequence.csv").exists()
        assert (tmp_path / "diagnostics.json").exists()
        assert (tmp_path / "manifest.json").exists()
        rows = read_rows(tmp_path / "sequence.csv")
        assert rows[0] == {
            "k": "1", "q_k": "2", "residual": "0.2360679774997897",
            "a_next": "1", "a1_bound": "0.6666666666666666",
        }
        assert rows[-1]["q_k"] == "2584"
        assert rows[-1]["a_next"] == ""

    def test_json_format(self, tmp_path):
        r = run("convergents", "--freq", "sqrt(2)-1", "--k", 6,
                "--format", "json", "--out", tmp_path)
        assert r.exit_code == 0
        data = json.loads((tmp_path / "sequence.json").read_text())
        assert len(data["levels"]) == 6
        assert data["c_hat"] == 2.0

    def test_diagnostics_content(self, tmp_path):
        run("convergents", "--freq", "golden-1", "--k", 12, "--out", tmp_path)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert abs(diag["growth_exponent"] - 1.0) < 0.1
        assert diag["gamma_low"] <= diag["gamma_high"]


class TestScan:
    def test_pair_system_finds_41(self, tmp_path):
        r = run("scan", "--freq", "sqrt(2)-1,sqrt(3)-1", "--eps", "0.1",
                "--theta", "0,0", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        qs = [row["q"] for row in read_rows(tmp_path / "solutions.csv")]
        assert "41" in qs

    def test_ladder_columns(self, tmp_path):
        r = run("scan", "--freq", "golden-1", "--eps", "0.1,0.05", "--out", tmp_path)
        assert r.exit_code == 0
        rows = read_rows(tmp_path / "ladder.csv")
        assert [r_["l_hat"] for r_ in rows] == ["8", "13"]
        assert rows[0]["truncated"] == "0"

    def test_budget_exit_keeps_partial_output(self, tmp_path):
        r = run("scan", "--freq", "golden-1", "--eps", "0.01",
                "--seed-min", 50, "--budget", 50, "--out", tmp_path)
        assert r.exit_code == 4
        rows = read_rows(tmp_path / "ladder.csv")
        assert rows[0]["truncated"] == "1"
        assert rows[0]["l_hat"] == "0"

    def test_epsilon_validation_exit(self, tmp_path):
        assert run("scan", "--freq", "golden-1", "--eps", "0.6",
                   "--out", tmp_path).exit_code == 2

    def test_descriptor_validation_exit(self, tmp_path):
        assert run("scan", "--freq", "nope(1)", "--eps", "0.1",
                   "--out", tmp_path).exit_code == 2


class TestDimension:
    def test_scan_and_fit(self, tmp_path):
        r = run("dimension", "--freq", "golden-1",
                "--eps", "0.1,0.05,0.025,0.0125,0.00625", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert abs(est["slope"] - 1.0) < 0.15
        assert est["verdict"] == "within"
        assert est["bracket"]["lower"] == 1.0

    def test_from_csv_roundtrip(self, tmp_path):
        scan_dir = tmp_path / "scan"
        fit_dir = tmp_path / "fit"
        run("scan", "--freq", "golden-1",
            "--eps", "0.1,0.05,0.025,0.0125", "--out", scan_dir)
        r = run("dimension", "--from-csv", scan_dir / "ladder.csv",
                "--out", fit_dir)
        assert r.exit_code == 0, r.output
        est = json.loads((fit_dir / "estimate.json").read_text())
        assert abs(est["slope"] - 1.0) < 0.25

    def test_insufficient_rows_exit(self, tmp_path):
        src = tmp_path / "ladder.csv"
        src.write_text("epsilon,l_hat,window_lo,window_hi,truncated\n"
                       "0.1,10,0,100,0\n0.05,20,0,100,0\n0.025,40,0,100,1\n"
                       "0.0125,80,0,100,1\n")
        r = run("dimension", "--from-csv", src, "--out", tmp_path / "fit")
        assert r.exit_code == 5

    def test_needs_inputs(self, tmp_path):
        assert run("dimension", "--out", tmp_path).exit_code == 2


class TestOrbit:
    def test_integer_diagonal(self, tmp_path):
        r = run("orbit", "--matrix", "1,0;0,sqrt(2)", "--count", 10_000,
                "--out", tmp_path)
        assert r.exit_code == 0, r.output
        est = json.loads((tmp_path / "estimate.json").read_text())
        assert abs(est["slope"] - 1.0) < 0.2
        counts = read_rows(tmp_path / "boxcounts.csv")
        assert len(counts) == 7
        points = read_rows(tmp_path / "points.csv")
        assert len(points) == 10_000

    def test_single_point_exit(self, tmp_path):
        r = run("orbit", "--matrix", "sqrt(2)", "--count", 1, "--out", tmp_path)
        assert r.exit_code == 5


class TestBounds:
    def test_defined_bracket(self, tmp_path):
        r = run("bounds", "--m", 2, "--out", tmp_path)
        assert r.exit_code == 0
        data = json.loads((tmp_path / "bounds.json").read_text())
        assert data["lower"] == 2.0 and data["upper"] == 2.0

    def test_undefined_upper_still_succeeds(self, tmp_path):
        r = run("bounds", "--m", 3, "--nu", 0.6, "--out", tmp_path)
        assert r.exit_code == 0
        data = json.loads((tmp_path / "bounds.json").read_text())
        assert data["upper"] is None
        assert "nu*(m-1) < 1" in data["upper_note"]

    def test_holder_composition(self, tmp_path):
        r = run("bounds", "--m", 1, "--alpha", 0.5, "--out", tmp_path)
        data = json.loads((tmp_path / "bounds.json").read_text())
        assert data["holder_upper"] == 2.0

    def test_invalid_inputs_exit(self, tmp_path):
        assert run("bounds", "--m", 0, "--out", tmp_path).exit_code == 2


class TestAlmostPeriod:
    def test_files_and_consistency(self, tmp_path):
        r = run("almost-period", "--freq", "golden-1", "--k", 20, "--k0", 3,
                "--targets", "97,500,1000", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        quality = json.loads((tmp_path / "quality.json").read_text())
        assert quality["consistent"] is True
        rows = read_rows(tmp_path / "periods.csv")
        assert [row["tau"] for row in rows] == ["97", "500", "1000"]

    def test_rational_frequency_exit(self, tmp_path):
        r = run("almost-period", "--freq", "1/3", "--targets", "10",
                "--out", tmp_path)
        assert r.exit_code == 2


class TestManifestReplay:
    def test_scan_replay_is_byte_identical(self, tmp_path):
        run("scan", "--freq", "golden-1", "--eps", "0.1,0.05,0.025",
            "--out", tmp_path)
        before = snapshot(tmp_path)
        r = run("--manifest", tmp_path / "manifest.json")
        assert r.exit_code == 0, r.output
        assert snapshot(tmp_path) == before

    def test_orbit_replay_is_byte_identical(self, tmp_path):
        run("orbit", "--matrix", "1;sqrt(2)", "--lattice", "real",
            "--count", 500, "--out", tmp_path)
        before = snapshot(tmp_path)
        assert run("--manifest", tmp_path / "manifest.json").exit_code == 0
        assert snapshot(tmp_path) == before

    def test_unknown_command_rejected(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"command": "launch", "options": {}}))
        assert run("--manifest", bad).exit_code == 2

    def test_unreadable_manifest_rejected(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text('{"command": "bounds", "options": ')
        assert run("--manifest", bad).exit_code == 2
        assert run("--manifest", tmp_path / "absent.json").exit_code == 2

    @pytest.mark.parametrize("options, message", [
        ({"m": 2}, "missing a required argument"),
        ({"m": 2, "n": 1, "nu": 0.0, "d": None, "alpha": 1.0, "out": ".",
          "fmt": "json", "bogus": 1}, "unexpected keyword argument 'bogus'"),
        (["--m", "2"], "must be a JSON object"),
        ({"m": "x", "n": 1, "nu": 0.0, "d": None, "alpha": 1.0, "out": ".",
          "fmt": "json"}, "'x' is not a valid integer"),
        ({"m": None, "n": 1, "nu": 0.0, "d": None, "alpha": 1.0, "out": ".",
          "fmt": "json"}, "null is not a value"),
    ], ids=["missing-key", "unknown-key", "not-an-object", "bad-type", "null-value"])
    def test_malformed_options_rejected(self, tmp_path, monkeypatch, options, message):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"command": "bounds", "options": options}))
        r = run("--manifest", bad)
        assert r.exit_code == 2
        assert message in r.output
        assert not (tmp_path / "bounds.json").exists()

    def test_precision_exit_via_manifest_options(self, tmp_path):
        r = run("convergents", "--freq", "golden-1", "--precision", 64,
                "--k", 40, "--out", tmp_path)
        assert r.exit_code == 3


class TestInternalFaults:
    def test_validation_error_is_a_value_error(self):
        freq = FrequencyTuple.parse("golden-1")
        with pytest.raises(ValidationError) as info:
            KroneckerInstance(freq, TorusPoint([0.0]), 0.6)
        assert isinstance(info.value, ValueError)
        with pytest.raises(ValidationError):
            cli._parse_floats("0.1,x")

    def test_plain_value_error_exits_1_with_traceback(self, tmp_path, monkeypatch):
        def broken(**options):
            raise ValueError("an internal fault, not bad input")
        monkeypatch.setitem(cli._RUNNERS, "bounds", broken)
        r = run("bounds", "--m", 2, "--out", tmp_path)
        assert r.exit_code == 1
        assert isinstance(r.exception, ValueError)
        assert not isinstance(r.exception, ValidationError)
        assert not (tmp_path / "manifest.json").exists()
