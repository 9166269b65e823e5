"""End-to-end runs of the command surface: files, exit codes, replay."""
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import kronlab
from kronlab import (FrequencyTuple, KroneckerInstance, TorusPoint, ValidationError,
                     WindowPolicy, cli)
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

    @pytest.mark.parametrize("beta, k", [("1.2", 4), ("1.1", 3)])
    def test_degenerate_growth_fit_exits_5_and_writes_nothing(self, tmp_path, beta, k):
        r = run("convergents", "--freq", "golden-1", "--beta", beta, "--k", k,
                "--out", tmp_path / "out")
        assert r.exit_code == 5, r.output
        assert not (tmp_path / "out").exists()


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

    def test_zero_seed_finishes(self, tmp_path):
        # in a subprocess with a timeout, so a ladder that never stops fails
        env = {**os.environ, "PYTHONPATH": str(Path(kronlab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "kronlab.cli", "scan", "--freq", "golden-1", "--eps", "0.1",
             "--seed-min", "0", "--seed-factor", "0", "--out", str(tmp_path / "zero")],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "eps=0.1: l_hat=5 on (0, 8) (clean)\n"
        r = run("scan", "--freq", "golden-1", "--eps", "0.1", "--seed-min", 1,
                "--seed-factor", 0, "--out", tmp_path / "one")
        assert r.exit_code == 0, r.output
        assert ((tmp_path / "zero" / "ladder.csv").read_bytes()
                == (tmp_path / "one" / "ladder.csv").read_bytes())

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

    @pytest.mark.parametrize("bad_row", ["0.05,nan,0", "inf,10,0"])
    def test_non_finite_ladder_row_exit(self, tmp_path, bad_row):
        # nan passes a sign check and would reach the fit; inf breaks polyfit
        src = tmp_path / "ladder.csv"
        src.write_text("epsilon,l_hat,truncated\n0.1,10,0\n"
                       f"{bad_row}\n0.025,40,0\n0.0125,80,0\n")
        r = run("dimension", "--from-csv", src, "--out", tmp_path / "fit")
        assert r.exit_code == 2, r.output
        assert not (tmp_path / "fit").exists()


    @pytest.mark.parametrize("option", [["--nu", "nan"], ["--d", "99"]])
    def test_bad_bracket_exits_before_the_scan(self, tmp_path, monkeypatch, option):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before the bracket was checked")
        monkeypatch.setattr(cli, "inclusion_length_ladder", no_scan)
        r = run("dimension", "--freq", "golden-1", "--eps", "0.1,0.05,0.025,0.0125",
                *option, "--out", tmp_path / "out")
        assert r.exit_code == 2, r.output

    def test_bad_bracket_exits_before_reading_rows(self, tmp_path):
        # three rows are too few to fit, which would exit 5
        src = tmp_path / "ladder.csv"
        src.write_text("epsilon,l_hat,truncated\n0.1,10,0\n0.05,20,0\n0.025,40,0\n")
        r = run("dimension", "--from-csv", src, "--nu", "nan", "--out", tmp_path / "fit")
        assert r.exit_code == 2, r.output


class TestBadDescriptors:
    """Every descriptor the library refuses exits 2 with an error line."""

    @pytest.mark.parametrize("freq", [
        "sqrt(-1)", "log(-1)", "cbrt(-8)", "exp(1e30)", "1e30+sqrt(2)",
        "(" * 300 + "1" + ")" * 300, "-" * 5000 + "1",
    ], ids=["sqrt(-1)", "log(-1)", "cbrt(-8)", "exp(1e30)", "1e30+sqrt(2)",
            "300-parens", "5000-minus-signs"])
    def test_refused_frequency_exits_2(self, tmp_path, freq):
        r = run("convergents", "--freq", freq, "--out", tmp_path / "out")
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert "error:" in r.output
        assert not (tmp_path / "out").exists()

    def test_refused_target_exits_2(self, tmp_path):
        r = run("scan", "--freq", "golden-1", "--theta", "cbrt(-8)", "--eps", "0.1",
                "--out", tmp_path)
        assert r.exit_code == 2, r.output
        assert "error:" in r.output

    def test_refused_matrix_entry_exits_2(self, tmp_path):
        r = run("orbit", "--matrix", "1;log(-1)", "--out", tmp_path)
        assert r.exit_code == 2, r.output
        assert "error:" in r.output


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

    def test_count_beyond_sample_cap_exits_2(self, tmp_path):
        r = run("orbit", "--matrix", "1,0;0,sqrt(2)", "--count", 10_000_001,
                "--out", tmp_path / "out")
        assert r.exit_code == 2, r.output
        assert "sample cap" in r.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", ["0", "-0.25", "1e-400"])
    def test_nonpositive_scale_exits_2(self, tmp_path, scale):
        # 1e-400 parses to 0.0
        r = run("orbit", "--matrix", "1,0;0,sqrt(2)", "--count", 100,
                "--scales", f"{scale},0.25,0.125,0.0625,0.03125", "--out", tmp_path / "out")
        assert r.exit_code == 2, r.output
        assert not (tmp_path / "out").exists()


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

    def test_alpha_checked_when_upper_is_undefined(self, tmp_path):
        r = run("bounds", "--m", 3, "--nu", 0.6, "--alpha", 7, "--out", tmp_path / "out")
        assert r.exit_code == 2
        assert not (tmp_path / "out").exists()


class TestAlmostPeriod:
    def test_files_and_consistency(self, tmp_path):
        r = run("almost-period", "--freq", "golden-1", "--k", 20, "--k0", 3,
                "--targets", "97,500,1000", "--out", tmp_path)
        assert r.exit_code == 0, r.output
        quality = json.loads((tmp_path / "quality.json").read_text())
        assert quality["consistent"] is True
        rows = read_rows(tmp_path / "periods.csv")
        assert [row["tau"] for row in rows] == ["97", "500", "1000"]

    @pytest.mark.parametrize("targets", [",", " , ", ""])
    def test_empty_targets_exit_2_without_output(self, tmp_path, targets):
        out = tmp_path / "out"
        r = run("almost-period", "--freq", "sqrt(2)-1", "--k", 20, "--k0", 3,
                "--targets", targets, "--out", out)
        assert r.exit_code == 2, r.output
        assert "target" in r.output
        assert not out.exists()

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

    def test_non_finite_json_value_exits_1_without_manifest(self, tmp_path, monkeypatch):
        def leaky(**options):
            return 0, {"bounds.json": {"upper": float("nan")}}, ""
        monkeypatch.setitem(cli._RUNNERS, "bounds", leaky)
        r = run("bounds", "--m", 2, "--out", tmp_path)
        assert r.exit_code == 1
        assert isinstance(r.exception, ValueError)
        assert not (tmp_path / "manifest.json").exists()


class TestWriteOnlyWithManifest:
    """A file appears in --out only with its manifest: on exit 0 or 4."""

    def test_fit_exit_leaves_no_ladder_files(self, tmp_path):
        out = tmp_path / "out"
        r = run("dimension", "--freq", "golden-1", "--eps", "0.1,0.05,0.025", "--out", out)
        assert r.exit_code == 5
        assert not out.exists()

    def test_budget_exit_writes_a_replayable_manifest(self, tmp_path):
        out = tmp_path / "out"
        r = run("scan", "--freq", "golden-1", "--eps", "0.1,0.01",
                "--seed-min", 50, "--budget", 50, "--out", out)
        assert r.exit_code == 4
        before = snapshot(out)
        assert set(before) == {"ladder.csv", "solutions.csv", "manifest.json"}
        (tmp_path / "manifest.json").write_bytes(before["manifest.json"])
        for name in before:
            (out / name).unlink()
        r = run("--manifest", tmp_path / "manifest.json")
        assert r.exit_code == 4
        assert snapshot(out) == before

    @pytest.mark.parametrize("args", [
        ["scan", "--freq", "nope(1)", "--eps", "0.1"],
        ["convergents", "--freq", "golden-1", "--precision", 64, "--k", 40],
        ["bounds", "--m", 0],
    ], ids=["exit-2", "exit-3", "bounds-exit-2"])
    def test_refused_command_creates_no_out(self, tmp_path, args):
        r = run(*args, "--out", tmp_path / "out")
        assert r.exit_code in (2, 3)
        assert not (tmp_path / "out").exists()


# float options of every command, each given values a float type accepts
# but the library should refuse or handle; small sizes keep each run short
SWEEP_BASE = {
    "convergents": ["convergents", "--freq", "golden-1", "--k", 4],
    "scan": ["scan", "--freq", "golden-1", "--eps", "0.1", "--seed-min", 100,
             "--budget", 1000],
    "dimension": ["dimension", "--freq", "golden-1", "--eps", "0.1,0.05,0.025,0.0125",
                  "--seed-min", 1000, "--budget", 4000],
    "orbit": ["orbit", "--matrix", "1;sqrt(2)", "--lattice", "real", "--count", 64,
              "--scales", "0.25,0.125,0.0625,0.03125"],
    "bounds": ["bounds", "--m", 2],
    # nu * (m - 1) = 1: the upper bound is undefined, and alpha must still be checked
    "bounds-undefined": ["bounds", "--m", 3, "--nu", 0.5],
    "almost-period": ["almost-period", "--freq", "golden-1", "--k", 12, "--k0", 3,
                      "--targets", "97"],
}
SWEEP_OPTIONS = [("convergents", "--beta"), ("scan", "--seed-factor"),
                 ("dimension", "--nu"), ("dimension", "--d"), ("dimension", "--seed-factor"),
                 ("orbit", "--step"), ("bounds", "--nu"), ("bounds", "--d"),
                 ("bounds", "--alpha"), ("bounds-undefined", "--alpha"),
                 ("almost-period", "--beta"), ("almost-period", "--nu")]


def _refuse_constant(name):
    raise ValueError(f"{name} in JSON output")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e308"])
@pytest.mark.parametrize("command, option", SWEEP_OPTIONS,
                         ids=[f"{c}{o}" for c, o in SWEEP_OPTIONS])
def test_float_option_sweep(tmp_path, command, option, value):
    r = run(*SWEEP_BASE[command], option, value, "--out", tmp_path / "out")
    assert r.exit_code != 1, (r.output, r.exception)
    for path in (tmp_path / "out").glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


# SHA-256 of every file and of stdout, taken from the CLI before its output
# writer was rewritten. The replay tests compare a revision with itself, so
# only these catch a change to every file alike. estimate.json and
# diagnostics.json hold np.polyfit results, whose last bits depend on the
# LAPACK build, so only their presence is pinned (None). The manifests name
# the package version and change with it.
PINNED = [
    ("convergents --freq golden-1 --k 20", {
        "diagnostics.json": None,
        "manifest.json": "6771dfdb0d2da35a40fade8690740e082c61bcbd20e13570a7a7d125bf8ca546",
        "sequence.csv": "61df8d936011147e0cb21db7b98835957ce11bd861024f490d6501c56d3f6728",
        "stdout": "1059d2a3620fe039e7e4d9bd1e49ed2af3b259c0c3bfa850d43a0e99c8e7b1fb",
    }),
    ("convergents --freq golden-1 --k 20 --format json", {
        "diagnostics.json": None,
        "manifest.json": "456b6fbed7712e771eb3a7169b280ba6599bb2060940cc76efaade1325a1b78a",
        "sequence.json": "18a71c0f8708d85b801d23be8c33c7ddef43e488b6c0bd0b330c65f4f04b5bda",
        "stdout": "1059d2a3620fe039e7e4d9bd1e49ed2af3b259c0c3bfa850d43a0e99c8e7b1fb",
    }),
    ("scan --freq sqrt(2)-1,sqrt(3)-1 --eps 0.1,0.05 --theta 0,0", {
        "ladder.csv": "dc220aa4a50d846db1bc98a1ddd69e28ae5f7a9f8a264c1e75522077ed310681",
        "manifest.json": "52fd13a84d4379815854bafa12ee35e9632b835318af682c4a5e74682539ad84",
        "solutions.csv": "3c2023988c1b6d7da13e641a76de559f2add3367fb32bc0b41e2ee26ff5a4899",
        "stdout": "f03d5fb4be319f4af14fbc57b0605fc575f4d337ec8caf2685415f73f8182050",
    }),
    ("scan --freq sqrt(2)-1,sqrt(3)-1 --eps 0.1,0.05 --theta 0,0 --format json", {
        "ladder.csv": "dc220aa4a50d846db1bc98a1ddd69e28ae5f7a9f8a264c1e75522077ed310681",
        "ladder.json": "998547f59b112d631cccb5a34104d7539bff10924f20db4e82af0d2398346a6c",
        "manifest.json": "21732792737ec21188ed4b30f8d9e00aac0f1f29f3942ee320cab439ca1f0adb",
        "solutions.csv": "3c2023988c1b6d7da13e641a76de559f2add3367fb32bc0b41e2ee26ff5a4899",
        "stdout": "f03d5fb4be319f4af14fbc57b0605fc575f4d337ec8caf2685415f73f8182050",
    }),
    ("dimension --freq golden-1 --eps 0.1,0.05,0.025,0.0125,0.00625,0.003125", {
        "estimate.json": None,
        "ladder.csv": "40e43a282ec2c35e90e8b5bcda35d51d54adaf0123314aa2776786f6ac487ef5",
        "manifest.json": "9d4360b6d199fe6b1a7c709aa6dbcb3f107589f7f639cd0f08de8bc566849cc6",
        "solutions.csv": "b21fe9ffab75f8a7122bb5454d9592109c92488d895817b23f1b6ce8b1281c40",
        "stdout": "abc833c45fb81b4b94b911b52b832e0d4574db5ef0753630f344f22d3eee2fcb",
    }),
    ("orbit --matrix 1,0;0,sqrt(2) --count 10000", {
        "boxcounts.csv": "4b6691dbdbe22b0e8579abd1c5e4fcfc7cb64b7ae26c841b15cca27fae843384",
        "estimate.json": None,
        "manifest.json": "56cf6776f66cf7eaadae78a0bbcd0bde45d45e07037a0481681da3b63781a9eb",
        "points.csv": "63c5873b359840eb4ebd27ad9723f1d56c27e3083b4d232a44060bb44ff7743f",
        "stdout": "217a4e497c6d9585ae9f606ee9bb9a56b3ead9891e9c2b14f546859f4e6fd3b1",
    }),
    ("orbit --matrix 1,0;0,sqrt(2) --lattice real --count 10000", {
        "boxcounts.csv": "ef3bb0db68ed2e1efc0d69276932bdad74752695beda677f856a9aa42d496fb2",
        "estimate.json": None,
        "manifest.json": "9b8434644277271f3d301dc986d2e61e5de9f4631080cbdd4ec51f2afabe56a0",
        "points.csv": "0d616ac3dbdae8e4cee84f60d64955115954a399277fea951c858f58329eaaa9",
        "stdout": "31c259a9f18867220447c280c88dcc1aafe0480258f1bc12a2f01ac2478e501f",
    }),
    ("orbit --matrix sqrt(2)-1,pi-3,e-2;sqrt(3)-1,cbrt(2)-1,log(5)-1 --count 8000", {
        "boxcounts.csv": "f50fac759533935435ef252b5123e8ef969197ef498e3940f2e002415856a32b",
        "estimate.json": None,
        "manifest.json": "d173a2467c9ba8be62d731f5e041d2e5e50fc3eed355d36e7c2e8288167f6ddb",
        "points.csv": "b314dd6a401e8c3b20694f1320bd61c14f800f3b886186f0739ba799ecfc80c8",
        "stdout": "85ebda6560aeeb84f364105d21cc63691fd79b8f43e8fb23d8aa9ae5ae1b65d6",
    }),
    ("bounds --m 2", {
        "bounds.json": "603f5a8c5c513ff7d0c1f834053d1c4511c1febdcf935889db58c5ffb039b9f8",
        "manifest.json": "1c5d6b5bc3cd19b85bcbbbf483445a7e41b8edefc80fdb8e3f8c13832902bb75",
        "stdout": "0cf88737ae4a2b215dfef9aa500d89960ee179987f1b7679e97d0164e9744365",
    }),
    ("bounds --m 2 --format csv", {
        "bounds.json": "603f5a8c5c513ff7d0c1f834053d1c4511c1febdcf935889db58c5ffb039b9f8",
        "manifest.json": "058557f445f145b2644e2efa2b5bdd4d1c0d188e3aad1a847b17e47aa546a3d8",
        "stdout": "0cf88737ae4a2b215dfef9aa500d89960ee179987f1b7679e97d0164e9744365",
    }),
    ("almost-period --freq golden-1 --k 20 --k0 3 --targets 97,500,1000", {
        "manifest.json": "3864d8c1fbaefde8249f58a948d200eb8a1fe8ca47a90b816901113a9f9dc107",
        "periods.csv": "cdac12162a57744164c905554ef9fa25c1840fc4b308284c87c3e9f96c1a7690",
        "quality.json": "6be5074236c65e9e6c5b9a38af539fa5468a98578bc6d5be5dddaeaef2a2c83e",
        "stdout": "3a13492c5a9edcd012c44ffb44d8ad7c158d1a23ed5d3301b35f5890b37034ea",
    }),
]


@pytest.mark.parametrize("command", ["scan", "dimension"])
def test_policy_option_defaults_are_window_policys(command):
    defaults = {p.name: p.default for p in main.commands[command].params}
    policy = WindowPolicy()
    assert (defaults["seed_min"], defaults["seed_factor"], defaults["budget"]) == (
        policy.seed_min, policy.seed_factor, policy.budget)


@pytest.mark.parametrize("argv, digests", PINNED, ids=[a for a, _ in PINNED])
def test_output_bytes_are_pinned(tmp_path, monkeypatch, argv, digests):
    monkeypatch.chdir(tmp_path)  # the manifest records --out as given
    r = run(*argv.split(), "--out", "out")
    assert r.exit_code == 0, r.output
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "out").iterdir()}
    got["stdout"] = hashlib.sha256(r.output.encode()).hexdigest()
    assert set(got) == set(digests)
    pinned = {k: v for k, v in digests.items() if v is not None}
    assert {k: got[k] for k in pinned} == pinned
