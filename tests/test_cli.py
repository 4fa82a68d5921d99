import csv
import io
import json
import math
import pathlib
import shlex

import pytest

from belllab import Correlators, agr, canonical_coefficients, cli
from belllab.cli import build_parser, main
from belllab.regions import MAX_GRID_N, Plane, scan_region
from helpers import reference_grid_csv, reference_grid_json

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def s_just_above_two(monkeypatch):
    """Make the CLI's chsh_lhv report S = 2 + 1e-9 +- 0.01, far inside 5 sigma of the bound."""
    zero = (0.0,) * 4
    record = Correlators((1.0, -1.0, 1e-9, 0.0), (1,) * 4, (zero, zero, (0.0, 0.0, 1e-4, 0.0), zero), 1,
                         "symmetric")
    assert (record.value, record.std_error) == (2.0 + 1e-9, 0.01)

    def just_above_two(model, s, n, seed):
        return record

    monkeypatch.setattr(cli, "chsh_lhv", just_above_two)


def as_config(options):
    """Config text equivalent to option flags: '--key v [v]' -> 'key = v [v]', '--flag' -> 'flag = true'."""
    entries = []
    for token in options:
        if token.startswith("--"):
            entries.append([token[2:]])
        else:
            entries[-1].append(token)
    return "".join(f"{key} = {' '.join(values) or 'true'}\n" for key, *values in entries)


class TestChshCommand:
    def test_gisin_maximal(self, capsys):
        rc, out, _ = run_cli(
            capsys, "chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--gisin"
        )
        assert rc == 0
        assert "S = 2.82842712" in out
        assert "violated: true" in out

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--gisin",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["violated"] is True
        assert payload["S"] == pytest.approx(2.8284271247, abs=1e-9)
        assert payload["max_violation"] == pytest.approx(payload["S"], abs=1e-9)
        assert set(payload["P"]) == {"ab", "ab_prime", "a_prime_b", "a_prime_b_prime"}
        assert payload["settings"]["b"]["theta"]["deg"] == pytest.approx(45.0, abs=1e-6)

    def test_separable_with_gisin_meets_local_bound(self, capsys):
        rc, out, _ = run_cli(capsys, "chsh", "--c1", "1", "--c2", "0", "--gisin", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["S"] == 2.0 == payload["max_violation"]
        assert payload["violated"] is False

    def test_partial_entanglement_value(self, capsys):
        rc, out, _ = run_cli(
            capsys, "chsh", "--c1", "0.9486833", "--c2", "0.3162278", "--gisin"
        )
        assert rc == 0
        assert "max_violation = 2.33238081" in out

    def test_bad_normalization_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "chsh", "--c1", "0.9", "--c2", "0.9", "--gisin")
        assert rc == 2
        assert "not normalized" in err

    def test_explicit_angles(self, capsys):
        rc, out, _ = run_cli(
            capsys, "chsh", "--c1", "0.7071068", "--c2", "-0.7071068",
            "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "135",
        )
        assert rc == 0
        assert "S = " in out

    def test_radians_switch_equivalent(self, capsys):
        _, out_deg, _ = run_cli(
            capsys, "chsh", "--c1", "0.7071068", "--c2", "0.7071068",
            "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "135",
        )
        _, out_rad, _ = run_cli(
            capsys, "chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--radians",
            "--alpha", "0", "--alpha-prime", str(math.pi / 2),
            "--beta", str(math.pi / 4), "--beta-prime", str(3 * math.pi / 4),
        )
        pick = lambda text: [l for l in text.splitlines() if l.startswith(("P(", "S ="))]
        for line_deg, line_rad in zip(pick(out_deg), pick(out_rad)):
            assert line_deg == line_rad

    def test_missing_settings_source(self, capsys):
        rc, _, err = run_cli(capsys, "chsh", "--c1", "0.7071068", "--c2", "0.7071068")
        assert rc == 2
        assert "settings source" in err


ANGLES = ["--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "135"]


class TestSettingsSource:
    # chsh and lhv take Gisin's quadruple or all four explicit angles, never both.
    BASE = {"chsh": ["chsh", "--c1", "0.7071068", "--c2", "0.7071068"],
            "lhv": ["lhv", "--samples", "1000"]}
    GISIN = {"chsh": ["--gisin"], "lhv": ["--gisin-for", "0.7071068", "0.7071068"]}

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize("case, message", [("both", "choose either"),
                                               ("neither", "no settings source"),
                                               ("three angles", "need all of")])
    @pytest.mark.parametrize("command", ["chsh", "lhv"])
    def test_exit_2(self, capsys, tmp_path, command, case, message, via):
        options = {"both": self.GISIN[command] + ANGLES, "neither": [], "three angles": ANGLES[:6]}[case]
        if via == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(as_config(options))
            options = ["--config", str(cfg)]
        rc, out, err = run_cli(capsys, *self.BASE[command], *options)
        assert (rc, out) == (2, "")
        assert message in err

    def test_conflict_reported_before_normalization(self, capsys):
        rc, out, err = run_cli(capsys, "lhv", "--gisin-for", "0.7", "0.7", *ANGLES)
        assert (rc, out) == (2, "")
        assert "choose either --gisin-for or explicit angles" in err
        assert "not normalized" not in err


class TestScanCommand:
    def test_fraction_and_csv(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        rc, out, _ = run_cli(
            capsys, "scan", "--plane", "xy", "--concurrence", "1.0",
            "--grid", "128", "--out", str(out_file),
        )
        assert rc == 0
        assert "violating_fraction=0.25" in out
        assert out_file.exists()
        assert out_file.read_text().splitlines()[1] == "angle1,angle2,bell_lhs,violated"

    def test_low_entanglement_zero_fraction(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--plane", "xy", "--concurrence", "0.6", "--grid", "128")
        assert rc == 0
        assert "violating_fraction=0" in out

    def test_xz_matches_yz(self, capsys):
        _, out_xz, _ = run_cli(capsys, "scan", "--plane", "xz", "--concurrence", "1.0", "--grid", "64")
        _, out_yz, _ = run_cli(capsys, "scan", "--plane", "yz", "--concurrence", "1.0", "--grid", "64")
        frac = lambda s: s.split("violating_fraction=")[1].split()[0]
        assert frac(out_xz) == frac(out_yz)

    def test_json_export(self, capsys, tmp_path):
        out_file = tmp_path / "grid.json"
        rc, _, _ = run_cli(
            capsys, "scan", "--plane", "xy", "--c1", str(INV_SQRT2), "--c2", str(INV_SQRT2),
            "--grid", "16", "--out", str(out_file), "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["violating_fraction"] == pytest.approx(0.25, abs=2.0 / 16)

    def test_unwritable_path_exit_3(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "scan", "--plane", "xy", "--concurrence", "1.0",
            "--grid", "16", "--out", str(tmp_path / "missing" / "grid.csv"),
        )
        assert rc == 3
        assert "i/o error" in err

    def test_conflicting_coefficient_sources(self, capsys):
        rc, _, err = run_cli(
            capsys, "scan", "--plane", "xy", "--concurrence", "0.8", "--c1", "0.9", "--c2", "0.1"
        )
        assert rc == 2


class TestLhvCommand:
    def test_report_and_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "lhv", "--model", "bell-sign", "--samples", "50000", "--seed", "42",
            "--gisin-for", "0.7071068", "0.7071068",
        )
        assert rc == 0
        assert out.count("E(") == 4
        assert "S = " in out
        assert "local bound (S <= 2 exactly): pass" in out

    def test_single_sample_stays_within_the_local_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "lhv", "--samples", "1", "--gisin-for", "0.7071068", "0.7071068", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["S"] <= 2.0
        assert payload["within_local_bound"] is True

    @pytest.mark.parametrize("samples", [10 ** 12, 2 ** 63 - 1])
    def test_bell_sign_at_any_sample_count(self, capsys, samples):
        # bell-sign draws its sign-pattern counts in one multinomial, so this costs as much as 1000 samples.
        rc, out, _ = run_cli(
            capsys, "lhv", "--samples", str(samples), "--gisin-for", "0.7071068", "0.7071068", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["samples"] == samples
        assert payload["S"] <= 2.0

    @pytest.mark.parametrize("samples", [2 ** 63, 2 ** 64])
    def test_sample_count_above_int64_exit_2(self, capsys, samples):
        rc, out, err = run_cli(capsys, "lhv", "--samples", str(samples), "--gisin-for", "0.7071068", "0.7071068")
        assert (rc, out) == (2, "")
        assert "sample count" in err

    def test_bit_identical_reruns(self, capsys):
        argv = [
            "lhv", "--model", "bell-sign", "--samples", "20000", "--seed", "42",
            "--gisin-for", "0.7071068", "0.7071068", "--format", "json",
        ]
        rc1, out1, _ = run_cli(capsys, *argv)
        rc2, out2, _ = run_cli(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("model", sorted(cli.BUILTIN_MODELS))
    def test_local_bound_rule_per_builtin_model(self, capsys, model):
        rc, out, _ = run_cli(
            capsys, "lhv", "--model", model, "--samples", "20000", "--seed", "1",
            "--gisin-for", "0.7071068", "0.7071068",
        )
        assert rc == 0
        assert "local bound (S <= 2 exactly): pass" in out

    @pytest.mark.parametrize("model", sorted(cli.BUILTIN_MODELS))
    def test_any_s_above_two_fails(self, capsys, s_just_above_two, model):
        # averaged-linear used to pass up to 2 + 5 sigma.
        rc, out, _ = run_cli(
            capsys, "lhv", "--model", model, "--samples", "1000", "--gisin-for", "0.7071068", "0.7071068",
        )
        assert rc == 1
        assert "local bound (S <= 2 exactly): FAIL" in out

    def test_averaged_linear_model(self, capsys):
        rc, out, _ = run_cli(
            capsys, "lhv", "--model", "averaged-linear", "--samples", "20000", "--seed", "1",
            "--gisin-for", "0.7071068", "0.7071068", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["within_local_bound"] is True
        assert payload["S"] <= 2.0
        assert {"seed", "settings", "E", "S", "stderr"} <= set(payload)

    def test_averaged_linear_at_the_largest_sample_count(self, capsys):
        # Sampled draw by draw, this run could not finish.
        rc, out, _ = run_cli(
            capsys, "lhv", "--model", "averaged-linear", "--samples", "9223372036854775807",
            "--gisin-for", "0.7071068", "0.7071068", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["samples"] == 2 ** 63 - 1
        assert payload["within_local_bound"] is True
        assert payload["S"] <= 2.0

    def test_unknown_model_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lhv", "--model", "psychic", "--gisin-for", "0.7", "0.7"])
        assert exc.value.code == 2

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = ["lhv", "--model", "bell-sign", "--samples", "5000",
                "--gisin-for", "0.7071068", "0.7071068", "--format", "json"]
        monkeypatch.setenv("BELLLAB_SEED", "77")
        _, out_env, _ = run_cli(capsys, *argv)
        monkeypatch.delenv("BELLLAB_SEED")
        _, out_flag, _ = run_cli(capsys, *argv, "--seed", "77")
        assert json.loads(out_env) == json.loads(out_flag)
        assert json.loads(out_env)["seed"] == 77

    def test_seed_env_not_an_integer_exit_2(self, capsys, monkeypatch):
        # Used to report int()'s message alone, without naming the variable.
        monkeypatch.setenv("BELLLAB_SEED", "abc")
        rc, out, err = run_cli(capsys, "lhv", "--samples", "1000", "--gisin-for", "0.7071068", "0.7071068")
        assert (rc, out) == (2, "")
        assert "BELLLAB_SEED" in err and "'abc'" in err


class TestAgrCommand:
    def test_ideal_run_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        rc, out, _ = run_cli(
            capsys, "agr", "--pairs", "100000", "--seed", "9", "--out", str(report_path)
        )
        assert rc == 0
        assert "S = " in out
        payload = json.loads(report_path.read_text())
        assert {"seed", "settings", "counts", "E", "S", "stderr"} <= set(payload)
        assert len(payload["counts"]) == 4
        assert len(payload["E"]) == 4
        assert abs(payload["S"]) == pytest.approx(2 * math.sqrt(2), abs=5 * payload["stderr"])

    def test_damping_hits_lab_value(self, capsys):
        rc, out, _ = run_cli(
            capsys, "agr", "--pairs", "200000", "--seed", "9", "--damping", "0.955",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert 2.65 <= abs(payload["S"]) <= 2.75

    def test_product_state_obeys_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "agr", "--c1", "1", "--c2", "0", "--pairs", "100000", "--seed", "3",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["S"]) <= 2.0 + 5.0 * payload["stderr"]

    def test_bit_identical_report_files(self, capsys, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["agr", "--pairs", "50000", "--seed", "5", "--efficiency", "0.8",
                "--damping", "0.97"]
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_damping_and_sigma_conflict(self, capsys):
        rc, _, err = run_cli(
            capsys, "agr", "--pairs", "1000", "--damping", "0.9",
            "--misalignment-sigma", "0.1",
        )
        assert rc == 2

    def test_infinite_sigma_exit_2(self, capsys):
        # Used to sample NaN orientations, report S = 2.000000 and exit 0.
        rc, out, err = run_cli(capsys, "agr", "--pairs", "1000", "--misalignment-sigma", "inf")
        assert rc == 2
        assert "finite" in err
        assert out == ""

    def test_huge_sigma_gives_the_uniform_limit(self, capsys):
        # sigma ** 2 used to overflow into an OverflowError traceback with exit 1.
        rc, out, _ = run_cli(
            capsys, "agr", "--pairs", "100000", "--misalignment-sigma", "1e200", "--format", "json"
        )
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["S"]) <= 5.0 * payload["stderr"]

    def test_oversized_pairs_exit_2(self, capsys):
        # Used to raise an uncaught OverflowError from the sampler.
        rc, _, err = run_cli(capsys, "agr", "--pairs", str(2 ** 64))
        assert rc == 2
        assert "n_pairs" in err

    def test_runs_without_coincidences_are_named(self, capsys, monkeypatch):
        # Used to say "all coincidence counts are zero" whenever any one run was empty.
        empty, full = agr.CoincidenceCounts(0, 0, 0, 0, n_pairs=10), agr.CoincidenceCounts(1, 0, 0, 1, n_pairs=10)
        counts = (empty, full, full, empty)
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: agr.ExperimentReport(counts, agr._correlators(counts)))
        rc, out, err = run_cli(capsys, "agr", "--pairs", "10")
        assert (rc, out, err) == (2, "", "belllab: error: no coincidences recorded at (a,b), (a',b')\n")

    def test_csv_format(self, capsys, tmp_path):
        # Used to print nothing and exit 0.
        argv = ["agr", "--pairs", "100000", "--seed", "9", "--efficiency", "0.8"]
        rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["pair"] for r in rows] == ["a,b", "a,b'", "a',b", "a',b'"]
        _, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out_json)
        for row, counts, e in zip(rows, payload["counts"], payload["E"]):
            assert [int(row[k]) for k in ("r_pp", "r_pm", "r_mp", "r_mm", "n_pairs")] == [
                counts[k] for k in ("r_pp", "r_pm", "r_mp", "r_mm", "n_pairs")
            ]
            assert float(row["E"]) == e["value"]
            assert float(row["stderr"]) == e["stderr"]
        path = tmp_path / "counts.csv"
        rc, out_file, _ = run_cli(capsys, *argv, "--format", "csv", "--out", str(path))
        assert rc == 0
        assert out_file == ""
        assert path.read_text() == out


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# lab defaults\n"
            "c1 = 0.7071068\n"
            "c2 = 0.7071068\n"
            "gisin = true\n"
        )
        rc, out, _ = run_cli(capsys, "chsh", "--config", str(cfg))
        assert rc == 0
        assert "S = 2.82842712" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("plane = xy\nconcurrence = 1.0\ngrid = 64\n")
        rc, out, _ = run_cli(capsys, "scan", "--config", str(cfg), "--concurrence", "0.6")
        assert rc == 0
        assert "violating_fraction=0" in out
        rc, out, _ = run_cli(capsys, "scan", "--config", str(cfg))
        assert "violating_fraction=0.25" in out

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc, _, err = run_cli(capsys, "chsh", "--config", str(cfg))
        assert rc == 2

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        # A misspelled key used to be ignored silently.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sampels = 10\n")
        rc, out, err = run_cli(
            capsys, "lhv", "--config", str(cfg), "--gisin-for", "0.7071068", "0.7071068"
        )
        assert rc == 2
        assert "sampels" in err
        assert out == ""

    def test_permissive_key_exit_2(self, capsys, tmp_path):
        # chsh accepts the separable limit without a switch, so the key is gone.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c1 = 1\nc2 = 0\ngisin = true\npermissive = false\n")
        rc, out, err = run_cli(capsys, "chsh", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert f"{cfg}: no chsh option named permissive" in err

    @pytest.mark.parametrize("text, key", [("pairs = 10\npairs = 2000\n", "pairs"),
                                           ("a-prime = 90\na_prime = 80\n", "a_prime")])
    def test_duplicate_key_exit_2(self, capsys, tmp_path, text, key):
        # The last value used to win silently.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# lab defaults\n" + text)
        rc, out, err = run_cli(capsys, "agr", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert f"{cfg}:3: duplicate key {key}" in err

    @pytest.mark.parametrize("command, text, message", [
        ("agr", "pairs =\n", "pairs: invalid literal for int() with base 10: ''"),
        ("agr", "pairs = abc\n", "pairs: invalid literal for int() with base 10: 'abc'"),
        ("chsh", "c1 = 0.7071068\nc2 = 0.7071068\ngisin = maybe\n", "gisin: not a boolean: 'maybe'"),
    ], ids=["empty-int", "bad-int", "bad-switch"])
    def test_bad_value_names_file_and_key(self, capsys, tmp_path, command, text, message):
        # Used to print the cast's message alone, naming neither the file nor the key.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        rc, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert err == f"belllab: error: {cfg}: {message}\n"

    def test_config_format_checked_per_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c1 = 0.7071068\nc2 = 0.7071068\ngisin = true\nformat = csv\n")
        rc, out, err = run_cli(capsys, "chsh", "--config", str(cfg))
        assert rc == 2
        assert "formats are text, json" in err
        assert out == ""

    @pytest.mark.parametrize("argv, extra", [
        # an nargs=2 key
        (["lhv", "--model", "averaged-linear", "--samples", "5000", "--seed", "3",
          "--gisin-for", "0.7071068", "0.7071068", "--format", "json"], ""),
        (["lhv", "--samples", "5000", "--radians", "--alpha", "0", "--alpha-prime", "1.5707963",
          "--beta", "0.7853982", "--beta-prime", "2.3561945"], ""),
        # negative values, and store_true keys set to false
        (["agr", "--pairs", "20000", "--seed", "4", "--c1", "0.7071068", "--c2", "-0.7071068",
          "--efficiency", "0.9", "--damping", "0.97", "--b", "40"], "radians = false\n"),
        (["agr", "--pairs", "20000", "--seed", "4", "--misalignment-sigma", "0.2", "--format", "csv"],
         ""),
        (["scan", "--plane", "xz", "--concurrence", "0.9", "--sign", "-1", "--grid", "32"], ""),
        (["chsh", "--c1", "0.6", "--c2", "-0.8", "--alpha", "0", "--alpha-prime", "90",
          "--beta", "45", "--beta-prime", "135"], "gisin = false\n"),
    ])
    def test_config_matches_flags(self, capsys, tmp_path, argv, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(as_config(argv[1:]) + extra)
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert run_cli(capsys, argv[0], "--config", str(cfg))[:2] == (rc, out)

    def test_false_key_yields_to_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c1 = 0.7071068\nc2 = 0.7071068\ngisin = false\n")
        rc, _, err = run_cli(capsys, "chsh", "--config", str(cfg))
        assert rc == 2
        assert "settings source" in err
        rc, out, _ = run_cli(capsys, "chsh", "--config", str(cfg), "--gisin")
        assert rc == 0
        assert "S = 2.82842712" in out

    def test_config_key_exit_2(self, capsys, tmp_path):
        other = tmp_path / "other.cfg"
        other.write_text("pairs = 1000\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"config = {other}\n")
        rc, out, err = run_cli(capsys, "agr", "--config", str(cfg))
        assert rc == 2
        assert "config" in err
        assert out == ""


class TestFlagsThatDidNothing:
    # Each used to be accepted and ignored, exiting 0.
    @pytest.mark.parametrize("argv", [
        ["chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--gisin", "--threads", "3"],
        ["chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--gisin", "--format", "csv"],
        ["chsh", "--c1", "0.7071068", "--c2", "0.7071068", "--gisin", "--seed", "5"],
        ["scan", "--concurrence", "1.0", "--grid", "16", "--format", "text", "--out", "g.txt"],
        ["scan", "--concurrence", "1.0", "--grid", "16", "--radians"],
    ])
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_oversized_grid_exit_2(self, capsys):
        # Used to allocate until a MemoryError traceback.
        rc, out, err = run_cli(
            capsys, "scan", "--concurrence", "1.0", "--grid", str(MAX_GRID_N + 1)
        )
        assert rc == 2
        assert "grid_n" in err
        assert out == ""


class TestSelftest:
    def test_selftest_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest")
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    def test_bell_sign_bound_has_no_sigma_allowance(self, capsys, s_just_above_two):
        # S <= 2 is an identity of the shared-stream estimate for every built-in model.
        rc, out, _ = run_cli(capsys, "selftest")
        assert rc == 1
        assert "FAIL lhv-bound-bell-sign (S = 2.0000 +- 0.0100)" in out
        assert "FAIL lhv-bound-averaged-linear (S = 2.0000 +- 0.0100)" in out


class TestNonFiniteCoefficients:
    # Used to print violating_fraction=0 for an all-NaN grid and exit 0.
    @pytest.mark.parametrize("c1, c2", [("nan", "0.5"), ("0.5", "nan")])
    def test_scan_nan_exit_2(self, capsys, c1, c2):
        rc, out, err = run_cli(capsys, "scan", "--c1", c1, "--c2", c2, "--grid", "16")
        assert rc == 2
        assert "not normalized" in err
        assert out == ""


class TestNegativeSeed:
    # The library rejects a negative seed, so the CLI keeps no check of its own.
    @pytest.mark.parametrize("argv", [
        ["lhv", "--samples", "1000", "--gisin-for", "0.7071068", "0.7071068"],
        ["agr", "--pairs", "1000"],
    ])
    def test_exit_2(self, capsys, monkeypatch, argv):
        # lhv used to print numpy's "expected non-negative integer", naming no input.
        rc, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (rc, out) == (2, "") and "seed must be a non-negative integer" in err
        monkeypatch.setenv("BELLLAB_SEED", "-1")
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "") and "seed must be a non-negative integer" in err


class TestHelpAndReadme:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for default in ("(default: xy)", "(default: 512)", "(default: 1)", "(default: csv)"):
            assert default in text

    def test_readme_commands_parse(self):
        # A renamed or removed flag must not leave a stale README command behind.
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = block.replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line)[1:] for line in lines if line.startswith("belllab ")]
        assert len(argvs) == 6
        parser = build_parser()
        for argv in argvs:
            parser.parse_args(argv)


class TestScanSign:
    # --sign used to be ignored next to --c1/--c2, exiting 0 with the c2 > 0 grid.
    def test_sign_with_coefficients_exit_2(self, capsys):
        argv = ["scan", "--c1", "0.6", "--c2", "0.8", "--grid", "16"]
        assert run_cli(capsys, *argv)[0] == 0
        for sign in ("-1", "1"):
            rc, out, err = run_cli(capsys, *argv, "--sign", sign)
            assert (rc, out) == (2, "")
            assert "--sign" in err

    def test_sign_config_key_with_coefficients_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c1 = 0.6\nc2 = 0.8\nsign = -1\n")
        rc, out, err = run_cli(capsys, "scan", "--config", str(cfg), "--grid", "16")
        assert (rc, out) == (2, "")
        assert "--sign" in err

    def test_concurrence_sign_defaults_to_plus(self, capsys):
        plain = run_cli(capsys, "scan", "--concurrence", "0.8", "--grid", "16")
        assert plain == run_cli(capsys, "scan", "--concurrence", "0.8", "--sign", "1", "--grid", "16")
        assert "c2=0.447213595" in plain[1]


class TestScanExportMatchesReference:
    @pytest.mark.parametrize("fmt, reference", [("csv", reference_grid_csv),
                                                ("json", reference_grid_json)])
    def test_byte_identical(self, capsys, tmp_path, fmt, reference):
        out_file, ref_file = tmp_path / f"grid.{fmt}", tmp_path / f"ref.{fmt}"
        rc, _, _ = run_cli(capsys, "scan", "--plane", "xz", "--concurrence", "0.9", "--sign", "-1",
                           "--grid", "64", "--format", fmt, "--out", str(out_file))
        assert rc == 0
        c1, c2 = canonical_coefficients(0.9, -1)
        reference(scan_region(Plane.XZ, c1, c2, 64), ref_file)
        assert out_file.read_bytes() == ref_file.read_bytes()
