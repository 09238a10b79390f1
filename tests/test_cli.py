import csv
import hashlib
import json
import math
import textwrap
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synchan import bounds, cli, combinatorics, verification
from synchan.bounds import ChannelParams, evaluate_bound, gallager_bound
from synchan.verification import run_simulator_checks

from helpers import run_python


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corrupted_pattern_weights(monkeypatch):
    """Constant 5.0 pattern weights; no pattern gain is memoised, so no other test sees them."""
    monkeypatch.setattr(
        "synchan.bounds.mean_pattern_log_weights", lambda n, lo, hi: np.full(hi - lo + 1, 5.0)
    )


class TestBoundCommand:
    def test_deletion_substitution_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--method", "del-sub", "--n", "1000",
            "--pd", "0.01", "--pe", "0.01", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(0.8419, abs=5e-4)
        assert payload["block_length"] == 1000
        assert payload["rate"] == pytest.approx(sum(payload["components"].values()), abs=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            ["bound", "--method", "insertion", "--pi", "0.1", "--n", "5"],
            ["optimize", "--method", "insertion", "--pi", "0.1", "--n-max", "64"],
            ["optimize", "--method", "del-sub", "--pd", "0.1", "--pe", "0.01", "--n-max", "20"],
        ],
    )
    def test_json_layout_has_a_schema_version(self, capsys, args):
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["schema_version", "method", "block_length", "rate", "components"]
        assert payload["schema_version"] == 1

    def test_optimize_n_is_not_an_option(self, capsys):
        # optimize is the one block-length scan
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--method", "insertion", "--pi", "0.1", "--optimize-n", "512"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --optimize-n 512" in capsys.readouterr().err

    def test_near_noiseless_awgn(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--method", "del-awgn", "--n", "100",
            "--pd", "0", "--snr-db", "40", "--json",
        )
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(1.0, abs=1e-6)

    def test_very_low_snr(self, capsys):
        # sigma = 1e160, whose square overflows a float
        code, out, _ = run_cli(
            capsys, "bound", "--method", "del-awgn", "--n", "100",
            "--pd", "0.1", "--snr-db=-3200", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["components"]["awgn_penalty"] == -(1 - 0.1) * 1.0
        assert math.isfinite(payload["rate"])

    @pytest.mark.parametrize("snr_db", [-40.0, -3.0, 0.0, 3.0, 13.70594, 40.0, -3200.0, -6160.0])
    def test_in_range_snr_maps_to_the_same_sigma(self, snr_db):
        assert cli._sigma_from_snr_db(snr_db) == 10.0 ** (-snr_db / 20.0)

    def test_snr_beyond_float_range_is_an_error(self, capsys):
        # sigma = 10^350 exceeds the float range
        code, out, err = run_cli(
            capsys, "bound", "--method", "del-awgn", "--n", "100", "--pd", "0.1", "--snr-db=-7000"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--snr-db" in err

    def test_conflicting_noise_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--method", "del-awgn", "--n", "10",
            "--sigma", "1.0", "--snr-db", "3.0",
        )
        assert code == 2
        assert "at most one" in err

    def test_unknown_method_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--method", "bogus"])
        assert exc.value.code == 2

    def test_rounded_deletion_and_insertion_mass_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "--method", "gallager", "--pd", "1", "--pi", "1e-200"
        )
        assert (code, out) == (2, "")
        assert err == "error: p_d + p_i must not exceed 1, got p_d=1.0 and p_i=1e-200\n"

    def test_missing_block_length(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--method", "deletion", "--pd", "0.1")
        assert code == 2
        assert "block length" in err


class TestTableCommand:
    def test_table2_reproduces(self, capsys, tmp_path):
        path = tmp_path / "t2.csv"
        code, out, _ = run_cli(capsys, "table", "II", "--csv", str(path))
        assert code == 0
        assert "0 beyond tolerance" in out
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(row["within"] == "1" for row in rows)
        assert {row["column"] for row in rows} >= {"optimal_n", "bound", "gallager"}

    @pytest.mark.parametrize(
        "which, code, stdout_sha256, csv_sha256",
        [
            (
                "I",
                1,
                "5a7d1237f58eb5ca0ab80303fa809659e40d398492f3f3308a9d39b5a4f460bb",
                "bde8ef8913e775d7556c866ce7e134dc1b4435dc391f80527495a6d953013fb7",
            ),
            (
                "II",
                0,
                "9d0604d31d33b3f10bb985b3abfe1362cd8bc788705c4900b99acf4f2c31343a",
                "30739c0d2597f9639a2896ae5bfa7242c876a0b27b551465e049c66d42e1898d",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, tmp_path, which, code, stdout_sha256, csv_sha256):
        # every regenerated cell at 6 (stdout) and 8 (CSV) significant digits, CRLF CSV line ends
        path = tmp_path / "diff.csv"
        got, out, _ = run_cli(capsys, "table", which, "--csv", str(path))
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256

    def test_unwritable_csv_is_a_one_line_error(self, capsys, tmp_path, monkeypatch):
        # the path is opened first: nothing is computed or printed before the error
        monkeypatch.setattr(cli, "table1_diffs", lambda: pytest.fail("table computed"))
        path = tmp_path / "missing" / "t1.csv"
        code, out, err = run_cli(capsys, "table", "I", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        assert not path.parent.exists()

    def test_table1_flags_the_known_misprint(self, capsys):
        code, out, _ = run_cli(capsys, "table", "I")
        assert code == 1
        assert "1 beyond tolerance" in out
        assert "known misprint" in out
        assert "rate_n1000" in out


class TestSweepCommand:
    def test_insertion_gallager_ordering(self, capsys, tmp_path):
        # at n = 3 the insertion bound sits above the gallager value up to
        # p_i = 0.23 and below it at 0.25
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--method", "insertion", "--method", "gallager",
            "--pi", "0.03,0.1,0.23,0.25", "--n", "3", "--csv", str(path),
        )
        assert code == 0
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        for row in rows:
            p_i = float(row["p_i"])
            expected = evaluate_bound("random_insertion", ChannelParams.insertion(p_i), 3).rate
            assert float(row["insertion"]) == pytest.approx(expected, rel=1e-7)
            diff = float(row["insertion"]) - float(row["gallager"])
            assert (diff > 0) == (p_i <= 0.23)

    def test_awgn_sweep_monotone_and_ordered(self, capsys, tmp_path):
        path = tmp_path / "awgn.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--method", "del-awgn", "--pd", "0,0.05,0.1",
            "--snr-db", "0:10:6:lin", "--n", "100", "--csv", str(path),
        )
        assert code == 0
        with path.open(newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 18
        by_pd = {}
        for row in rows:
            by_pd.setdefault(float(row["p_d"]), []).append(
                (float(row["snr_db"]), float(row["del-awgn"]))
            )
        for curve in by_pd.values():
            curve.sort()
            rates = [r for _, r in curve]
            assert all(a < b for a, b in zip(rates, rates[1:]))
        for (snr, low), (_, high) in zip(sorted(by_pd[0.1]), sorted(by_pd[0.0])):
            assert low < high

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ["--method", "gallager", "--method", "del-awgn", "--pd", "0,0.1"]
                + ["--snr-db", "0,5", "--n", "5,7"],
                b"p_d,p_e,p_i,sigma,snr_db,n,gallager,del-awgn\r\n"
                b"0,0,0,1,0,5,1,0.48594415\r\n"
                b"0,0,0,1,0,7,1,0.48594415\r\n"
                b"0,0,0,0.56234133,5,5,1,0.85919408\r\n"
                b"0,0,0,0.56234133,5,7,1,0.85919408\r\n"
                b"0.1,0,0,1,0,5,0.53100441,0.052898986\r\n"
                b"0.1,0,0,1,0,7,0.53100441,0.061458923\r\n"
                b"0.1,0,0,0.56234133,5,5,0.53100441,0.38882392\r\n"
                b"0.1,0,0,0.56234133,5,7,0.53100441,0.39738386\r\n",
            ),
            (
                # no --n and no noise axis: empty snr_db and n fields
                ["--method", "gallager", "--pd", "0,0.05,0.1", "--pe", "0.01,0.03"],
                b"p_d,p_e,p_i,sigma,snr_db,n,gallager\r\n"
                b"0,0.01,0,0,,,0.91920686\r\n"
                b"0,0.03,0,0,,,0.80560814\r\n"
                b"0.05,0.01,0,0,,,0.63684956\r\n"
                b"0.05,0.03,0,0,,,0.52893078\r\n"
                b"0.1,0.01,0,0,,,0.45829058\r\n"
                b"0.1,0.03,0,0,,,0.35605173\r\n",
            ),
        ],
    )
    def test_csv_bytes_are_pinned(self, capsys, tmp_path, flags, expected):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", *flags, "--csv", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == expected

    def test_empty_grid_gives_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--method", "gallager", "--pd", "")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("p_d,p_e,p_i,sigma,snr_db,n,")

    def test_conflicting_noise_axes(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--method", "del-awgn", "--pd", "0.1",
            "--sigma", "0.5", "--snr-db", "10", "--n", "100",
        )
        assert code == 2
        assert "at most one" in err
        assert out == ""

    @pytest.mark.parametrize("snr_axis", ["-7000", "0,-7000", "-7000:0:3:lin"])
    def test_snr_beyond_float_range_is_an_error(self, capsys, snr_axis):
        code, out, err = run_cli(
            capsys, "sweep", "--method", "del-awgn", "--pd", "0.1", "--n", "100",
            f"--snr-db={snr_axis}",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_csv_is_a_one_line_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_grid_rates", lambda *args: pytest.fail("grid computed"))
        path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--method", "deletion", "--pd", "0.1", "--n", "10", "--csv", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        assert not path.parent.exists()

    def test_non_integer_block_length(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--method", "deletion", "--pd", "0.1", "--n", "4,3.6",
        )
        assert code == 2
        assert "3.6" in err
        assert out == ""

    def test_pattern_weights_computed_once_per_block_length_and_j(self, capsys, monkeypatch):
        # both methods request W_j(n) at every (n, p_d); the weight tables compute each once
        computed = []
        weights = combinatorics._pattern_log_weights

        def counting(n, js):
            computed.extend((n, j) for j in js.tolist())
            return weights(n, js)

        combinatorics._WEIGHT_TABLES.clear()
        monkeypatch.setattr(combinatorics, "_pattern_log_weights", counting)
        code, out, _ = run_cli(
            capsys, "sweep", "--method", "deletion", "--method", "del-sub",
            "--pd", "0.013,0.17", "--pe", "0,0.001,0.01,0.03,0.1", "--n", "100,1000",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 20
        assert {n for n, _ in computed} == {100, 1000}
        assert len(computed) == len(set(computed))

    def test_deletion_family_rates_equal_cold_direct_calls(self, capsys, monkeypatch):
        # the sweep reads W_j from warm tables; a fresh interpreter computes
        # each reference value with the W_j tables emptied first
        evaluated = []

        def recording(methods, *axes):
            grids = bounds._grid_rates(methods, *axes)
            for method, grid in zip(methods, grids):
                for (p_d, p_e, _, sigma, n), rate in zip(product(*axes), grid.ravel().tolist()):
                    evaluated.append([method, p_d, p_e, sigma, n, rate])
            return grids

        monkeypatch.setattr(cli, "_grid_rates", recording)
        code, _, _ = run_cli(
            capsys, "sweep", "--method", "del-sub", "--method", "deletion", "--method", "del-awgn",
            "--pd", "0.01,0.1", "--pe", "0,0.03", "--snr-db", "0,10", "--n", "100,1000",
        )
        assert code == 0
        assert len(evaluated) == 3 * 16
        script = textwrap.dedent(
            """\
            import json, sys
            from synchan import bounds, combinatorics
            calls = {
                "deletion_substitution": lambda p_d, p_e, s, n: bounds.deletion_substitution_bound(n, p_d, p_e),
                "deletion": lambda p_d, p_e, s, n: bounds.deletion_bound(n, p_d),
                "deletion_awgn": lambda p_d, p_e, s, n: bounds.deletion_awgn_bound(n, p_d, s),
            }
            rates = []
            for method, p_d, p_e, sigma, n, _ in json.loads(sys.argv[1]):
                combinatorics._WEIGHT_TABLES.clear()
                rates.append(calls[method](p_d, p_e, sigma, n).rate)
            print(json.dumps(rates))
            """
        )
        result = run_python("-c", script, json.dumps(evaluated))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [row[-1] for row in evaluated]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pd", "0.1,1.5"], "p_d must lie in [0, 1], got 1.5"),
            (["--pd", "0.1", "--pe", "0,2"], "p_e must lie in [0, 1], got 2.0"),
            (
                ["--pd", "0.6", "--pi", "0.5"],
                "p_d + p_i must not exceed 1, got p_d=0.6 and p_i=0.5",
            ),
            (["--n", "0,5"], "block length must be >= 1, got 0"),
            (["--sigma", "-1"], "sigma must be finite and nonnegative, got -1.0"),
            # the first invalid point decides: its block length, not the later p_d
            (["--pd", "0.1,1.5", "--n", "3"], "block length must be >= 4, got 3"),
        ],
    )
    def test_invalid_grid_reports_its_first_invalid_point(self, capsys, flags, message):
        argv = ["sweep", "--method", "deletion", "--method", "ins-small-p", "--method", "gallager"]
        defaults = {"--pd": "0.1", "--n": "10"}
        for flag, value in defaults.items():
            if flag not in flags:
                argv += [flag, value]
        code, out, err = run_cli(capsys, *argv, *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_log_axis_parsing(self):
        axis = cli._parse_axis("1e-4:1e-1:4:log")
        assert axis == pytest.approx([1e-4, 1e-3, 1e-2, 1e-1], rel=1e-9)
        with pytest.raises(ValueError):
            cli._parse_axis("1:2:3:bogus")


class TestVerifyCommand:
    def test_scoped_run_is_green(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--scope", "properties", "--scope", "simulators",
            "--seed", "42", "--mc-samples", "20000",
        )
        assert code == 0
        assert "all checks passed" in out

    def test_default_scope_reports_the_insertion_chain(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mc-samples", "20000", "--json")
        assert code == 1
        payload = json.loads(out)
        # every failure is an insertion-side chain check of the recorded
        # insertion-weight defect; the deletion side and all other scopes are clean
        assert len(payload["failures"]) == 40
        assert all(name.startswith("chains:insertion_") for name in payload["failures"])
        assert payload["known_failures"] == payload["failures"]

    def test_seed_reaches_only_the_simulator_scope(self, capsys, monkeypatch):
        # the property checks draw nothing, so they are called without it
        calls = []
        for name in ("run_property_checks", "run_simulator_checks"):
            monkeypatch.setattr(verification, name, lambda *args, name=name: calls.append((name, args)) or [])
        for seed in ("3", "11"):
            args = ["verify", "--scope", "properties", "--scope", "simulators", "--seed", seed]
            assert run_cli(capsys, *args)[0] == 0
        assert calls == [
            ("run_property_checks", ()),
            ("run_simulator_checks", (3, 1.0)),
            ("run_property_checks", ()),
            ("run_simulator_checks", (11, 1.0)),
        ]

    def test_seeded_runs_are_reproducible(self, capsys):
        args = ["verify", "--scope", "simulators", "--seed", "7", "--mc-samples", "20000", "--json"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        payload_a, payload_b = json.loads(out_a), json.loads(out_b)
        # the wall times are provenance, not verdicts
        assert payload_a.pop("wall_s").keys() == payload_b.pop("wall_s").keys() == {"simulators"}
        assert (code_a, payload_a) == (code_b, payload_b)

    def test_json_has_a_schema_version_and_a_wall_time_per_scope(self, capsys):
        args = ["verify", "--scope", "oracle", "--scope", "properties", "--json"]
        code, out, _ = run_cli(capsys, *args)
        payload = json.loads(out)
        assert code == 0 and payload["schema_version"] == 1
        assert list(payload["scopes"]) == ["oracle", "properties"]
        assert list(payload["wall_s"]) == ["properties", "oracle"]  # the order they ran in
        assert all(0.0 < t < math.inf for t in payload["wall_s"].values())

    def test_repeated_scopes_run_and_report_once(self, capsys):
        args = ["verify", "--scope", "chains", "--scope", "oracle", "--scope", "chains"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 1
        assert out.count("[chains]") == 1 and out.index("[chains]") < out.index("[oracle]")
        failing = out.count("  FAIL ")
        known = f"{failing} of {failing} failures are the recorded insertion-weight defect (README)"
        assert out.rstrip().endswith(f"\n{known}\n{failing} failing checks")
        code, out, _ = run_cli(capsys, *args, "--json")
        payload = json.loads(out)
        assert list(payload["scopes"]) == ["chains", "oracle"]
        assert len(payload["failures"]) == len(set(payload["failures"])) == failing
        assert payload["known_failures"] == payload["failures"]

    def test_injected_defect_is_caught(self, capsys, corrupted_pattern_weights):
        # mutate the pattern weights used by the deletion bound; the chain
        # checks must go red
        code, out, _ = run_cli(capsys, "verify", "--scope", "chains")
        assert code == 1
        assert "FAIL" in out

    def test_injected_failures_are_not_known(self, capsys, corrupted_pattern_weights):
        code, out, _ = run_cli(capsys, "verify", "--scope", "chains", "--json")
        payload = json.loads(out)
        new = [name for name in payload["failures"] if name not in payload["known_failures"]]
        assert code == 1 and new
        assert all(name.startswith("chains:deletion_") for name in new)
        assert set(payload["known_failures"]) <= set(payload["failures"])

    @pytest.fixture
    def scopes_run(self, monkeypatch):
        """The names of the scopes' check functions called, each replaced by one that returns no checks."""
        ran = []
        for name in ("run_property_checks", "run_oracle_checks", "run_chain_checks", "run_simulator_checks"):
            monkeypatch.setattr(verification, name, lambda *args, name=name, **kwargs: ran.append(name) or [])
        return ran

    @pytest.mark.parametrize("budget", ["inf", "nan", "0", "-1"])
    def test_invalid_sample_budget_rejected_before_any_scope(self, capsys, scopes_run, budget):
        code, out, err = run_cli(capsys, "verify", "--mc-samples", budget)
        assert code == 2
        assert err.startswith("error:") and "--mc-samples" in err
        assert out == "" and scopes_run == []

    @pytest.mark.parametrize("scope", ["all", "oracle"])
    def test_negative_seed_rejected_before_any_scope(self, capsys, scopes_run, scope):
        # the oracle scope draws nothing, yet a seed out of the domain is still an error
        code, out, err = run_cli(capsys, "verify", "--scope", scope, "--seed", "-1")
        assert (code, out, err, scopes_run) == (2, "", "error: seed must be >= 0, got -1\n", [])

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 0.0, -1e-6])
    def test_simulator_checks_reject_invalid_scale(self, scale):
        with pytest.raises(ValueError):
            run_simulator_checks(scale=scale)


class TestOptimizeCommand:
    @pytest.mark.parametrize(
        "p_i, n_star, printed, rate",
        [("0.03", 5, 0.8276, 0.8276413547266653), ("0.1", 4, 0.5702, 0.5701844473517247)],
    )
    def test_insertion_optimum(self, capsys, p_i, n_star, printed, rate):
        code, out, _ = run_cli(
            capsys, "optimize", "--method", "insertion", "--pi", p_i, "--n-max", "512", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["block_length"] == n_star
        assert payload["rate"] == pytest.approx(printed, abs=5e-4)  # the Table II row
        assert payload["rate"] == rate  # bit for bit

    def test_gallager_has_no_block_length_to_optimize(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--method", "gallager", "--n-max", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: method 'gallager' has no block length;")
        assert err.count("\n") == 1

    def test_optimize_choices_are_cli_method_names(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--method", "gallager", "--n-max", "10")
        choices = ["del-awgn", "del-small-p", "del-sub", "deletion", "ins-small-p", "insertion"]
        assert code == 2
        assert err == f"error: method 'gallager' has no block length; choose from {choices}\n"

    def test_insertion_scan_past_n_1022(self, capsys):
        # 2.0 ** (n + 1) overflows a float from n = 1023
        code, out, _ = run_cli(
            capsys, "optimize", "--method", "insertion", "--pi", "0.001",
            "--n-max", "1100", "--json",
        )
        assert code == 0
        assert math.isfinite(json.loads(out)["rate"])

    def test_snr_beyond_float_range_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--method", "del-awgn", "--pd", "0.1", "--n-max", "50",
            "--snr-db=-7000",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_custom_floor(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--method", "insertion", "--pi", "0.1",
            "--n-max", "64", "--n-min", "2", "--json",
        )
        assert code == 0
        # scanning from 2 exposes the degenerate n = 2 evaluation
        assert json.loads(out)["block_length"] == 2


# each command that takes a noise flag, with its other flags
_NOISE_COMMANDS = {
    "bound": ["bound", "--method", "del-awgn", "--n", "100", "--pd", "0.1"],
    "optimize": ["optimize", "--method", "del-awgn", "--pd", "0.1", "--n-max", "50"],
}


@pytest.mark.parametrize("command", sorted(_NOISE_COMMANDS))
def test_noise_variance_is_sigma_squared(capsys, command):
    # sqrt(0.64) is 0.8 exactly in floats, so both flags give the same sigma
    by_variance = run_cli(capsys, *_NOISE_COMMANDS[command], "--noise-var", "0.64", "--json")
    by_sigma = run_cli(capsys, *_NOISE_COMMANDS[command], "--sigma", "0.8", "--json")
    assert by_variance == by_sigma
    assert by_variance[0] == 0
    if command == "bound":
        assert json.loads(by_variance[1])["rate"].hex() == (0.21779300736578733).hex()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--noise-var", "-1"], "--noise-var must be nonnegative"),
        (["--noise-var", "0.64", "--sigma", "0.8"], "pass at most one of --sigma, --snr-db, --noise-var"),
    ],
)
@pytest.mark.parametrize("command", sorted(_NOISE_COMMANDS))
def test_invalid_noise_variance_is_a_one_line_error(capsys, command, flags, message):
    assert run_cli(capsys, *_NOISE_COMMANDS[command], *flags) == (2, "", f"error: {message}\n")


def test_console_entry_point():
    result = run_python("-m", "synchan.cli", "bound", "--method", "gallager", "--pi", "0.1")
    assert result.returncode == 0
    assert "0.531" in result.stdout


def test_installed_script_is_main():
    # the script setuptools generates for a [project.scripts] entry runs sys.exit(main())
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"synchan": "synchan.cli:main"}


def test_gallager_text_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--method", "gallager", "--pd", "0.05", "--pe", "0.03")
    assert code == 0
    reference = gallager_bound(ChannelParams.deletion_substitution(0.05, 0.03)).rate
    assert f"{reference:.6g}" in out


def _point_rates(methods, *axes):
    """The rates of evaluate_bound at each grid point in grid order, the methods in turn."""
    return [
        [evaluate_bound(m, ChannelParams(p_d, p_e, p_i, sigma), n).rate.hex() for m in methods]
        for p_d, p_e, p_i, sigma, n in product(*axes)
    ]


# short axes with points at 0 and 1; p_i stays small, so that most grids are valid
_P_AXIS = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=3)
_P_I_AXIS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.5)), min_size=1, max_size=2)


@pytest.mark.parametrize("method", sorted(cli._METHODS.values()))
@settings(max_examples=40, deadline=None)
@given(
    others=st.lists(st.sampled_from(sorted(cli._METHODS.values())), max_size=2),
    p_d=_P_AXIS,
    p_e=_P_AXIS,
    p_i=_P_I_AXIS,
    sigma=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0)), min_size=1, max_size=3),
    n=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    # one axis in three grids is empty
    emptied=st.sampled_from((None,) * 10 + tuple(range(5))),
)
# 1.0 + 5.27e-116 rounds to 1.0, but gallager's 1 - p_d - p_i is below 0; the
# first point is invalid, not only the second, whose n = 1 is too short for some
@example(
    others=["gallager"], p_d=[1.0], p_e=[0.0], p_i=[5.27e-116], sigma=[0.0], n=[5, 1], emptied=None
)
def test_grid_rates_equal_point_evaluations(method, others, p_d, p_e, p_i, sigma, n, emptied):
    methods, axes = [method, *others], [p_d, p_e, p_i, sigma, n]
    if emptied is not None:
        axes[emptied] = []
    try:
        expected = _point_rates(methods, *axes)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            bounds._grid_rates(methods, *axes)
        assert str(raised.value) == str(exc)
        return
    grids = bounds._grid_rates(methods, *axes)
    assert all(grid.shape == tuple(map(len, axes)) for grid in grids)
    rates = zip(*(grid.ravel().tolist() for grid in grids))
    assert [[rate.hex() for rate in row] for row in rates] == expected
