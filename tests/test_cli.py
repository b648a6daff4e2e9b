"""CLI surface: output formats, exit codes, determinism, and pass-through
of library values.

All invocations go through ``cli.main(argv)`` in-process so stdout/stderr
can be captured exactly; none of these tests shell out.
"""

import json
import math
import re

import pytest

from specrad import cli, limit_laws, stats
from specrad.limit_laws import SPHERICAL_H
from specrad.norming import Spherical


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCmdCdf:
    def test_gumbel_point(self, capsys):
        code, out, err = run_cli(capsys, "cdf", "--law", "gumbel", "--grid", "0:0:1")
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["x,cdf", "0,0.36787944117144233"]

    def test_gumbel_far_left_prints_zeros(self, capsys):
        # exp(-x) overflows below x = -709.78; this grid used to exit 2
        code, out, err = run_cli(capsys, "cdf", "--law", "gumbel", "--grid=-800:-700:3")
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["x,cdf", "-800,0", "-750,0", "-700,0"]

    def test_spherical_tail_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--law", "spherical-h", "--grid", "10:10:1", "--with-tail"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,cdf,tail"
        x, value, tail = lines[1].split(",")
        assert x == "10"
        assert tail == "0.01"
        assert 0.98 <= float(value) <= 1.0

    def test_spherical_small_x_returns(self, capsys):
        # tau = x^-2 = 400 used to stall the scalar truncation loop
        code, out, err = run_cli(capsys, "cdf", "--law", "spherical-h", "--grid", "0.05:0.05:1")
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["x,cdf", "0.05,0"]

    def test_spherical_below_the_overflow_of_x_to_the_minus_2(self, capsys):
        # x^-2 overflowed here, and the command exited 2
        code, out, err = run_cli(capsys, "cdf", "--law", "spherical-h", "--grid", "1e-300:1e-299:2")
        assert (code, out, err) == (0, "x,cdf\n1e-300,0\n1e-299,0\n", "")

    def test_product_alpha_passthrough(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--law", "product-alpha", "--alpha", "1", "--grid", "1:1:1"
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == limit_laws.product_law_cdf(1.0, 1.0).value

    def test_product_alpha_underflow_prints_zeros(self, capsys):
        # Phi_alpha <= Phi, which is 0 in double precision on this grid;
        # these points used to exit 4
        code, out, err = run_cli(
            capsys, "cdf", "--law", "product-alpha", "--alpha", "1e-6", "--grid", "0.5:0.9:5"
        )
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["x,cdf", "0.5,0", "0.6,0", "0.7,0", "0.8,0", "0.9,0"]

    def test_product_alpha_zeros_past_the_term_cap(self, capsys):
        # alpha = 1e-14 needs ~10^7 factors here; the cap certificate shows
        # the value is 0 (this grid used to exit 4)
        code, out, err = run_cli(
            capsys, "cdf", "--law", "product-alpha", "--alpha", "1e-14", "--grid", "0.5:1:3"
        )
        assert code == 0
        assert err == ""
        assert out.splitlines() == ["x,cdf", "0.5,0", "0.75,0", "1,0"]

    def test_json_single_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--law", "gumbel", "--grid", "0:1:3", "--format", "json"
        )
        assert code == 0
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["law"] == "gumbel"
        assert len(doc["x"]) == 3
        assert len(doc["cdf"]) == 3
        assert doc["cdf"][0] == math.exp(-1.0)

    def test_auto_law_rejected(self, capsys):
        code, out, err = run_cli(capsys, "cdf", "--law", "auto", "--grid", "0:1:2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_grid_rejected(self, capsys):
        assert run_cli(capsys, "cdf", "--law", "gumbel", "--grid", "1:0:5")[0] == 2
        assert run_cli(capsys, "cdf", "--law", "gumbel", "--grid", "0:1:0")[0] == 2
        assert run_cli(capsys, "cdf", "--law", "gumbel", "--grid", "nope")[0] == 2

    def test_unknown_law_rejected_at_parse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cdf", "--law", "nope", "--grid", "0:0:1"])
        assert excinfo.value.code == 2

    def test_nonconvergence_exit_code(self, capsys):
        # alpha this small needs ~10^7 product factors, far past the term cap,
        # at x = 1.0000003 (Gaussian argument t = 6), where the cdf is near 1
        code, out, err = run_cli(
            capsys, "cdf", "--law", "product-alpha", "--alpha", "1e-14",
            "--grid", "1.0000003:1.0000003:1",
        )
        assert code == 4
        assert err.startswith("error:")


class TestCmdSample:
    def test_deterministic_bytes(self, capsys):
        argv = ("sample", "--ensemble", "spherical", "--n", "100",
                "--reps", "10", "--seed", "7")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "replicate,raw,normalized"
        assert len(lines) == 11

    def test_worker_count_invariance_bytes(self, capsys):
        base = ("sample", "--ensemble", "spherical", "--n", "50",
                "--reps", "40", "--seed", "3", "--workers")
        _, serial, _ = run_cli(capsys, *base, "1")
        _, parallel, _ = run_cli(capsys, *base, "8")
        assert serial == parallel

    def test_default_workers_bytes(self, capsys):
        # without --workers the run uses every CPU, as run_monte_carlo does;
        # 3000 replicates are past the line below which a run stays serial
        base = ("sample", "--ensemble", "product", "--n", "20", "--k", "2",
                "--reps", "3000", "--seed", "5")
        _, default, _ = run_cli(capsys, *base)
        _, serial, _ = run_cli(capsys, *base, "--workers", "1")
        assert default == serial

    def test_product_log_radius_comment(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--ensemble", "product", "--n", "6", "--k", "1",
            "--reps", "5", "--seed", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# raw=log_radius"
        assert lines[1] == "replicate,raw,normalized"

    def test_truncated_raw_support(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--ensemble", "truncated", "--n", "10", "--p", "5",
            "--reps", "20", "--seed", "2",
        )
        assert code == 0
        raws = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(raws) == 20
        assert all(0.0 <= r <= 1.0 for r in raws)

    def test_budget_excess_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--ensemble", "spherical", "--n", "1000000",
            "--reps", "1000000", "--seed", "0",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_nan_budget_exit_code(self, capsys):
        # NaN passed the <= 0 test and then every budget comparison
        code, out, err = run_cli(
            capsys, "sample", "--ensemble", "spherical", "--n", "5",
            "--reps", "3", "--seed", "0", "--budget", "nan",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECRAD_SEED", "7")
        _, from_env, _ = run_cli(
            capsys, "sample", "--ensemble", "spherical", "--n", "20", "--reps", "5"
        )
        monkeypatch.delenv("SPECRAD_SEED")
        _, explicit, _ = run_cli(
            capsys, "sample", "--ensemble", "spherical", "--n", "20", "--reps", "5",
            "--seed", "7",
        )
        assert from_env == explicit

    def test_env_seed_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECRAD_SEED", "abc")
        code, _, err = run_cli(
            capsys, "sample", "--ensemble", "spherical", "--n", "20", "--reps", "5"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "batch.csv"
        code, out, _ = run_cli(
            capsys, "sample", "--ensemble", "spherical", "--n", "20", "--reps", "5",
            "--seed", "4", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,raw,normalized"
        assert len(lines) == 6

    def test_missing_p_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--ensemble", "truncated", "--n", "10",
            "--reps", "5", "--seed", "0",
        )
        assert code == 2
        assert "--p" in err


class TestCmdKs:
    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "ks", "--ensemble", "spherical", "--n", "30",
            "--reps", "400", "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ensemble"] == {"family": "spherical", "n": 30}
        assert doc["law"] == "spherical-h"
        assert doc["reps"] == 400
        assert doc["seed"] == 5
        assert set(doc["ks"]) == {"statistic", "location", "critical_005"}
        batch = stats.normalized_batch(Spherical(30), 400, 5, SPHERICAL_H)
        report = stats.ks_statistic(batch, stats.law_cdf_fn(SPHERICAL_H))
        assert doc["ks"]["statistic"] == report.statistic
        assert doc["ks"]["location"] == report.location
        assert doc["runtime_ms"] >= 0.0

    def test_auto_law_for_balanced_product(self, capsys):
        code, out, _ = run_cli(
            capsys, "ks", "--ensemble", "product", "--n", "100", "--k", "100",
            "--reps", "50", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["law"] == "product-alpha"
        assert doc["alpha"] == 1.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "ks", "--ensemble", "spherical", "--n", "20",
            "--reps", "100", "--seed", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ensemble,law,reps,seed,statistic,location,critical_005,runtime_ms"
        fields = lines[1].split(",")
        assert fields[0] == "spherical"
        assert fields[1] == "spherical-h"
        assert float(fields[4]) <= 1.0

    def test_reproducible_apart_from_runtime(self, capsys):
        argv = ("ks", "--ensemble", "spherical", "--n", "25",
                "--reps", "200", "--seed", "9")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("runtime_ms")
        b.pop("runtime_ms")
        assert a == b

    @pytest.mark.parametrize("argv", [
        # the law was taken and the regime dropped: KS 0.0665912554278984,
        # as with --regime small-k
        ("ks", "--ensemble", "product", "--n", "400", "--k", "1", "--regime", "large-k",
         "--law", "gumbel", "--reps", "300", "--seed", "1", "--format", "csv"),
        ("ks", "--ensemble", "spherical", "--n", "50", "--regime", "large-k",
         "--reps", "200", "--seed", "1"),
        ("converge", "--ensemble", "spherical", "--n-list", "10,20", "--regime", "large-k",
         "--reps", "20", "--seed", "1"),
    ], ids=["ks-law-against-regime", "ks-spherical", "converge-spherical"])
    def test_regime_is_not_dropped(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("n, k, regime, law", [
        ("400", "1", "small-k", ("gumbel",)),
        ("10", "10", "proportional", ("product-alpha", "--alpha", "1")),
        ("4", "64", "large-k", ("normal",)),
    ])
    def test_explicit_law_of_the_regime_is_auto(self, capsys, n, k, regime, law):
        base = ("ks", "--ensemble", "product", "--n", n, "--k", k, "--regime", regime,
                "--reps", "100", "--seed", "1", "--format", "csv")
        code, explicit, _ = run_cli(capsys, *base, "--law", *law)
        assert code == 0
        assert _blank_runtime(explicit) == _blank_runtime(run_cli(capsys, *base)[1])


class TestCmdConverge:
    def test_single_element_matches_ks(self, capsys):
        _, ks_out, _ = run_cli(
            capsys, "ks", "--ensemble", "spherical", "--n", "30",
            "--reps", "400", "--seed", "5",
        )
        code, conv_out, _ = run_cli(
            capsys, "converge", "--ensemble", "spherical", "--n-list", "30",
            "--reps", "400", "--seed", "5", "--format", "json",
        )
        assert code == 0
        ks_doc = json.loads(ks_out)
        conv_doc = json.loads(conv_out)
        assert len(conv_doc["rows"]) == 1
        assert conv_doc["rows"][0]["n"] == 30
        assert conv_doc["rows"][0]["ks"] == ks_doc["ks"]["statistic"]

    def test_spherical_ladder_strictly_decreasing(self, capsys):
        # seed 3 at 4000 reps: the drops clear the sampling noise floor
        code, out, _ = run_cli(
            capsys, "converge", "--ensemble", "spherical",
            "--n-list", "20,200,2000", "--reps", "4000", "--seed", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ks,critical_005,runtime_ms"
        ks = [float(line.split(",")[1]) for line in lines[1:]]
        assert ks[0] > ks[1] > ks[2]

    def test_truncated_p_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--ensemble", "truncated", "--n-list", "20",
            "--p-ratio", "0.5", "--reps", "50", "--seed", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["law"] == "gumbel"

    def test_product_k_rules(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--ensemble", "product", "--n-list", "10",
            "--k-rule", "fixed:1", "--reps", "30", "--seed", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["law"] == "product-alpha"
        code, _, err = run_cli(
            capsys, "converge", "--ensemble", "product", "--n-list", "10",
            "--k-rule", "bogus", "--reps", "30", "--seed", "0",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_list_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "converge", "--ensemble", "spherical", "--n-list", "20,x",
            "--reps", "10", "--seed", "0",
        )
        assert code == 2
        assert err.startswith("error:")
        code, _, _ = run_cli(
            capsys, "converge", "--ensemble", "spherical", "--n-list", ",",
            "--reps", "10", "--seed", "0",
        )
        assert code == 2


class TestCmdNorming:
    def test_truncated_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "norming", "--ensemble", "truncated", "--n", "101", "--p", "26"
        )
        assert code == 0
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc["pre_transform"] == "identity"
        assert doc["c_n"] == 0.5
        assert set(doc) == {"pre_transform", "shift", "scale", "a_n", "b_n", "c_n", "y"}

    def test_product_small_k_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "norming", "--ensemble", "product", "--n", "1000", "--k", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pre_transform"] == "log_space"
        assert doc["alpha_n"] == math.sqrt(1000.0 * math.log(1000.0))
        expected_beta = (math.log(1000.0) - math.log(math.log(1000.0))
                         - 0.5 * math.log(2.0 * math.pi))
        assert doc["beta_n"] == expected_beta
        assert doc["log_multiplier"] == 2.0

    def test_product_large_k_scale_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "norming", "--ensemble", "product", "--n", "50", "--k", "2500",
            "--regime", "large-k",
        )
        assert code == 0
        assert "3.5355339059327378" in out
        doc = json.loads(out)
        assert doc["scale"] == 0.5 * math.sqrt(50.0)
        assert "psi_n" in doc

    def test_spherical_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "norming", "--ensemble", "spherical", "--n", "9"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scale"] == 3.0
        assert doc["sqrt_n"] == 3.0
        assert doc["shift"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "norming", "--ensemble", "spherical", "--n", "4",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pre_transform,shift,scale,sqrt_n"
        assert lines[1] == "identity,0,2,2"

    def test_regime_needs_product_ensemble(self, capsys):
        code, _, err = run_cli(
            capsys, "norming", "--ensemble", "spherical", "--n", "10",
            "--regime", "large-k",
        )
        assert code == 2
        assert err.startswith("error:")


# one small invocation per subcommand and format, with its exact stdout;
# runtime_ms is blanked to "_", as the only value that moves between runs
FROZEN_STDOUT = [
    (("cdf", "--law", "spherical-h", "--grid", "2:4:3", "--with-tail"),
     "x,cdf,tail\n"
     "2,0.7564184437374903,0.25\n"
     "3,0.889515751105502,0.1111111111111111\n"
     "4,0.9376159760615851,0.0625\n"),
    (("cdf", "--law", "product-alpha", "--alpha", "1", "--grid", "2:4:3", "--with-tail",
      "--format", "json"),
     '{"law": "product-alpha", "x": [2.0, 3.0, 4.0], '
     '"cdf": [0.9684312706774286, 0.9963940714309517, 0.9994574398164863], '
     '"tail": [0.048575985214909134, 0.004778427546941793, 0.00067984994979592]}\n'),
    (("sample", "--ensemble", "product", "--n", "6", "--k", "2", "--reps", "3", "--seed", "1"),
     "# raw=log_radius\n"
     "replicate,raw,normalized\n"
     "0,1.8795957109707766,1.0918093145973617\n"
     "1,1.6591509107153593,0.8758078525474605\n"
     "2,1.8343728846054677,1.0435344025105193\n"),
    (("sample", "--ensemble", "truncated", "--n", "10", "--p", "5", "--reps", "3", "--seed", "2",
      "--format", "json"),
     '{"ensemble": {"family": "truncated", "n": 10, "p": 5}, "seed": 2, "reps": 3, '
     '"raw_unit": "radius", '
     '"raw": [0.7602422463536173, 0.5689240715457567, 0.7583398150802252], '
     '"normalized": [0.6578303460203381, -1.563008727478103, 0.6357467477901247]}\n'),
    (("ks", "--ensemble", "spherical", "--n", "20", "--reps", "50", "--seed", "2",
      "--format", "csv"),
     "ensemble,law,reps,seed,statistic,location,critical_005,runtime_ms\n"
     "spherical,spherical-h,50,2,0.15165582277802603,1.3940918146919927,"
     "0.19205020177026633,_\n"),
    (("ks", "--ensemble", "product", "--n", "10", "--k", "10", "--reps", "50", "--seed", "1"),
     '{"ensemble": {"family": "product", "n": 10, "k": 10}, "law": "product-alpha", '
     '"reps": 50, "seed": 1, "ks": {"statistic": 0.09558919174885494, '
     '"location": 0.937641975615581, "critical_005": 0.19205020177026633}, '
     '"runtime_ms": _, "alpha": 1.0}\n'),
    (("converge", "--ensemble", "truncated", "--n-list", "10,20", "--reps", "30", "--seed", "0"),
     "n,ks,critical_005,runtime_ms\n"
     "10,0.1531596030028443,0.2479357443640052,_\n"
     "20,0.11280719401373898,0.2479357443640052,_\n"),
    (("converge", "--ensemble", "product", "--n-list", "10,20", "--k-rule", "ratio:0.5",
      "--reps", "30", "--seed", "0", "--format", "json"),
     '{"ensemble": "product", "law": "product-alpha", "reps": 30, "seed": 0, "rows": ['
     '{"n": 10, "ks": 0.15327219333199116, "critical_005": 0.2479357443640052, '
     '"runtime_ms": _}, '
     '{"n": 20, "ks": 0.12672080590020263, "critical_005": 0.2479357443640052, '
     '"runtime_ms": _}]}\n'),
    (("norming", "--ensemble", "truncated", "--n", "101", "--p", "26", "--format", "csv"),
     "pre_transform,shift,scale,a_n,b_n,c_n,y\n"
     "identity,0.53094442421235655,0.0230911103674501,0.71463086595688208,"
     "0.5332663514613869,0.5,33.666666666666664\n"),
    (("norming", "--ensemble", "product", "--n", "50", "--k", "2500"),
     '{"pre_transform": "log_space", "shift": 0, "scale": 1, "alpha": 50, '
     '"log_multiplier": 1, "log_shift": 4890.0287567851828}\n'),
]

FROZEN_IDS = [f"{command}-{fmt}" for command in ("cdf", "sample", "ks", "converge", "norming")
              for fmt in ("csv", "json")]


def _blank_runtime(text):
    text = re.sub(r'"runtime_ms": [^,}]+', '"runtime_ms": _', text)
    lines = text.split("\n")
    if lines[0].endswith(",runtime_ms"):
        lines[1:] = [line.rsplit(",", 1)[0] + ",_" if line else line for line in lines[1:]]
    return "\n".join(lines)


class TestFrozenBytes:
    @pytest.mark.parametrize("argv, expected", FROZEN_STDOUT, ids=FROZEN_IDS)
    def test_stdout(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert _blank_runtime(out) == expected

    @pytest.mark.parametrize("argv, expected", FROZEN_STDOUT, ids=FROZEN_IDS)
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out, err) == (0, "", "")
        assert _blank_runtime(path.read_bytes().decode("utf-8")) == expected

    @pytest.mark.parametrize("argv, exit_code", [
        (("cdf", "--law", "auto", "--grid", "0:1:2"), 2),
        (("converge", "--ensemble", "product", "--n-list", "10", "--k-rule", "bogus",
          "--reps", "30", "--seed", "0"), 2),
        (("sample", "--ensemble", "spherical", "--n", "1000000", "--reps", "1000000",
          "--seed", "0"), 3),
        (("cdf", "--law", "product-alpha", "--alpha", "1e-14",
          "--grid", "1.0000003:1.0000003:1"), 4),
    ], ids=["cdf-2", "converge-2", "sample-3", "cdf-4"])
    def test_failure_creates_no_output_file(self, capsys, tmp_path, argv, exit_code):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (exit_code, "")
        assert err.startswith("error:")
        assert not path.exists()
