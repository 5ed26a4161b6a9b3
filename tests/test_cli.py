import contextlib
import dataclasses
import hashlib
import json
import os
import random
import re
import sys

import pytest

from koopman_dh.cli import main
from koopman_dh.edmd import compare_on_values, dataset_from_values, edmd_fit, max_state_error

# the least number whose primality koopman_dh.dynamics.is_prime refuses to decide
PSI_13 = 3317044064679887385961981


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSimulate:
    def test_example_p7(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", "7", "--m", "3", "--steps", "6")
        assert code == 0
        assert out.split() == ["1", "3", "2", "6", "4", "5", "1"]

    def test_zero_steps(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", "5", "--m", "2", "--steps", "0")
        assert code == 0
        assert out.split() == ["1"]

    def test_non_generator_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--p", "7", "--m", "2", "--steps", "3")
        assert code == 2
        assert "primitive root" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", "--p", "7", "--m", "3", "--steps", "6", "--out", str(path)
        )
        assert code == 0
        assert path.read_text().split() == ["1", "3", "2", "6", "4", "5", "1"]

    def test_out_in_missing_directory_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "traj.csv"
        code, out, err = run(
            capsys, "simulate", "--p", "7", "--m", "3", "--steps", "6", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert str(path) in err


class TestVerifyTheorem:
    def test_single_p23(self, capsys):
        report = run_json(capsys, "verify-theorem", "--primes", "23")
        assert report["rows"] == [
            {"p": 23, "m": 5, "minimal_dimension": 12, "expected_dimension": 12, "match": True}
        ]

    def test_range_smallest_roots(self, capsys):
        report = run_json(capsys, "verify-theorem", "--primes", "5..61")
        assert report["all_match"]
        assert [r["p"] for r in report["rows"]] == [
            5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        ]

    def test_p3_skipped_with_note(self, capsys):
        report = run_json(capsys, "verify-theorem", "--primes", "3..7")
        assert {"p": 3, "reason": "requires p > 3"} in report["skipped"]
        assert [r["p"] for r in report["rows"]] == [5, 7]

    def test_all_generators(self, capsys):
        report = run_json(capsys, "verify-theorem", "--primes", "7", "--generators", "all")
        assert [(r["p"], r["m"]) for r in report["rows"]] == [(7, 3), (7, 5)]

    @pytest.mark.parametrize("primes", ["", "9..8", "8..10", "5..x", "x", "5,y", "4", "4,9", "2..3"])
    def test_primes_selecting_nothing_exit_2(self, capsys, primes):
        code, out, err = run(capsys, "verify-theorem", "--primes", primes)
        assert code == 2
        assert out == ""
        assert "--primes" in err

    def test_range_past_the_primality_bound_exit_2(self, capsys):
        code, out, err = run(capsys, "verify-theorem", "--primes", f"{PSI_13}..{PSI_13}")
        assert code == 2
        assert out == ""
        assert "primality is decided only below" in err

    def test_out_in_missing_directory_exit_2_before_work(self, capsys, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("the work ran before the report path was checked")

        monkeypatch.setattr("koopman_dh.cli.minimal_lifting_dimension", fail)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify-theorem", "--primes", "5..199", "--out", str(path))
        assert code == 2
        assert out == ""
        assert f"cannot write report {path}: [Errno 2] No such file or directory" in err
        assert not path.parent.exists()
        # a path that names no file: empty, a directory, or ending in a separator
        for named in ("", str(tmp_path), str(tmp_path) + os.sep, "./"):
            code, out, err = run(capsys, "verify-theorem", "--primes", "5..199", "--out", named)
            assert (code, out) == (2, "")
            assert f"cannot write report {named!r}: the path names no file" in err


class TestRecover:
    def test_example_c4(self, capsys):
        report = run_json(capsys, "recover", "--p", "7", "--m", "3", "--c", "4")
        assert report["e_recovered"] == 4
        assert report["parity"] == "even"
        assert report["oracle_match"] is True

    def test_c1_full_period_parity_unavailable(self, capsys):
        report = run_json(capsys, "recover", "--p", "5", "--m", "2", "--c", "1")
        assert report["e_recovered"] == 4
        assert report["parity"] == "unavailable"

    def test_self_test_mode(self, capsys):
        report = run_json(capsys, "recover", "--p", "23", "--m", "5", "--e", "17")
        assert report["e_recovered"] == 17
        assert report["oracle_match"] is True

    def test_parity_only(self, capsys):
        report = run_json(capsys, "recover", "--p", "7", "--m", "3", "--c", "5", "--parity-only")
        assert report["parity"] == "odd"
        assert "e_recovered" not in report

    @pytest.mark.parametrize("e", ["0", "7", "-3", "13"])
    def test_exponent_outside_range_exit_2(self, capsys, e):
        code, out, err = run(capsys, "recover", "--p", "7", "--m", "3", "--e", e)
        assert code == 2
        assert out == ""
        assert "[1, p-1]" in err

    @pytest.mark.parametrize("c", ["0", "7"])
    @pytest.mark.parametrize("parity_only", [False, True])
    def test_ciphertext_outside_range_exit_2_before_work(self, capsys, monkeypatch, c, parity_only):
        calls = []
        monkeypatch.setattr("koopman_dh.cli._spectral_start", lambda params: calls.append(params))
        argv = ["recover", "--p", "7", "--m", "3", "--c", c] + ["--parity-only"] * parity_only
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "c must lie in [1, p-1]" in err
        assert calls == []

    def test_requires_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "recover", "--p", "7", "--m", "3")
        assert code == 2
        code, _, _ = run(capsys, "recover", "--p", "7", "--m", "3", "--c", "4", "--e", "2")
        assert code == 2


class TestSharedSecret:
    def test_example_p7(self, capsys):
        report = run_json(
            capsys, "shared-secret", "--p", "7", "--m", "3", "--c-e", "2", "--c-d", "5"
        )
        assert (report["secret"], report["e"], report["d"]) == (4, 2, 5)
        assert report["verified"] is True

    def test_example_p5(self, capsys):
        report = run_json(
            capsys, "shared-secret", "--p", "5", "--m", "2", "--c-e", "3", "--c-d", "4"
        )
        assert report["secret"] == 4

    def test_trivial(self, capsys):
        report = run_json(
            capsys, "shared-secret", "--p", "7", "--m", "3", "--c-e", "3", "--c-d", "3"
        )
        assert (report["secret"], report["e"], report["d"]) == (3, 1, 1)


class TestEdmd:
    def test_exact_fit(self, capsys):
        report = run_json(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--n", "7"
        )
        assert report["entrywise_equal"] is True
        assert report["residual_is_zero"] is True
        assert report["assumption_holds"] is True
        assert report["rank_z"] == 4

    def test_orbit_compared_over_one_period(self, capsys, monkeypatch):
        # one period of windows is every window of the orbit
        from koopman_dh import cli

        horizons = []

        def spy(fitted, alpha, values, horizon):
            horizons.append(horizon)
            return compare_on_values(fitted, alpha, values, horizon)

        monkeypatch.setattr(cli, "compare_on_values", spy)
        report = run_json(capsys, "edmd", "--p", "23", "--m", "5", "--q", "11", "--n", "12")
        assert report["prediction_equivalent"] is True
        assert horizons == [22]

    def test_underparameterized_flagged(self, capsys):
        report = run_json(
            capsys, "edmd", "--p", "23", "--m", "5", "--q", "5", "--n", "22"
        )
        assert report["under_parameterized"] is True
        assert report["residual_is_zero"] is False

    def test_data_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("".join(f"{v}\n" for v in [1, 3, 2, 6, 4, 5, 1, 3, 2, 6, 4]))
        report = run_json(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert report["residual_is_zero"] is True

    def test_data_below_threshold_fits_the_file(self, capsys, tmp_path):
        # 1..10 obeys x_{k+2} = 2 x_{k+1} - x_k; no orbit of 3 mod 7 does
        path = tmp_path / "ramp.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, 11)))
        report = run_json(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "1", "--data", str(path)
        )
        assert report["under_parameterized"] is True
        assert report["residual_is_zero"] is True
        assert report["max_state_error"] == {"num": "0", "den": "1"}
        assert report["operator"]["matrix"] == [
            [{"num": "0", "den": "1"}, {"num": "1", "den": "1"}],
            [{"num": "-1", "den": "1"}, {"num": "2", "den": "1"}],
        ]

    def test_data_prediction_check_uses_the_file(self, capsys, tmp_path):
        # cubes obey the order-4 recurrence of (x - 1)^4: the fit predicts
        # the file exactly but is not the canonical companion of p = 7
        path = tmp_path / "cubes.csv"
        path.write_text("".join(f"{k**3}\n" for k in range(1, 13)))
        report = run_json(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert report["assumption_holds"] is True
        assert report["residual_is_zero"] is True
        assert report["entrywise_equal"] is False
        assert report["prediction_equivalent"] is True

    def test_data_breaking_rank_law_is_reported(self, capsys, tmp_path):
        path = tmp_path / "ramp.csv"
        path.write_text("".join(f"{v}\n" for v in range(1, 11)))
        report = run_json(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert report["assumption_holds"] is False
        assert report["rank_z"] == 2
        assert "rank(Z) = 2" in report["note"]

    def test_simulated_rank_law_violation_exit_4(self, capsys, monkeypatch):
        from koopman_dh import cli
        from koopman_dh.edmd import RankLawViolation

        def broken(dataset, p):
            raise RankLawViolation("rank(Z) = 3 but the data-richness condition forces 4")

        monkeypatch.setattr(cli, "check_assumption", broken)
        code, _, err = run(capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--n", "7")
        assert code == 4
        assert "rank(Z) = 3" in err

    def test_malformed_data_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\nnot-an-int\n")
        code, _, err = run(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert code == 3
        assert "integer" in err

    def test_undecodable_data_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1\n\xff\n")
        code, _, err = run(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert code == 3
        assert str(path) in err

    def test_data_too_short_exit_3(self, capsys, tmp_path):
        # q + 1 = 4 values fill one window but leave no successor for it
        path = tmp_path / "short.csv"
        path.write_text("1\n3\n2\n6\n")
        code, _, err = run(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert code == 3
        assert str(path) in err

    def test_data_too_short_for_n_exit_3(self, capsys, tmp_path):
        # three periods of the p = 23 orbit are 66 values; 100 pairs at q = 11 need 112
        path = tmp_path / "orbit.csv"
        path.write_text("".join(f"{pow(5, k, 23)}\n" for k in range(66)))
        argv = ("edmd", "--p", "23", "--m", "5", "--q", "11", "--data", str(path))
        code, _, err = run(capsys, *argv, "--n", "100")
        assert code == 3
        assert str(path) in err and "need at least 112" in err
        assert run(capsys, *argv, "--n", "54")[0] == 0  # 54 pairs use all 66 values
        assert run(capsys, *argv, "--n", "55")[0] == 3
        # a non-positive --n is a bad parameter, not bad data
        assert run(capsys, *argv, "--n", "0")[0] == 2


def int_str_limit():
    """CPython's int-string digit limit, or None on builds without one."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def no_int_str_limit():
    """The int-string digit limit lifted for the block, then restored."""
    limit = int_str_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestIntegersPastTheStringLimit:
    """Data and reports with integers of more than 4300 digits."""

    def test_large_data_reports_its_state_error(self, capsys, tmp_path):
        # the under-parameterized error of 60 values in +-10^30 has a
        # numerator of over 10^4 digits
        rng = random.Random(30)
        values = [rng.randint(-(10**30), 10**30) for _ in range(60)]
        path = tmp_path / "large.csv"
        path.write_text("".join(f"{v}\n" for v in values))
        limit = int_str_limit()
        report = run_json(
            capsys, "edmd", "--p", "37", "--m", "2", "--q", "3", "--n", "9", "--data", str(path)
        )
        assert int_str_limit() == limit  # main restores the limit
        assert report["under_parameterized"] is True
        want = max_state_error(edmd_fit(dataset_from_values(values, 3, 9)), values, 59)
        got = report["max_state_error"]
        assert len(got["num"]) > 4300
        with no_int_str_limit():
            assert (got["num"], got["den"]) == (str(want.numerator), str(want.denominator))

    def test_value_past_the_limit_is_read(self, capsys, tmp_path):
        # a ramp on a 5000-digit offset obeys x_{k+2} = 2 x_{k+1} - x_k
        path = tmp_path / "ramp.csv"
        with no_int_str_limit():
            path.write_text("".join(f"{10**5000 + k}\n" for k in range(10)))
        report = run_json(capsys, "edmd", "--p", "7", "--m", "3", "--q", "1", "--data", str(path))
        assert report["residual_is_zero"] is True
        assert report["max_state_error"] == {"num": "0", "den": "1"}


class TestComplexity:
    def test_dh_comparison(self, capsys):
        report = run_json(capsys, "complexity", "--p", "7", "--m", "3")
        assert (report["lfsr_length"], report["koopman_dimension"]) == (4, 4)
        assert report["equal"] is True

    def test_sequence_file_example1(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("".join(f"{v}\n" for v in (0, 1, 2) * 3))
        report = run_json(capsys, "complexity", "--sequence", str(path), "--field-prime", "3")
        assert report["complexity_rational"] == 3
        assert report["complexity_prime_field"]["length"] == 2

    def test_sequence_file_affine_with_expected(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        terms = [1, 4, 10, 22, 46, 94, 190, 382, 766, 1534]
        path.write_text("".join(f"{v}\n" for v in terms))
        report = run_json(
            capsys, "complexity", "--sequence", str(path), "--expected", "51"
        )
        assert report["complexity_rational"] == 2
        assert report["matches_expected"] is False
        assert "not reproducible" in report["note"]

    def test_negative_expected_length_exit_2_before_work(self, capsys, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("Berlekamp-Massey ran before --expected was checked")

        monkeypatch.setattr("koopman_dh.cli.berlekamp_massey", fail)
        path = tmp_path / "seq.csv"
        path.write_text("1\n4\n10\n22\n46\n")
        code, out, err = run(capsys, "complexity", "--sequence", str(path), "--expected", "-1")
        assert code == 2
        assert out == ""
        assert "--expected must be nonnegative, got -1" in err

    def test_json_sequence_input(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps([0, 1, 2, 0, 1, 2, 0, 1, 2]))
        report = run_json(capsys, "complexity", "--sequence", str(path))
        assert report["complexity_rational"] == 3

    @pytest.mark.parametrize("field_prime", ["0", "4", "-7"])
    def test_field_prime_not_prime_exit_2(self, capsys, tmp_path, field_prime):
        path = tmp_path / "seq.csv"
        path.write_text("0\n1\n2\n0\n1\n2\n")
        code, out, err = run(
            capsys, "complexity", "--sequence", str(path), "--field-prime", field_prime
        )
        assert code == 2
        assert out == ""
        assert "must be prime" in err

    def test_field_prime_at_61_bits(self, capsys, tmp_path):
        # 2^61 - 1, where trial division would run for minutes
        p = 2305843009213693951
        path = tmp_path / "seq.csv"
        path.write_text("1\n4\n10\n22\n46\n")
        report = run_json(capsys, "complexity", "--sequence", str(path), "--field-prime", str(p))
        assert report["complexity_prime_field"] == {"p": p, "length": 2, "connection": [3, p - 2]}

    def test_field_prime_past_the_primality_bound_exit_2(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("1\n4\n10\n22\n46\n")
        code, out, err = run(
            capsys, "complexity", "--sequence", str(path), "--field-prime", str(PSI_13)
        )
        assert code == 2
        assert out == ""
        assert "primality is decided only below" in err

    def test_malformed_json_sequence_exit_3(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text('{"not": "a list"}')
        code, _, _ = run(capsys, "complexity", "--sequence", str(path))
        assert code == 3

    @pytest.mark.parametrize("name", ["seq.csv", "seq.json"])
    def test_undecodable_sequence_exit_3(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"[1, \xff]" if name.endswith(".json") else b"1\n\xff\n")
        code, _, err = run(capsys, "complexity", "--sequence", str(path))
        assert code == 3
        assert str(path) in err

    def test_requires_one_source(self, capsys):
        code, _, _ = run(capsys, "complexity")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--field-prime", "5"), "--field-prime"),
            (("--expected", "99"), "--expected"),
            (("--field-prime", "5", "--expected", "99"), "--field-prime"),
        ],
    )
    def test_sequence_flags_with_p_exit_2_before_work(self, capsys, monkeypatch, flags, named):
        def fail(*args):
            raise AssertionError("the comparison ran before the flags were checked")

        monkeypatch.setattr("koopman_dh.cli.compare_koopman_vs_lfsr", fail)
        code, out, err = run(capsys, "complexity", "--p", "7", "--m", "3", *flags)
        assert code == 2
        assert out == ""
        assert f"{named} applies only with --sequence" in err

    @pytest.mark.parametrize("m", [[], ["--m", "3"]])
    def test_empty_sequence_path_selects_the_sequence_mode(self, capsys, m):
        # an empty path is a missing file (exit 3), not the --p mode
        code, out, err = run(capsys, "complexity", "--sequence", "", *m)
        assert code == (2 if m else 3)
        assert out == ""
        assert ("--m applies only with --p" if m else "cannot read") in err

    def test_m_with_sequence_exit_2_before_work(self, capsys, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("the sequence was read before the flags were checked")

        monkeypatch.setattr("koopman_dh.cli.read_integer_series", fail)
        path = tmp_path / "seq.csv"
        path.write_text("0\n1\n2\n0\n1\n2\n")
        code, out, err = run(capsys, "complexity", "--sequence", str(path), "--m", "3")
        assert code == 2
        assert out == ""
        assert "--m applies only with --p" in err


CONFIG = {
    "primes": [5, 7],
    "generators": "smallest",
    "q_policy": "q_tilde",
    "exponent_sweep": {"sample": 3},
    "seed": 71,
}


class TestSweep:
    def write_config(self, tmp_path, **overrides):
        cfg = dict(CONFIG)
        cfg.update(overrides)
        cfg["output"] = {"path": str(tmp_path / "report.json"), "format": "json"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, tmp_path / "report.json"

    def test_sweep_runs_and_validates(self, capsys, tmp_path):
        cfg_path, out_path = self.write_config(tmp_path)
        code, out, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema_version"] == 1
        assert [r["p"] for r in report["records"]] == [5, 7]
        for record in report["records"]:
            assert record["dimension_match"]
            assert record["recovery_all_match"]
            assert record["edmd"]["entrywise_equal"]
            assert record["complexity"]["equal"]

    def test_deterministic_modulo_wall_clock(self, capsys, tmp_path):
        import re

        cfg_path, out_path = self.write_config(tmp_path)
        run(capsys, "sweep", "--config", str(cfg_path))
        first = out_path.read_bytes()
        run(capsys, "sweep", "--config", str(cfg_path))
        second = out_path.read_bytes()
        strip = lambda raw: re.sub(rb'"wall_clock_s": [^\n]*\n', b"", raw)
        assert strip(first) == strip(second)

    def test_env_var_overrides_output_dir(self, capsys, tmp_path, monkeypatch):
        cfg_path, out_path = self.write_config(tmp_path)
        override = tmp_path / "elsewhere"
        override.mkdir()
        monkeypatch.setenv("KOOPMAN_DH_OUT_DIR", str(override))
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        assert not out_path.exists()
        assert (override / "report.json").exists()

    def test_csv_format(self, capsys, tmp_path):
        cfg_path, _ = self.write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["output"] = {"path": str(tmp_path / "report.csv"), "format": "csv"}
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("p,m,q,minimal_dimension")
        assert len(lines) == 3

    def test_malformed_config_exit_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "config",
        [
            {"primes": [5], "output": "x.json"},
            {"primes": [5], "generators": 3},
            {"primes": [5], "exponent_sweep": {"every": 2}},
            {"primes": [5], "q_policy": 2.5},
            {"primes": [5], "q_policy": True},
            {"primes": [5], "q_policy": "foo"},
            {"primes": [5], "generators": [None]},
            {"primes": [5], "exponent_sweep": {"sample": None}},
            {"primes": [5.5]},
            {"primes": ["7"]},
            {"primes": ["x"]},
            {"primes": [True]},
            {"primes": []},
            {"primes": [5], "seed": "abc"},
            {"primes": [5], "seed": 2.9},
            {"primes": [5], "seed": True},
            {"primes": "5..x"},
            {"primes": "x,7"},
            {"primes": [5], "generators": []},
        ],
    )
    def test_malformed_config_shape_exit_3(self, capsys, tmp_path, monkeypatch, config):
        monkeypatch.chdir(tmp_path)  # a config that is wrongly accepted writes report.json
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 3
        assert str(path) in err
        named = [key for key in config if key != "primes"] or ["primes"]
        assert all(f"'{key}'" in err for key in named)

    def test_undecodable_config_exit_3(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"primes": [5], "seed": "\xff"}')
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 3
        assert str(path) in err

    def test_non_string_output_path_exit_3(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": [5], "output": {"path": 7}}))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 3
        assert "'output.path'" in err

    @pytest.mark.parametrize("fmt", [7, ["json"], None])
    def test_non_string_output_format_exit_3(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": [5], "output": {"format": fmt}}))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 3
        assert "'output.format'" in err
        assert not (tmp_path / "report.json").exists()

    def test_output_path_in_missing_directory_exit_2(self, capsys, tmp_path, monkeypatch):
        def fail(cfg):
            raise AssertionError("the sweep ran before the report path was checked")

        monkeypatch.setattr("koopman_dh.cli.run_sweep", fail)
        monkeypatch.delenv("KOOPMAN_DH_OUT_DIR", raising=False)
        cfg_path, _ = self.write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["output"]["path"] = str(tmp_path / "missing" / "report.json")
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert f"cannot write report {cfg['output']['path']}: [Errno 2]" in err
        assert not (tmp_path / "missing").exists()
        # the same for a missing $KOOPMAN_DH_OUT_DIR
        monkeypatch.setenv("KOOPMAN_DH_OUT_DIR", str(tmp_path / "gone"))
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert str(tmp_path / "gone" / "report.json") in err
        # an output path that names no file, alone or under $KOOPMAN_DH_OUT_DIR
        for out_dir, named in (("", ""), ("", "./"), ("", str(tmp_path)), (str(tmp_path), "")):
            monkeypatch.setenv("KOOPMAN_DH_OUT_DIR", out_dir)
            cfg["output"]["path"] = named
            cfg_path.write_text(json.dumps(cfg))
            code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
            assert (code, out) == (2, "")
            assert "the path names no file" in err

    @pytest.mark.parametrize("primes", ["90..96", "4..4", "13..11"])
    def test_range_selecting_no_prime_exit_2(self, capsys, tmp_path, monkeypatch, primes):
        monkeypatch.chdir(tmp_path)  # a config that is wrongly accepted writes report.json
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": primes}))
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert (code, out) == (2, "")
        assert f"config primes {primes!r} selects no prime" in err
        assert not (tmp_path / "report.json").exists()

    def test_invalid_prime_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": [4], "output": {"path": "x.json"}}))
        code, _, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 2

    def test_q_outside_range_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"primes": [7], "q_policy": 6, "output": {"path": "x.json"}})
        )
        code, _, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "primes,exponents", [([7], [0, 3]), ([7], [7]), ([13, 7], [1, 8]), ([7], [-2])]
    )
    def test_explicit_exponent_outside_range_exit_2(self, capsys, tmp_path, primes, exponents):
        cfg_path, out_path = self.write_config(tmp_path, primes=primes, exponent_sweep=exponents)
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert "outside [1, p-1] for p=7" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "generators,message",
        [([2], "2 is not a primitive root mod 223"), ([2, 224], "m must lie in [2, p-1], got 224")],
        ids=["non-generator", "out-of-range"],
    )
    def test_explicit_generator_checked_before_any_case(
        self, capsys, tmp_path, monkeypatch, generators, message
    ):
        # 2 generates the group mod every listed prime but the last, 223
        from koopman_dh import cli
        from koopman_dh.dynamics import is_primitive_root

        calls = []

        def spy(params, q, exponents):
            calls.append(params.p)
            return real(params, q, exponents)

        real = cli._sweep_case
        monkeypatch.setattr(cli, "_sweep_case", spy)
        primes = [p for p in range(5, 198) if cli.is_prime(p) and is_primitive_root(2, p)]
        cfg_path, out_path = self.write_config(
            tmp_path,
            primes=primes + [223],
            generators=generators,
            q_policy="p_minus_2",
            exponent_sweep="all",
        )
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert message in err
        assert calls == []
        assert not out_path.exists()

    @pytest.mark.parametrize("q_policy", ["q_tilde", 1])
    def test_negative_sample_exit_2(self, capsys, tmp_path, q_policy):
        cfg_path, out_path = self.write_config(
            tmp_path, q_policy=q_policy, exponent_sweep={"sample": -1}
        )
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert "exponent_sweep sample -1 is negative" in err
        assert not out_path.exists()

    def test_minimal_dimension_computed_once_per_case(self, capsys, tmp_path, monkeypatch):
        from koopman_dh import complexity, lifting

        calls = []

        def counted(params, traj=None):
            calls.append(params.p)
            return lifting.minimal_lifting_dimension(params, traj)

        monkeypatch.setattr(complexity, "minimal_lifting_dimension", counted)
        monkeypatch.setattr("koopman_dh.cli.minimal_lifting_dimension", counted)
        cfg_path, _ = self.write_config(tmp_path)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        assert calls == [5, 7]

    def test_full_length_q_policy_uses_index_lookup(self, capsys, tmp_path):
        cfg_path, out_path = self.write_config(
            tmp_path, q_policy="p_minus_2", primes=[7], exponent_sweep="all"
        )
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        record = json.loads(out_path.read_text())["records"][0]
        assert record["recovery_all_match"]
        assert all(r["method"] == "index-lookup" for r in record["recovery"])
        assert "eigenvalue_turns" not in record

    def test_explicit_lists_run_ascending_once_each(self, capsys, tmp_path):
        # records come ordered by (p, m, e) whatever order the config lists them in;
        # the manifest echoes the config as given
        cfg_path, out_path = self.write_config(
            tmp_path, primes=[7], generators=[5, 3, 5], exponent_sweep=[4, 2, 2]
        )
        code, out, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        assert out == f"wrote {out_path} with 2 records\n"
        report = json.loads(out_path.read_text())
        assert [r["m"] for r in report["records"]] == [3, 5]
        for record in report["records"]:
            assert [r["e"] for r in record["recovery"]] == [2, 4]
            assert record["recovery_all_match"]
        assert report["manifest"]["config"]["generators"] == [5, 3, 5]
        assert report["manifest"]["config"]["exponent_sweep"] == [4, 2, 2]

    def test_underparameterized_q_policy(self, capsys, tmp_path):
        cfg_path, out_path = self.write_config(tmp_path, q_policy=1, primes=[7])
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        record = json.loads(out_path.read_text())["records"][0]
        assert record["edmd"]["under_parameterized"] is True
        assert record["edmd"]["residual_is_zero"] is False

    def test_one_dataset_and_fit_per_edmd_block(self, capsys, tmp_path, monkeypatch):
        # the under-parameterized error reuses the block's dataset and fit
        from koopman_dh import edmd

        calls = []

        def counted(name, inner):
            def wrapper(*args):
                calls.append(name)
                return inner(*args)

            return wrapper

        for name in ("dataset_from_values", "edmd_fit"):
            wrapped = counted(name, getattr(edmd, name))
            monkeypatch.setattr(edmd, name, wrapped)
            monkeypatch.setattr(f"koopman_dh.cli.{name}", wrapped)
        report = run_json(capsys, "edmd", "--p", "7", "--m", "3", "--q", "1", "--n", "6")
        assert report["under_parameterized"] is True
        assert calls == ["dataset_from_values", "edmd_fit"]
        calls.clear()
        cfg_path, out_path = self.write_config(tmp_path, q_policy=1, primes=[7])
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        assert json.loads(out_path.read_text())["records"][0]["edmd"]["under_parameterized"]
        assert calls == ["dataset_from_values", "edmd_fit"]


class TestExitCode4:
    def test_report_is_written_before_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr("koopman_dh.cli.minimal_lifting_dimension", lambda params: 0)
        code, out, err = run(capsys, "verify-theorem", "--primes", "5,7")
        assert code == 4
        assert json.loads(out)["all_match"] is False
        assert "internal consistency failure" in err

    def test_oracle_disagreement_exits_4(self, capsys, monkeypatch):
        # force the oracle to disagree to exercise the consistency gate
        monkeypatch.setattr("koopman_dh.cli.discrete_log_bruteforce", lambda c, params: -1)
        code, _, err = run(capsys, "recover", "--p", "7", "--m", "3", "--c", "4")
        assert code == 4
        assert "internal consistency" in err


    @pytest.fixture
    def long_registers(self, monkeypatch):
        # every register comes out one longer than the lifted dimension
        from koopman_dh import complexity

        real = complexity.berlekamp_massey

        def longer(sample):
            result = real(sample)
            return dataclasses.replace(result, length=result.length + 1)

        monkeypatch.setattr(complexity, "berlekamp_massey", longer)

    def sweep_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("KOOPMAN_DH_OUT_DIR", raising=False)
        out_path = tmp_path / "report.json"
        cfg = {"primes": [7], "exponent_sweep": [1, 2], "output": {"path": str(out_path)}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        code, out, err = run(capsys, "sweep", "--config", str(tmp_path / "config.json"))
        assert out == f"wrote {out_path} with 1 records\n"
        return code, json.loads(out_path.read_text())["records"][0], err

    def test_register_disagreement_exits_4(self, capsys, long_registers):
        code, out, err = run(capsys, "complexity", "--p", "7", "--m", "3")
        assert code == 4
        assert json.loads(out)["equal"] is False
        assert "internal consistency failure" in err

    def test_sweep_register_disagreement_exits_4(
        self, capsys, tmp_path, monkeypatch, long_registers
    ):
        code, record, err = self.sweep_one(capsys, tmp_path, monkeypatch)
        assert code == 4
        assert record["complexity"]["equal"] is False
        assert record["dimension_match"] and record["recovery_all_match"]
        assert "internal consistency failure" in err

    def test_sweep_oracle_disagreement_exits_4(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("koopman_dh.cli.discrete_log_bruteforce", lambda c, params: -1)
        code, record, err = self.sweep_one(capsys, tmp_path, monkeypatch)
        assert code == 4
        assert record["recovery_all_match"] is False
        assert record["dimension_match"] and record["complexity"]["equal"]
        assert "internal consistency failure" in err


@pytest.mark.parametrize("p,m", [(5, 2), (7, 3), (13, 6), (23, 5), (37, 2)])
def test_commands_agree_with_the_sweep(capsys, tmp_path, monkeypatch, p, m):
    monkeypatch.delenv("KOOPMAN_DH_OUT_DIR", raising=False)
    out_path = tmp_path / "report.json"
    cfg = {
        "primes": [p],
        "generators": [m],
        "exponent_sweep": {"sample": 4},
        "output": {"path": str(out_path)},
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "config.json"))
    assert code == 0, err
    [record] = json.loads(out_path.read_text())["records"]
    assert record["q"] == (p - 1) // 2

    rows = run_json(capsys, "verify-theorem", "--primes", str(p), "--generators", "all")["rows"]
    [row] = [r for r in rows if r["m"] == m]
    head = ("p", "m", "minimal_dimension", "expected_dimension")
    assert {k: row[k] for k in head} == {k: record[k] for k in head}
    assert row["match"] is record["dimension_match"] is True

    register = run_json(capsys, "complexity", "--p", str(p), "--m", str(m))
    assert {k: register[k] for k in record["complexity"]} == record["complexity"]

    assert len(record["recovery"]) == 4
    for entry in record["recovery"]:
        report = run_json(capsys, "recover", "--p", str(p), "--m", str(m), "--e", str(entry["e"]))
        assert (report["e_recovered"], report["parity"]) == (entry["recovered"], entry["parity"])


class TestParser:
    def test_built_once(self):
        from koopman_dh import cli

        assert cli.build_parser() is cli.build_parser()


# --- golden report bytes -----------------------------------------------------

# a sweep's wall clock differs every run
UNPINNED_LINE = re.compile(r'^ *"wall_clock_s": [^\n]*\n', re.MULTILINE)
GOLDEN_FILES = {
    "ramp.csv": "".join(f"{v}\n" for v in range(1, 11)),
    "seq.csv": "".join(f"{v}\n" for v in (0, 1, 2) * 3),
    "seq.json": json.dumps([1, 4, 10, 22, 46, 94, 190, 382]),
    "mixed.json": json.dumps(
        {
            "primes": "5..11",
            "generators": "all",
            "q_policy": 3,
            "exponent_sweep": {"sample": 2},
            "output": {"path": "mixed.csv", "format": "csv"},
            "seed": 5,
        }
    ),
    "sweep.json": json.dumps(
        {
            "primes": [11, 5, 7, 5],
            "generators": "all",
            "exponent_sweep": [3, 1, 2],
            "output": {"path": "report.json", "extra": 1},
            "seed": 2,
            "unused": True,
        }
    ),
}
# (argv, file the report goes to or None for stdout, sha256 of stdout + "\0" + file)
GOLDEN = [
    (("simulate", "--p", "7", "--m", "3", "--steps", "12"), None,
     "ad9d6ad1b74920d017dfa40fab30a705c96300ec8a828329334c6dd1fd8c206e"),
    (("simulate", "--p", "23", "--m", "5", "--steps", "30", "--x0", "4", "--out", "sim.csv"),
     "sim.csv", "505574969958d0a21fc1d2d23beb4f3f18d8115d4e01555d3f8dcdc4abfb9399"),
    (("verify-theorem", "--primes", "2..61"), None,
     "e1048b318405aab25eee2170fe689b29c37797adbe2399f0bd48c6e41710b324"),
    (("verify-theorem", "--primes", "5,13,9", "--generators", "all", "--out", "vt.json"),
     "vt.json", "10a962ca455a27a79713c30241e9d616839fd1e583de80b441873ecf6cb4b7b4"),
    (("recover", "--p", "23", "--m", "5", "--c", "7"), None,
     "a589f567bc9680f548679e04037141485f9131fb862cc1997a1e1ce2d616370f"),
    (("recover", "--p", "13", "--m", "2", "--e", "12"), None,
     "d0f944a36f3a8b6e85f7ff3971230f5f07933d848755e45faefc087b04b01e86"),
    (("recover", "--p", "11", "--m", "2", "--c", "5", "--parity-only"), None,
     "07713367b659a504c497b29e2cca90f84e0451787e9c1b840c75ce4c66150688"),
    (("shared-secret", "--p", "23", "--m", "5", "--c-e", "10", "--c-d", "19"), None,
     "0e908b41524eea7ec5065f5e2ed25b611ab1d96ec14dedb96ebcd4efae3bb01a"),
    (("edmd", "--p", "7", "--m", "3", "--q", "3", "--n", "7"), None,
     "b52884fdf19aceb5405db015616ab3bdd256b8870a405417c1061a645e576396"),
    (("edmd", "--p", "11", "--m", "2", "--q", "9", "--n", "12", "--out", "ed.json"),
     "ed.json", "1acc89984816145f74e8eacb89df3baa428543b5785f597e82ee34a51823f2d0"),
    (("edmd", "--p", "23", "--m", "5", "--q", "5", "--n", "22"), None,
     "31d480d7961562f19e159a2d1a9960496ceef006b2ac0e4fa7761e8269ca908b"),
    (("edmd", "--p", "7", "--m", "3", "--q", "3", "--data", "ramp.csv"), None,
     "58172059f5cd096c54a824e67ba4be9656b29050252719e79715db949e9f8bda"),
    (("edmd", "--p", "7", "--m", "3", "--q", "1", "--data", "ramp.csv", "--n", "5"), None,
     "3e28df9005cea62de066289c896dbc8b5b6b1cde8ee9c9e381bbac097b44aa9f"),
    (("complexity", "--p", "23", "--m", "5"), None,
     "c295ddcc31b10799ffe531f38b564a3f5faf6bc051466f1c71828d7d90635b60"),
    (("complexity", "--sequence", "seq.csv", "--field-prime", "3", "--expected", "5"), None,
     "1558c241d98d65b58ab2667f377b4838f023649c3e37a21ffd2e73e250d9377b"),
    (("complexity", "--sequence", "seq.json", "--expected", "2"), None,
     "4fffca74cb359153774d56d6c41c14d2195995ce89814476550911b067a31ba1"),
    (("sweep", "--config", "mixed.json"), "mixed.csv",
     "b3508daf4b8115f824bb98d75fe35d3a9fcf3a3c3461896977137e8e364ebb12"),
    (("sweep", "--config", "sweep.json"), "report.json",
     "9cbea543a95ca96c859c81c5bda8250351b27b9c7eb52bebef60ba7c4473ab84"),
]


def golden_digest(capsys, argv, out_file) -> str:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    text = out + "\0"
    if out_file is not None:
        with open(out_file) as fh:
            text += fh.read()
    return hashlib.sha256(UNPINNED_LINE.sub("", text).encode()).hexdigest()


@pytest.mark.parametrize("argv,out_file,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv, out_file, digest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KOOPMAN_DH_OUT_DIR", raising=False)
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    assert golden_digest(capsys, argv, out_file) == digest
