import json

import pytest

from koopman_dh.cli import main


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

    def test_data_too_short_exit_3(self, capsys, tmp_path):
        # q + 1 = 4 values fill one window but leave no successor for it
        path = tmp_path / "short.csv"
        path.write_text("1\n3\n2\n6\n")
        code, _, err = run(
            capsys, "edmd", "--p", "7", "--m", "3", "--q", "3", "--data", str(path)
        )
        assert code == 3
        assert str(path) in err


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

    def test_json_sequence_input(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps([0, 1, 2, 0, 1, 2, 0, 1, 2]))
        report = run_json(capsys, "complexity", "--sequence", str(path))
        assert report["complexity_rational"] == 3

    def test_malformed_json_sequence_exit_3(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text('{"not": "a list"}')
        code, _, _ = run(capsys, "complexity", "--sequence", str(path))
        assert code == 3

    def test_requires_one_source(self, capsys):
        code, _, _ = run(capsys, "complexity")
        assert code == 2


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
        ],
    )
    def test_malformed_config_shape_exit_3(self, capsys, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 3
        assert str(path) in err

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

    def test_underparameterized_q_policy(self, capsys, tmp_path):
        cfg_path, out_path = self.write_config(tmp_path, q_policy=1, primes=[7])
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        record = json.loads(out_path.read_text())["records"][0]
        assert record["edmd"]["under_parameterized"] is True
        assert record["edmd"]["residual_is_zero"] is False


class TestExitCode4:
    def test_oracle_disagreement_exits_4(self, capsys, monkeypatch):
        # force the oracle to disagree to exercise the consistency gate
        monkeypatch.setattr("koopman_dh.cli.discrete_log_bruteforce", lambda c, params: -1)
        code, _, err = run(capsys, "recover", "--p", "7", "--m", "3", "--c", "4")
        assert code == 4
        assert "internal consistency" in err


class TestFloatFormatting:
    def test_match_errors_have_15_significant_digits(self, capsys):
        report = run_json(capsys, "recover", "--p", "7", "--m", "3", "--c", "4")
        for entry in report["per_eigenvalue"]:
            value = entry["match_error"]
            assert value == float(f"{value:.15g}")
