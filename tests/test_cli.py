"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from storagebid.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_SOLVER,
    config_from_mapping,
    load_config,
    main,
    parse_config_text,
    read_bids_csv,
)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

HOURLY_CFG = """\
variant = restriction
fcr_block_len = 4
da_block_len = 1
x_min = -50
x_max = 50
y_min = 10
y_max = 90
eta_c = 0.92
eta_d = 0.92
dt_hours = 1.0
K = 24
budget_kind = total_budget
gamma = 2.0
time_limit = 60
gap_target = 0.1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(HOURLY_CFG)
    return str(p)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    assert main(["synth", "--out", str(root), "--seed", "5", "--days", "2",
                 "--gamma", "2.0"]) == EXIT_OK
    return str(root)


class TestConfigParsing:
    def test_comments_and_blanks(self):
        raw = parse_config_text("# hi\n\nK = 4  # trailing\ndt_hours=1\n")
        assert raw == {"K": "4", "dt_hours": "1"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("K = 4\nK = 5\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_mapping({"K": "4", "dt_hours": "1", "zap": "1"})

    @pytest.mark.parametrize(
        "line", ["country = DE", "backend = /usr/bin/true", "symmetric = true",
                 "limited_arbitrage_mode = per_block", "exclude_dst = false"],
        ids=["country", "backend", "symmetric", "limited_arbitrage_mode",
             "exclude_dst"])
    def test_country_key_rejected(self, line):
        raw = parse_config_text(HOURLY_CFG + line + "\n")
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping(raw)

    def test_bad_bool_rejected(self):
        raw = parse_config_text(HOURLY_CFG + "day_coupling = maybe\n")
        with pytest.raises(ConfigError, match="bad value"):
            config_from_mapping(raw)

    def test_full_config_load(self, cfg_file):
        cfg = load_config(cfg_file)
        assert cfg.grid.K == 24
        assert cfg.options.variant == "restriction"
        assert cfg.budget.gamma == 2.0

    def test_override_variant(self, cfg_file):
        cfg = load_config(cfg_file, {"variant": "relaxation"})
        assert cfg.options.variant == "relaxation"

    def test_readme_config_block_loads(self):
        with open(README, encoding="utf-8") as f:
            text = f.read()
        after = text.split("Configs are plain `key = value` files:", 1)[1]
        block = after.split("```", 2)[1]
        cfg = config_from_mapping(parse_config_text(block))
        assert cfg.options.variant == "restriction"
        assert cfg.grid.K == 24
        assert cfg.budget.gamma == 2.0

    def test_readme_quick_start_block_runs(self):
        with open(README, encoding="utf-8") as f:
            text = f.read()
        after = text.split("## Library quick start", 1)[1]
        block = after.split("```python", 1)[1].split("```", 1)[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        value, t_star = map(float, out.getvalue().splitlines()[0].split())
        # the README's comment: 1.53 kWh at t = 1.6 h
        assert value == pytest.approx(1.53, abs=1e-9)
        assert t_star == pytest.approx(1.6, abs=1e-9)

    def test_empty_horizon_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(HOURLY_CFG.replace("K = 24", "K = 0"))
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestBuildCommand:
    def test_manifest_counts_restriction_k96(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(HOURLY_CFG.replace("dt_hours = 1.0", "dt_hours = 0.25")
                     .replace("K = 24", "K = 96")
                     .replace("fcr_block_len = 4", "fcr_block_len = 16")
                     .replace("da_block_len = 1", "da_block_len = 4")
                     .replace("gamma = 2.0", "gamma = 2.75"))
        out = str(tmp_path / "model.mps")
        assert main(["build", "--config", str(p), "--out", out]) == EXIT_OK
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["n_binaries"] == 285
        assert manifest["variant"] == "restriction"
        assert os.path.getsize(out) > 0

    def test_manifest_restriction_k4_has_no_bilinear_rows(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(HOURLY_CFG.replace("K = 24", "K = 4")
                     .replace("gamma = 2.0", "gamma = 1.0"))
        out = str(tmp_path / "model.mps")
        assert main(["build", "--config", str(p), "--out", out]) == EXIT_OK
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["n_bilinear_rows"] == 0
        assert "n_bilinear_active" not in manifest
        assert "QCMATRIX" not in open(out).read()

    def test_manifest_bilinear_exact_k4(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(HOURLY_CFG.replace("K = 24", "K = 4")
                     .replace("variant = restriction", "variant = exact")
                     .replace("fcr_block_len = 4", "fcr_block_len = 4")
                     .replace("gamma = 2.0", "gamma = 1.0"))
        out = str(tmp_path / "model.lp")
        assert main(["build", "--config", str(p), "--out", out]) == EXIT_OK
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["n_bilinear_rows"] == 6  # K(K-1)/2
        assert manifest["format"] == "lp"

    def test_build_without_data_on_partial_blocks(self, tmp_path):
        # 5 hours end inside the second 4-hour FCR block; the zero prices
        # must still cover the horizon
        p = tmp_path / "exp.cfg"
        p.write_text(HOURLY_CFG.replace("K = 24", "K = 5")
                     .replace("fcr_block_len = 4\n", ""))
        out = str(tmp_path / "model.mps")
        assert main(["build", "--config", str(p), "--out", out]) == EXIT_OK
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["K"] == 5
        assert manifest["n_binaries"] == 12  # 3(K-1)

    @pytest.mark.parametrize("flag", [["--gap", "0.1"], ["--time-limit", "5"]],
                             ids=["gap", "time-limit"])
    def test_flags_build_ignores_are_rejected(self, cfg_file, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--config", cfg_file,
                  "--out", str(tmp_path / "m.mps")] + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--data-dir", "DATA"],
                                      ["--date", "2021-01-01"]],
                             ids=["data-dir", "date"])
    def test_data_flag_alone_is_a_config_error(self, cfg_file, tmp_path,
                                               flag):
        out = tmp_path / "m.mps"
        code = main(["build", "--config", cfg_file, "--out", str(out)] + flag)
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    def test_invalid_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense = 1\n")
        code = main(["build", "--config", str(p),
                     "--out", str(tmp_path / "m.mps")])
        assert code == EXIT_CONFIG


class TestSolveDayCommand:
    def test_solve_day_prints_and_writes(self, cfg_file, data_dir, tmp_path,
                                         capsys):
        out = str(tmp_path / "rec.json")
        code = main(["solve-day", "--config", cfg_file, "--data-dir",
                     data_dir, "--date", "2021-01-01", "--out", out])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "profit_total" in text
        assert "feasible" in text
        rec = json.load(open(out))
        assert abs(rec["profit_total"] - (rec["profit_fcr"]
                   + rec["profit_dayahead"]
                   + rec["profit_intraday"])) < 1e-9

    def test_arbitrage_day_names_the_split_path(self, tmp_path, data_dir,
                                                capsys):
        cfg = tmp_path / "arb.cfg"
        cfg.write_text(HOURLY_CFG.replace("variant = restriction",
                                          "variant = arbitrage_only\n"
                                          "fcr_enabled = false")
                       .replace("fcr_block_len = 4\n", ""))
        code = main(["solve-day", "--config", str(cfg), "--data-dir",
                     data_dir, "--date", "2021-01-01"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "solve path       split-lp" in lines
        assert any(line.startswith("gap              ") for line in lines)

    def test_infeasible_day_exit_code(self, tmp_path, data_dir, capsys):
        # a terminal floor above y_max leaves no feasible bid
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(HOURLY_CFG.replace("variant = restriction",
                                          "variant = arbitrage_only\n"
                                          "fcr_enabled = false\n"
                                          "terminal_soc_floor = 95")
                       .replace("fcr_block_len = 4\n", ""))
        code = main(["solve-day", "--config", str(cfg), "--data-dir",
                     data_dir, "--date", "2021-01-01"])
        assert code == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver error: ")

    def test_missing_date_exit_code(self, cfg_file, data_dir):
        code = main(["solve-day", "--config", cfg_file, "--data-dir",
                     data_dir, "--date", "1999-01-01"])
        assert code == EXIT_DATA

    def test_start_above_y_max_is_certified_from_the_clamp(
            self, cfg_file, data_dir, tmp_path, capsys):
        # the day is planned and replayed from y_max = 90, so the bids are
        # certified from there, not from the raw 95
        out = str(tmp_path / "rec.json")
        code = main(["solve-day", "--config", cfg_file, "--data-dir",
                     data_dir, "--date", "2021-01-01", "--y0", "95",
                     "--out", out])
        assert code == EXIT_OK
        assert json.load(open(out))["y0"] == 90.0
        check = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("worst-case check ")]
        assert check == [check[0]]
        assert check[0].startswith("worst-case check feasible ")


class TestBacktestCommand:
    def test_backtest_reports_and_rerun_identical(self, cfg_file, data_dir,
                                                  tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["backtest", "--config", cfg_file, "--data-dir",
                     data_dir, "--out", out1]) == EXIT_OK
        assert main(["backtest", "--config", cfg_file, "--data-dir",
                     data_dir, "--out", out2]) == EXIT_OK
        for name in ("records.jsonl", "summary.json", "series.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b


class TestVerifyCommand:
    EX1_CFG = """\
variant = restriction
x_min = -4
x_max = 4
y_min = 0
y_max = 1.4
eta_c = 0.85
eta_d = 0.85
dt_hours = 1.0
K = 2
budget_kind = total_budget
gamma = 1.0
initial_soc = 0.5
"""

    def _write(self, tmp_path, bids_rows):
        cfg = tmp_path / "ex1.cfg"
        cfg.write_text(self.EX1_CFG)
        bids = tmp_path / "bids.csv"
        bids.write_text("interval,x0_kw,x_up_kw,x_dn_kw\n"
                        + "\n".join(bids_rows) + "\n")
        return str(cfg), str(bids)

    def test_two_interval_bids_violate_tight_capacity(self, tmp_path,
                                                      capsys):
        cfg, bids = self._write(tmp_path,
                                ["1,1.0,0.0,2.5", "2,0.5,0.0,3.5"])
        code = main(["verify", "--config", cfg, "--bids", bids, "--y0", "0"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "infeasible" in text
        assert "soc_upper[2]" in text
        assert "worst-case signal" in text

    def test_zero_bids_feasible(self, tmp_path, capsys):
        cfg, bids = self._write(tmp_path, ["1,0,0,0", "2,0,0,0"])
        assert main(["verify", "--config", cfg, "--bids", bids]) == EXIT_OK
        assert "verdict: feasible" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--gap", "0.1"], ["--time-limit", "5"],
                                      ["--variant", "relaxation"]],
                             ids=["gap", "time-limit", "variant"])
    def test_flags_verify_ignores_are_rejected(self, tmp_path, flag):
        cfg, bids = self._write(tmp_path, ["1,0,0,0", "2,0,0,0"])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", cfg, "--bids", bids] + flag)
        assert exc.value.code == 2

    def test_bad_bids_file(self, tmp_path):
        cfg, bids = self._write(tmp_path, ["1,0,0,0"])  # missing interval 2
        assert main(["verify", "--config", cfg, "--bids", bids]) == EXIT_DATA

    @pytest.mark.parametrize("rows", [
        ["1,0,0,0", "1,0,0,0"],
        ["0,0,0,0", "1,0,0,0"],
        ["1,0,0,0", "3,0,0,0"],
        ["1,0,0,0", "1.5,0,0,0"],
    ], ids=["duplicate", "zero", "past-K", "fractional"])
    def test_bad_interval_column_is_a_data_error(self, tmp_path, capsys,
                                                 rows):
        cfg, bids = self._write(tmp_path, rows)
        assert main(["verify", "--config", cfg, "--bids", bids]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and bids in err

    def test_bids_path_that_cannot_be_opened_is_a_data_error(self, tmp_path,
                                                             capsys):
        cfg, _ = self._write(tmp_path, ["1,0,0,0", "2,0,0,0"])
        bids = tmp_path / "bids_dir"
        bids.mkdir()
        assert main(["verify", "--config", cfg, "--bids", str(bids)]) \
            == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bids) in err

    def test_missing_bids_file_is_a_data_error(self, tmp_path, capsys):
        cfg, bids = self._write(tmp_path, ["1,0,0,0", "2,0,0,0"])
        os.remove(bids)
        assert main(["verify", "--config", cfg, "--bids", bids]) == EXIT_DATA
        assert "missing data file" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1,nan,0,0", "1,0,inf,0",
                                     "1,0,0,x"])
    def test_unreadable_bid_value_is_a_data_error(self, tmp_path, capsys,
                                                  row):
        cfg, bids = self._write(tmp_path, [row, "2,0,0,0"])
        assert main(["verify", "--config", cfg, "--bids", bids]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and bids in err

    def test_read_bids_round_trip(self, tmp_path):
        cfg, bids = self._write(tmp_path, ["2,0.5,0.1,3.5", "1,1.0,0.2,2.5"])
        sched = read_bids_csv(bids, 2)
        np.testing.assert_array_equal(sched.x0, [1.0, 0.5])
        np.testing.assert_array_equal(sched.x_up, [0.2, 0.1])
        np.testing.assert_array_equal(sched.x_dn, [2.5, 3.5])

    def test_extra_columns_ignored(self, tmp_path):
        cfg, bids = self._write(tmp_path, ["2,0.5,0.1,3.5,late",
                                           "1,1.0,0.2,2.5,early"])
        sched = read_bids_csv(bids, 2)
        np.testing.assert_array_equal(sched.x0, [1.0, 0.5])
        np.testing.assert_array_equal(sched.x_dn, [2.5, 3.5])


class TestSynthCommand:
    def test_same_seed_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["synth", "--out", out, "--seed", "3", "--days",
                         "2"]) == EXIT_OK
        fa = open(os.path.join(a, "dayahead", "2021-01-01.csv"), "rb").read()
        fb = open(os.path.join(b, "dayahead", "2021-01-01.csv"), "rb").read()
        assert fa == fb

    def test_zero_spread_flat(self, tmp_path, capsys):
        out = str(tmp_path / "flat")
        assert main(["synth", "--out", out, "--seed", "1", "--days", "1",
                     "--spread", "0"]) == EXIT_OK
        import csv
        with open(os.path.join(out, "dayahead", "2021-01-01.csv")) as f:
            rows = list(csv.reader(f))[1:]
        prices = {r[1] for r in rows}
        assert len(prices) == 1
