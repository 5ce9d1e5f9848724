import hashlib
import json
from fractions import Fraction

import pytest

import rma_tse.acc
import rma_tse.cli
import rma_tse.oracles
from rma_tse.acc import IotseTable, acc_iotse_table
from rma_tse.asymptotic import (
    AsymptoticPoint,
    LevelWitness,
    OptimizerWitness,
    SweepSpec,
)
from rma_tse.cli import (
    _run_sweep,
    _workers,
    emit_sweep_csv,
    emit_table_json,
    parse_table_json,
    preset_sweeps,
    run,
)
from rma_tse.ensemble import EnsembleConfig, ensemble_table


class TestBasicCommands:
    def test_acc_prints_count(self, capsys):
        assert run(["acc", "--N", "3", "--ai", "2", "--ao", "1", "--b", "0"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_ensemble_infeasible_class_prints_zero(self, capsys):
        assert run(["ensemble", "--q", "2", "--K", "2", "--L", "1", "--a", "1", "--b", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_ensemble_fraction_output(self, capsys):
        assert run(["ensemble", "--q", "2", "--K", "2", "--L", "2", "--a", "1", "--b", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert Fraction(out) == ensemble_table(EnsembleConfig(2, 2, 2))[(1, 2)]

    def test_usage_error_missing_flag(self, capsys):
        assert run(["acc", "--N", "3"]) == 1

    def test_log_table_ceiling_exit_1(self, capsys):
        assert run(["acc-table", "--N", "513", "--mode", "log"]) == 1
        assert "log table" in capsys.readouterr().err

    def test_usage_error_range(self, capsys):
        assert run(["acc", "--N", "3", "--ai", "9", "--ao", "0", "--b", "0"]) == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestAsymCommands:
    def test_asym_point_output(self, capsys):
        code = run([
            "asym-point", "--q", "3", "--L", "2", "--alpha", "0.05", "--beta", "0.005",
            "--split", "fixed:0.5,0.5", "--grid-points", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("r=")
        assert "level2:" in out

    def test_asym_point_infeasible_exit_2(self, capsys):
        code = run([
            "asym-point", "--q", "2", "--L", "2", "--alpha", "0.1", "--beta", "3.0",
            "--grid-points", "5",
        ])
        assert code == 2

    def test_bad_split(self):
        code = run([
            "asym-point", "--q", "2", "--L", "2", "--alpha", "0.1", "--beta", "0.01",
            "--split", "fixed:0.9",
        ])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_asym_point_non_finite_exit_1(self, flag, bad, capsys):
        values = {"--alpha": "0.1", "--beta": "0.01", flag: bad}
        argv = ["asym-point", "--q", "3", "--L", "2", "--grid-points", "5"]
        for name, value in values.items():
            argv += [name, value]
        assert run(argv) == 1
        assert "not finite" in capsys.readouterr().err

    def test_grid_over_ceiling_exit_1(self, capsys):
        code = run([
            "asym-point", "--q", "3", "--L", "3", "--alpha", "0.1", "--beta", "0.01",
            "--grid-points", "60",
        ])
        assert code == 1
        assert "ceiling" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_asym_sweep_no_alpha_steps_exit_1(self, steps, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["asym-sweep", "--q", "3", "--L", "2", "--delta", "0.1",
                    "--alpha-steps", steps, "--out", str(out)]) == 1
        assert "--alpha-steps" in capsys.readouterr().err
        assert not out.exists()

    def test_asym_sweep_grid_over_ceiling_exit_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["asym-sweep", "--q", "3", "--L", "3", "--delta", "0.1", "--alpha-steps", "2",
                    "--grid-points", "60", "--out", str(out)]) == 1
        assert "ceiling" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--delta", "nan"], ["--delta", "0.1", "--alpha-max", "nan"]])
    def test_asym_sweep_non_finite_exit_1(self, args, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["asym-sweep", "--q", "3", "--L", "2", "--alpha-steps", "2",
                "--grid-points", "5", "--out", str(out)] + args
        assert run(argv) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_excludes_delta_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert run(["asym-sweep", "--preset", "fig4", "--delta", "0.3",
                    "--out-dir", str(out_dir)]) == 1
        assert "not allowed with argument --preset" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSweepCsv:
    ARGS = [
        "asym-sweep", "--q", "3", "--L", "2", "--delta", "0.1",
        "--alpha-min", "0.05", "--alpha-max", "0.1", "--alpha-steps", "2",
        "--split", "fixed:0.5,0.5", "--grid-points", "7",
    ]

    def test_csv_layout_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(self.ARGS + ["--out", str(out1)]) == 0
        assert run(self.ARGS + ["--out", str(out2)]) == 0
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0].startswith("# q=3 L=2 delta=0.1 split=fixed:0.5,0.5 grid=7")
        header = lines[1].split(",")
        assert header[:5] == ["alpha", "beta", "r", "r_clamped", "omega"]
        assert len(header) == 5 + 4 * 2
        assert len(lines) == 2 + 2
        for line in lines[2:]:
            assert len(line.split(",")) == 5 + 4 * 2

    def test_empty_rows_metadata_and_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        spec = SweepSpec(delta=0.1, alpha_grid=(0.1,), q=3, L=2, grid_points=33)
        emit_sweep_csv(spec, [], out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("#")

    def test_workers_do_not_change_bytes(self, tmp_path, monkeypatch):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        assert run(self.ARGS + ["--out", str(seq)]) == 0
        monkeypatch.setenv("TSE_THREADS", "2")
        assert run(self.ARGS + ["--out", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_grid_metadata_reports_reduced_resolution(self, tmp_path, monkeypatch):
        # Skip the optimizer: only the metadata line is under test here.
        monkeypatch.setattr(rma_tse.cli, "_run_sweep", lambda spec: [])
        out = tmp_path / "l4.csv"
        assert run([
            "asym-sweep", "--q", "3", "--L", "4", "--delta", "0.1", "--alpha-steps", "2",
            "--split", "fixed:1,0,0,0", "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0].endswith(" grid=27")

    def test_r_clamped_column(self, tmp_path):
        witness = OptimizerWitness(0.0, (LevelWitness(0.0, 0.0, 0.0, 0.0),) * 2)
        points = [AsymptoticPoint(0.01, 0.0, -0.5, witness)]
        out = tmp_path / "c.csv"
        spec = SweepSpec(delta=0.0, alpha_grid=(0.01,), q=3, L=2, grid_points=33)
        emit_sweep_csv(spec, points, out)
        row = out.read_text().splitlines()[2].split(",")
        assert row[2] == "-0.5" and row[3] == "0"

    def test_infeasible_rows_do_not_abort(self, tmp_path):
        out = tmp_path / "inf.csv"
        code = run([
            "asym-sweep", "--q", "3", "--L", "2", "--delta", "50",
            "--alpha-min", "0.02", "--alpha-max", "0.05", "--alpha-steps", "2",
            "--grid-points", "5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for line in lines[2:]:
            cells = line.split(",")
            assert cells[2] == "-inf" and cells[3] == "0"


class TestTableJson:
    def test_iotse_n1(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["acc-table", "--N", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "iotse"
        assert payload["entries"] == [
            {"key": [0, 0, 0], "value": "1"},
            {"key": [1, 0, 1], "value": "1"},
        ]

    def test_ensemble_contains_spot_value(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["ensemble-table", "--q", "2", "--K", "2", "--L", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "ensemble_tse"
        assert {"key": [1, 2], "value": "5"} in payload["entries"]

    def test_empty_table(self, tmp_path):
        out = tmp_path / "z.json"
        emit_table_json("iotse", {"N": 0}, {}, out)
        assert json.loads(out.read_text())["entries"] == []

    def test_round_trip_iotse(self, tmp_path):
        table = acc_iotse_table(4)
        out = tmp_path / "r.json"
        emit_table_json("iotse", {"N": 4, "mode": "exact"}, table.entries, out)
        kind, params, entries = parse_table_json(out.read_text())
        assert kind == "iotse" and params["N"] == 4
        assert entries == table.entries

    def test_round_trip_ensemble_fractions(self, tmp_path):
        table = ensemble_table(EnsembleConfig(2, 2, 2))
        out = tmp_path / "f.json"
        emit_table_json("ensemble_tse", {"q": 2}, table, out)
        _, _, entries = parse_table_json(out.read_text())
        assert entries == table

    def test_entries_sorted(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["acc-table", "--N", "5", "--out", str(out)]) == 0
        keys = [tuple(e["key"]) for e in json.loads(out.read_text())["entries"]]
        assert keys == sorted(keys)

    def test_log_table_round_trip(self, tmp_path):
        out = tmp_path / "log.json"
        assert run(["acc-table", "--N", "6", "--mode", "log", "--out", str(out)]) == 0
        kind, params, entries = parse_table_json(out.read_text())
        assert kind == "iotse" and params["mode"] == "log"
        assert entries == acc_iotse_table(6, "log").entries


class TestOracleCommand:
    def test_trellis(self, capsys):
        assert run(["oracle", "--which", "trellis", "--N", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["method"] == "trellis"
        assert len(payload["entries"]) == 2

    def test_graph(self, capsys):
        assert run(["oracle", "--which", "graph", "--q", "2", "--K", "2", "--L", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"key": [1, 2], "value": "5"} in payload["entries"]

    def test_missing_params(self):
        assert run(["oracle", "--which", "graph"]) == 1


class TestVerifyCommand:
    def test_quick_clean(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--quick", "--out", str(out)]) == 0
        assert "OK closed_form_vs_trellis" in capsys.readouterr().out
        assert json.loads(out.read_text())["mismatch_count"] == 0

    def test_mismatch_exit_3(self, capsys, monkeypatch):
        real = rma_tse.acc.acc_iotse_table

        def faulty(n, mode="exact"):
            table = real(n, mode)
            if n == 2:
                entries = dict(table.entries)
                entries[(0, 0, 0)] = 7
                return IotseTable(N=n, mode=mode, entries=entries)
            return table

        monkeypatch.setattr(rma_tse.acc, "acc_iotse_table", faulty)
        assert run(["verify", "--quick"]) == 3
        assert "MISMATCH" in capsys.readouterr().out

    def test_quick_bytes_pinned(self, capsys, tmp_path):
        # The same bytes the benchmark's full gate checks, at the quick limits.
        out = tmp_path / "report.json"
        assert run(["verify", "--quick", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "2b663d39d0041577d25fb6a9b944eb6973f646522a260efe9f2692db5d017e58"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d6095f1fd7ab04cf833f56f04cec44db8f5d26ca2363818c0191b1c1e1aba691"
        )

    def test_exhaustive_past_closed_range(self, capsys):
        assert run([
            "verify", "--n-closed", "5", "--n-exhaustive", "8", "--n-iowe", "4",
            "--n-rowsum", "4", "--closure-kmax", "1", "--closure-qmax", "1",
            "--closure-lmax", "1",
        ]) == 0
        assert "OK trellis_vs_exhaustive (604 keys)" in capsys.readouterr().out

    def test_exhaustive_cap_exit_1(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table past the exhaustive cap")

        monkeypatch.setattr(rma_tse.oracles, "trellis_dp_tables", unreachable)
        assert run(["verify", "--n-exhaustive", "13"]) == 1
        assert "exhaustive enumeration capped at N=12, got 13" in capsys.readouterr().err

    def test_quick_keeps_explicit_limits(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table past the exhaustive cap")

        monkeypatch.setattr(rma_tse.oracles, "trellis_dp_tables", unreachable)
        assert run(["verify", "--quick", "--n-exhaustive", "13"]) == 1
        assert "exhaustive enumeration capped at N=12, got 13" in capsys.readouterr().err

    def test_explicit_limit_refines_quick(self, capsys):
        assert run(["verify", "--quick", "--n-closed", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK closed_form_vs_trellis (58 keys)" in out
        assert "OK trellis_vs_exhaustive (604 keys)" in out  # the quick exhaustive limit

    @pytest.mark.parametrize("flag", [
        "--n-closed", "--n-exhaustive", "--n-iowe", "--n-rowsum",
        "--closure-kmax", "--closure-qmax", "--closure-lmax",
    ])
    def test_limit_below_one_exit_1(self, flag, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table for a limit below 1")

        monkeypatch.setattr(rma_tse.oracles, "trellis_dp_tables", unreachable)
        assert run(["verify", flag, "0"]) == 1
        assert "must be >= 1, got 0" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text("mode=log\n# comment line\n")
        assert run(["acc", "--config", str(cfg), "--N", "5", "--ai", "1", "--ao", "0", "--b", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.6094379124341003)  # ln 5

    def test_command_line_wins(self, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text("mode=log\n")
        assert run([
            "acc", "--config", str(cfg), "--N", "5", "--ai", "1", "--ao", "0", "--b", "1",
            "--mode", "exact",
        ]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_missing_config(self):
        assert run(["acc", "--config", "/nonexistent", "--N", "1", "--ai", "0", "--ao", "0", "--b", "0"]) == 1


class TestPresets:
    def test_preset_structure(self):
        fig4 = preset_sweeps("fig4")
        assert len(fig4) == 4
        deltas = [spec.delta for spec, _ in fig4]
        assert deltas == [0.0, 0.05, 0.1, 0.2]
        assert all(spec.split.fractions == (0.5, 0.5) for spec, _ in fig4)
        assert all(spec.q == 3 and spec.L == 2 for spec, _ in fig4)

        fig5 = preset_sweeps("fig5")
        assert [spec.split.fractions[0] for spec, _ in fig5] == [0.0, 0.25, 0.5, 0.75, 1.0]

        fig6 = preset_sweeps("fig6")
        assert [spec.q for spec, _ in fig6] == [2, 3, 4, 5]

        fig7 = preset_sweeps("fig7")
        assert [spec.L for spec, _ in fig7] == [2, 3, 4]
        for spec, name in fig7:
            assert spec.split.fractions[0] == 1.0
            assert name.endswith(".csv")


class TestWorkerCount:
    """The sweep worker cap, checked without starting any process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(rma_tse.cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(rma_tse.cli, "sweep", lambda spec: list(spec.alpha_grid))
        return created

    @staticmethod
    def spec(n_alphas):
        grid = tuple(0.01 * (i + 1) for i in range(n_alphas))
        return SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=2)

    def test_capped_by_cpus(self, monkeypatch):
        monkeypatch.setenv("TSE_THREADS", "100000")
        monkeypatch.setattr(rma_tse.cli.os, "cpu_count", lambda: 4)
        assert _workers(30) == 4
        monkeypatch.setattr(rma_tse.cli.os, "cpu_count", lambda: None)
        assert _workers(30) == 1

    def test_capped_by_jobs(self, monkeypatch, pools):
        monkeypatch.setenv("TSE_THREADS", "100000")
        monkeypatch.setattr(rma_tse.cli.os, "cpu_count", lambda: 64)
        assert _workers(3) == 3
        assert _run_sweep(self.spec(3)) == list(self.spec(3).alpha_grid)
        assert pools == [3]

    def test_single_job_runs_in_process(self, monkeypatch, pools):
        monkeypatch.setenv("TSE_THREADS", "8")
        monkeypatch.setattr(rma_tse.cli.os, "cpu_count", lambda: 8)
        assert _run_sweep(self.spec(1)) == [0.01]
        assert pools == []

    def test_bad_value_warns_and_uses_one(self, monkeypatch, capsys, pools):
        monkeypatch.setenv("TSE_THREADS", "lots")
        assert _run_sweep(self.spec(4)) == list(self.spec(4).alpha_grid)
        assert pools == []
        assert "TSE_THREADS='lots'" in capsys.readouterr().err

    def test_nonpositive_means_one(self, monkeypatch):
        for raw in ("0", "-3"):
            monkeypatch.setenv("TSE_THREADS", raw)
            assert _workers(10) == 1
