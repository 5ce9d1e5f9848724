import hashlib
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rma_tse.acc
import rma_tse.asymptotic
import rma_tse.cli
import rma_tse.oracles
from rma_tse.acc import IotseTable, acc_iotse_table
from rma_tse.asymptotic import (
    AsymptoticPoint,
    LevelWitness,
    OptimizerWitness,
    SweepSpec,
    sweep,
)
from rma_tse.cli import (
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

    def test_asym_point_beta_one_level(self, capsys):
        # The first level takes every check, so its mu interval is one point;
        # refinement must move off its seed there, with no log(0) on the way.
        code = run([
            "asym-point", "--q", "2", "--L", "2", "--alpha", "1", "--beta", "1",
            "--split", "fixed:1,0",
        ])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert float(out.splitlines()[0].removeprefix("r=")) >= 0.296266  # random search

    def test_asym_point_infeasible_exit_2(self, capsys):
        code = run([
            "asym-point", "--q", "2", "--L", "2", "--alpha", "0.1", "--beta", "3.0",
            "--grid-points", "5",
        ])
        assert code == 2

    def test_asym_point_past_the_domain_exit_2(self, capsys):
        # alpha > 1/q + L and beta > L are infeasible, with no overflow on
        # the way (RuntimeWarnings are errors).
        code = run([
            "asym-point", "--q", "3", "--L", "2", "--alpha", "1e308", "--beta", "1e308",
            "--grid-points", "5",
        ])
        assert code == 2
        assert capsys.readouterr().err == "infeasible query: no admissible witness\n"

    def test_bad_split(self):
        code = run([
            "asym-point", "--q", "2", "--L", "2", "--alpha", "0.1", "--beta", "0.01",
            "--split", "fixed:0.9",
        ])
        assert code == 1

    @pytest.mark.parametrize("split, message", [
        ("fixed:0.5,x", "bad split specification 'fixed:0.5,x'"),
        ("even", "split must be 'free' or 'fixed:f1,f2,...', got 'even'"),
    ])
    def test_split_text_exit_1(self, split, message, capsys):
        assert run(["asym-point", "--q", "2", "--L", "2", "--alpha", "0.1", "--beta", "0.01",
                    "--split", split]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("points", ["1", "0", "-5"])
    def test_grid_points_below_2_exit_1(self, points, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["asym-sweep", "--delta", "0.1", "--grid-points", points,
                    "--out", str(out)]) == 1
        assert f"grid_points must be >= 2, got {points}" in capsys.readouterr().err
        assert not out.exists()
        assert run(["asym-point", "--q", "3", "--L", "2", "--alpha", "0.1", "--beta", "0.01",
                    "--grid-points", points]) == 1
        assert f"grid_points must be >= 2, got {points}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--delta", "nan"], ["--delta", "0.1", "--alpha-max", "nan"]])
    def test_asym_sweep_non_finite_exit_1(self, args, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["asym-sweep", "--q", "3", "--L", "2", "--alpha-steps", "2",
                "--grid-points", "5", "--out", str(out)] + args
        assert run(argv) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--alpha-steps", "1", "--alpha-max", "nan"], "--alpha-max=nan is not finite"),
        (["--alpha-min", "0.1", "--alpha-max", "inf", "--alpha-steps", "3"],
         "--alpha-max=inf is not finite"),
        (["--alpha-min=-inf", "--alpha-steps", "2"], "--alpha-min=-inf is not finite"),
    ])
    def test_alpha_end_non_finite_names_flag_exit_1(self, args, message, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["asym-sweep", "--delta", "0.1", "--grid-points", "5", "--out", str(out)] + args
        assert run(argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_asym_sweep_one_alpha_step(self, capsys):
        assert run(["asym-sweep", "--delta", "0.1", "--alpha-min", "0.05", "--alpha-max", "0.2",
                    "--alpha-steps", "1", "--grid-points", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 1 and rows[0].startswith("0.05,0.005,")

    def test_asym_sweep_alpha_from_zero_past_one(self, capsys):
        # alpha takes the query's rule, [0, 1/q + L]: the rows are r_point's.
        assert run(["asym-sweep", "--q", "3", "--L", "2", "--delta", "0.1", "--alpha-min", "0",
                    "--alpha-max", "1.5", "--alpha-steps", "6", "--grid-points", "9"]) == 0
        grid = rma_tse.cli._alpha_grid(0.0, 1.5, 6)
        spec = SweepSpec(delta=0.1, alpha_grid=grid, q=3, L=2, grid_points=9)
        want = io.StringIO()
        emit_sweep_csv(spec, [rma_tse.asymptotic.r_point(query, grid_points=9)
                              for query in spec.queries], want)
        assert capsys.readouterr().out == want.getvalue()

    def test_asym_sweep_overflowing_beta_exit_1(self, capsys):
        assert run(["asym-sweep", "--delta", "1e308", "--alpha-min", "0.5", "--alpha-max", "2",
                    "--alpha-steps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: beta = delta * alpha overflows at delta=1e+308, alpha=2.0\n"
        )

    def test_asym_sweep_ends_at_alpha_max_one(self, capsys):
        # The last grid point is 0.1 + 7 * (0.9 / 7) = 1.0000000000000002.
        assert run(["asym-sweep", "--q", "3", "--L", "1", "--delta", "0.1", "--alpha-min", "0.1",
                    "--alpha-max", "1.0", "--alpha-steps", "8", "--grid-points", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 8 and rows[-1].startswith("1,0.1,")

    @pytest.mark.parametrize("args, message", [
        (["--delta", "0.1", "--q", "0"], "q and L must be >= 1, got 0, 2"),
        (["--delta", "0.1", "--L", "0"], "q and L must be >= 1, got 3, 0"),
        (["--delta", "0.1", "--L", "3", "--split", "fixed:0.5,0.5"], "split has 2 fractions, L=3"),
        (["--delta", "0.1", "--out-dir", "{figs}"], "--out-dir needs --preset"),
        (["--delta", "0.1", "--out-dir={figs}", "--out", "{figs}.csv"], "--out-dir needs --preset"),
        (["--out-dir", "{figs}"], "--out-dir needs --preset"),
        ([], "asym-sweep needs --delta (or --preset)"),
    ])
    def test_asym_sweep_rejected_before_any_sweep_exit_1(self, args, message, tmp_path, capsys,
                                                         monkeypatch):
        def unreachable(spec):
            raise AssertionError("ran a sweep")

        monkeypatch.setattr(rma_tse.asymptotic, "sweep", unreachable)
        figs = tmp_path / "figs"
        argv = ["asym-sweep", "--alpha-steps", "2", "--grid-points", "5"]
        assert run(argv + [arg.format(figs=figs) for arg in args]) == 1
        assert message in capsys.readouterr().err
        assert not figs.exists() and not (tmp_path / "figs.csv").exists()

    def test_preset_excludes_delta_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert run(["asym-sweep", "--preset", "fig4", "--delta", "0.3",
                    "--out-dir", str(out_dir)]) == 1
        assert "not allowed with argument --preset" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--q", "7"), ("--L", "3"), ("--alpha-min", "0.05"), ("--alpha-max", "0.2"),
        ("--alpha-steps", "5"), ("--split", "free"), ("--grid-points", "9"), ("--out", "x.csv"),
    ])
    def test_preset_rejects_sweep_flags_exit_1(self, flag, value, tmp_path, capsys, monkeypatch):
        def unreachable(spec):
            raise AssertionError("ran a sweep")

        monkeypatch.setattr(rma_tse.asymptotic, "sweep", unreachable)
        out_dir = tmp_path / "figs"
        assert run(["asym-sweep", "--preset", "fig6", flag, value, "--out-dir", str(out_dir)]) == 1
        assert f"takes no {flag}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_preset_lists_typed_flags_once_in_order_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        assert run(["asym-sweep", "--preset", "fig4", "--L", "3", "--q", "7", "--L", "4",
                    "--out-dir", str(out_dir)]) == 1
        assert "it takes no --L, --q\n" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_asym_sweep_defaults(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(rma_tse.asymptotic, "sweep", lambda spec: ran.append(spec) or [])
        assert run(["asym-sweep", "--delta", "0.1"]) == 0
        (spec,) = ran
        assert (spec.delta, spec.q, spec.L, spec.split.describe()) == (0.1, 3, 2, "free")
        assert spec.grid_points == 33
        assert len(spec.alpha_grid) == 30
        assert (spec.alpha_grid[0], spec.alpha_grid[-1]) == pytest.approx((0.01, 0.3))
        assert capsys.readouterr().out.startswith("# q=3 L=2 delta=0.1 split=free grid=33\n")


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

    def test_grid_metadata_reports_reduced_resolution(self, tmp_path, monkeypatch):
        # Skip the optimizer: only the metadata line is under test here.
        monkeypatch.setattr(rma_tse.asymptotic, "sweep", lambda spec: [])
        out = tmp_path / "l4.csv"
        assert run([
            "asym-sweep", "--q", "3", "--L", "4", "--delta", "0.1", "--alpha-steps", "2",
            "--split", "fixed:1,0,0,0", "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0].endswith(" grid=27")

    @pytest.mark.parametrize("L, split, grid_points, grid", [
        (2, "fixed:1,0", None, 33),
        (4, "fixed:1,0,0,0", None, 27),
        (3, "free", None, 14),
        (2, "free", 15, 15),
    ])
    def test_grid_metadata_is_the_spec_grid(self, L, split, grid_points, grid):
        spec = SweepSpec(delta=0.1, alpha_grid=(0.1,), q=3, L=L,
                         split=rma_tse.cli._parse_split(split), grid_points=grid_points)
        out = io.StringIO()
        emit_sweep_csv(spec, [], out)
        assert spec.grid_points == grid
        assert out.getvalue().splitlines()[0].endswith(f" split={split} grid={grid}")

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


_TABLE_VALUES = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(),
    st.floats(allow_nan=False),
    st.sampled_from([1e-05, -2.5e-300, 1e16, -0.0]),
)
_TABLE_KEYS = st.one_of(
    st.tuples(st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
)


class TestTableWriter:
    """The direct writer makes the text of ``json.dumps(indent=2, sort_keys=True)``."""

    @staticmethod
    def _dumps(kind, params, entries):
        payload = {
            "kind": kind,
            "params": params,
            "entries": [
                {"key": list(key), "value": rma_tse.cli._value_str(value)}
                for key, value in sorted(entries.items())
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kind=st.text(max_size=8),
        params=st.dictionaries(st.text(max_size=6), st.one_of(st.text(max_size=6), st.integers()),
                               max_size=4),
        entries=st.dictionaries(_TABLE_KEYS, _TABLE_VALUES, max_size=12),
    )
    def test_matches_json_dumps(self, kind, params, entries):
        out = io.StringIO()
        emit_table_json(kind, params, entries, out)
        assert out.getvalue() == self._dumps(kind, params, entries)

    def test_empty_table_and_params(self):
        out = io.StringIO()
        emit_table_json("iotse", {}, {}, out)
        assert out.getvalue() == self._dumps("iotse", {}, {}) == (
            '{\n  "entries": [],\n  "kind": "iotse",\n  "params": {}\n}\n'
        )

    @pytest.mark.parametrize("size", [0, 1, rma_tse.cli._ENTRY_CHUNK, rma_tse.cli._ENTRY_CHUNK + 1])
    def test_chunk_boundaries(self, size, tmp_path):
        entries = {(i, i % 3): Fraction(i, 7) if i % 2 else i for i in range(size)}
        want = self._dumps("iotse", {"N": size}, entries)
        pieces = []

        class Recorder:
            write = pieces.append

        emit_table_json("iotse", {"N": size}, entries, Recorder())
        assert "".join(pieces) == want
        # No piece holds more than one chunk of entries.
        assert max(piece.count('"key"') for piece in pieces) == min(size, rma_tse.cli._ENTRY_CHUNK)
        out = tmp_path / "t.json"
        emit_table_json("iotse", {"N": size}, entries, str(out))
        assert out.read_bytes() == want.encode()

    def test_writer_memory(self):
        # Measured (tracemalloc peak, the StringIO's text included): 12.1 MiB
        # when the whole body was joined into one string, 6.5 MiB written in
        # chunks of entries.
        entries = acc_iotse_table(48).entries
        tracemalloc.start()
        try:
            emit_table_json("iotse", {"N": 48, "mode": "exact"}, entries, io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run(["acc-table", "--N", "7", "--mode", "log"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert run(["acc-table", "--N", "7", "--mode", "log", "--out", str(out)]) == 0
        assert out.read_bytes() == stdout

    @pytest.mark.parametrize("argv, digest", [
        (["acc-table", "--N", "48"],
         "ea78e4d5cb1ecdfa02cfb22f2149c2fa2d9930fd2830db04a0bf75b14385a239"),
        (["acc-table", "--N", "40", "--mode", "log"],
         "ad31d1a3365b96688833fe9f49be2f9085727638060c47f8fc128ee3b23496be"),
        (["ensemble-table", "--q", "2", "--K", "12", "--L", "2"],
         "d1c7b7e31de11b7ad4b4c5d81ade102c3f6c04a8827a85346254ac7c87d4edc4"),
        (["ensemble-table", "--q", "2", "--K", "10", "--L", "2", "--mode", "log"],
         "8445a15a9d622c535a24bb47ed84614fec5c8eefc544b832370ff50b06b257b1"),
    ])
    def test_benchmark_table_bytes_pinned(self, argv, digest, capsys):
        # The tables whose bytes the benchmark checks.
        assert run(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_benchmark_sweep_bytes_pinned(self, capsys):
        # The sweep CSV of the benchmark's figure workload.  Its witness cells
        # hold the optimizer's digits, so a search change that moves them
        # must be declared.
        assert run(["asym-sweep", "--q", "3", "--L", "2", "--delta", "0.1",
                    "--alpha-min", "0.02", "--alpha-max", "0.3", "--alpha-steps", "10",
                    "--split", "fixed:0.5,0.5"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "362133dc4a583c1fdefeeaebf18ce0504d72ac36faec0244393204e9e53ed9f9"
        )

    def test_fig7_l3_bytes_pinned(self, tmp_path):
        # An L=3 sweep: its refinement evaluates three levels per point, where
        # the sweep above evaluates two.
        (spec, name), = [job for job in preset_sweeps("fig7") if job[0].L == 3]
        emit_sweep_csv(spec, sweep(spec), str(tmp_path / name))
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == (
            "77170a438c13d7784ef98f27f4d8f9b93d256478c0a618be740d22f671cc2078"
        )


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

    @pytest.mark.parametrize("argv, message", [
        (["--which", "trellis"], "oracle --which trellis needs --N"),
        (["--which", "exhaustive", "--q", "2"], "oracle --which exhaustive needs --N"),
        (["--which", "graph", "--q", "2", "--K", "2"], "oracle --which graph needs --q --K --L"),
    ])
    def test_missing_params_named(self, argv, message, capsys):
        assert run(["oracle"] + argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, digest", [
        (["--which", "trellis", "--N", "10"],
         "fea5510e331b52bcdb595955980825c777d8ef6b3027cb7adaef8fe11ed6ecac"),
        (["--which", "trellis", "--N", "40"],
         "a5c77eccde304fe250b5a75e4b6854b5789a43897510ad5378bfe4b34c654f5c"),
        (["--which", "exhaustive", "--N", "12"],
         "524d24a0911aefe543e786ac48d8bb8280f57415af61a3c25667392ad6c015ed"),
        (["--which", "graph", "--q", "2", "--K", "2", "--L", "2"],
         "faa8eee45c77df52449f62ae994a7673e0916455998a287504fa8cf4cb21ebb6"),
    ])
    def test_bytes_pinned(self, argv, digest, capsys):
        assert run(["oracle", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_quick_clean(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--quick", "--out", str(out)]) == 0
        assert "OK closed_form_vs_trellis" in capsys.readouterr().out
        assert json.loads(out.read_text())["mismatch_count"] == 0

    def test_out_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        # "-" is stdout, as for the --out of every other command.
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--quick", "--out", "-"]) == 0
        assert not (tmp_path / "-").exists()
        lines, brace, report = capsys.readouterr().out.partition("{")
        assert lines and all(line.startswith("OK ") for line in lines.splitlines())
        assert json.loads(brace + report)["mismatch_count"] == 0

    def test_out_empty_exit_1(self, capsys):
        # An empty path is an I/O error, as for the --out of every other command.
        assert run(["verify", "--quick", "--out", ""]) == 1
        captured = capsys.readouterr()
        assert "OK closed_form_vs_trellis" in captured.out
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"

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

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
        assert run(["verify", "--n-exhaustive", "13"]) == 1
        assert "exhaustive enumeration capped at N=12, got 13" in capsys.readouterr().err

    def test_quick_keeps_explicit_limits(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table past the exhaustive cap")

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
        assert run(["verify", "--quick", "--n-exhaustive", "13"]) == 1
        assert "exhaustive enumeration capped at N=12, got 13" in capsys.readouterr().err

    def test_explicit_limit_refines_quick(self, capsys):
        assert run(["verify", "--quick", "--n-closed", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK closed_form_vs_trellis (58 keys)" in out
        assert "OK trellis_vs_exhaustive (604 keys)" in out  # the quick exhaustive limit

    @pytest.mark.parametrize("argv, message", [
        (["--quick", "--n-rowsum", "600"], "row-sum tables capped at N=512, got 600"),
        (["--closure-kmax", "30"], "closure tables capped at N=64, got 90"),
        (["--n-closed", "49"], "trellis DP capped at N=48, got 49"),
    ])
    def test_table_ceiling_exit_1(self, argv, message, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table for a limit past its ceiling")

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
        assert run(["verify", *argv]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--n-closed", "--n-exhaustive", "--n-iowe", "--n-rowsum",
        "--closure-kmax", "--closure-qmax", "--closure-lmax",
    ])
    def test_limit_below_one_exit_1(self, flag, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a table for a limit below 1")

        monkeypatch.setattr(rma_tse.oracles, "_trellis_states", unreachable)
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

    def test_config_delta_with_preset(self, tmp_path, monkeypatch):
        # Config lines are defaults, not flags: a config delta cannot clash
        # with --preset, and config sweep-shape lines do not count as given.
        ran = []
        monkeypatch.setattr(rma_tse.asymptotic, "sweep", lambda spec: ran.append(spec) or [])
        cfg = tmp_path / "tse.conf"
        cfg.write_text("delta=0.3\nq=7\nalpha_steps=5\n")
        out_dir = tmp_path / "figs"
        assert run(["asym-sweep", "--config", str(cfg), "--preset", "fig4",
                    "--out-dir", str(out_dir)]) == 0
        assert [spec.delta for spec in ran] == [0.0, 0.05, 0.1, 0.2]
        assert all(spec.q == 3 and len(spec.alpha_grid) == 30 for spec in ran)

    def test_config_sweep_shape_without_preset(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(rma_tse.asymptotic, "sweep", lambda spec: ran.append(spec) or [])
        cfg = tmp_path / "tse.conf"
        cfg.write_text("delta=0.3\nq=7\nalpha_steps=5\n")
        out = tmp_path / "s.csv"
        assert run(["asym-sweep", "--config", str(cfg), "--q", "4", "--out", str(out)]) == 0
        (spec,) = ran
        assert (spec.delta, spec.q, len(spec.alpha_grid)) == (0.3, 4, 5)

    def test_explicit_sweep_flag_with_preset_still_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text("q=7\n")
        assert run(["asym-sweep", "--config", str(cfg), "--preset", "fig4", "--q", "7",
                    "--out-dir", str(tmp_path / "figs")]) == 1
        assert "takes no --q" in capsys.readouterr().err

    def test_config_supplies_required_flag(self, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text("N=3\nao=1\n")
        assert run(["acc", "--config", str(cfg), "--ai", "2", "--b", "0"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("line, message", [
        ("nope=3", "config key 'nope' names no flag of tse acc"),
        ("alpha=0.1", "config key 'alpha' names no flag of tse acc"),
        ("mode=fast", "config key 'mode': bad value 'fast'"),
        ("N=many", "config key 'N': bad value 'many'"),
        ("mode log", "bad config line 'mode log' (want key=value)"),
    ])
    def test_bad_config_key_exit_1(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text(line + "\n")
        assert run(["acc", "--config", str(cfg), "--N", "3", "--ai", "2", "--ao", "1",
                    "--b", "0"]) == 1
        assert message in capsys.readouterr().err

    def test_config_out_dir_without_preset(self, tmp_path, capsys, monkeypatch):
        # A config out_dir line is a default, as config sweep lines are under
        # a preset; only a typed --out-dir needs --preset.
        ran = []
        monkeypatch.setattr(rma_tse.asymptotic, "sweep", lambda spec: ran.append(spec) or [])
        figs = tmp_path / "figs"
        cfg = tmp_path / "tse.conf"
        cfg.write_text(f"out_dir={figs}\n")
        assert run(["asym-sweep", "--config", str(cfg), "--delta", "0.1"]) == 0
        assert len(ran) == 1 and not figs.exists()
        assert capsys.readouterr().out.startswith("# q=3 L=2 delta=0.1 split=free grid=33\n")

    def test_config_on_off_flag(self, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text("quick=true\n")
        assert run(["verify", "--config", str(cfg), "--n-closed", "4"]) == 0
        assert "OK trellis_vs_exhaustive (604 keys)" in capsys.readouterr().out

    def test_config_equals_form(self, tmp_path, capsys):
        cfg = tmp_path / "m.conf"
        cfg.write_text("mode=log\n")
        assert run(["acc", f"--config={cfg}", "--N", "5", "--ai", "1", "--ao", "0", "--b", "1"]) == 0
        assert capsys.readouterr().out == "1.60943791\n"

    def test_typed_delta_with_config_preset_exit_1(self, tmp_path, capsys, monkeypatch):
        # A typed flag is rejected against a preset whether --preset or a
        # config line set it.
        def unreachable(spec):
            raise AssertionError("ran a sweep")

        monkeypatch.setattr(rma_tse.asymptotic, "sweep", unreachable)
        cfg = tmp_path / "c.conf"
        cfg.write_text("preset=fig6\n")
        out_dir = tmp_path / "figs"
        assert run(["asym-sweep", "--config", str(cfg), "--delta", "0.3",
                    "--out-dir", str(out_dir)]) == 1
        assert "takes no --delta" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["run", "typed", "config"])
    def test_parser_attribute_is_no_config_key(self, key, tmp_path, capsys):
        cfg = tmp_path / "tse.conf"
        cfg.write_text(key + "=1\n")
        assert run(["asym-sweep", "--config", str(cfg), "--delta", "0.1"]) == 1
        assert f"config key {key!r} names no flag of tse asym-sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ])
    def test_config_without_known_command_exit_1(self, command, message, tmp_path, capsys):
        # The config file belongs to a subcommand; argparse reports a missing
        # or unknown one.
        cfg = tmp_path / "tse.conf"
        cfg.write_text("mode=log\n")
        assert run(["--config", str(cfg)] + command) == 1
        assert message in capsys.readouterr().err

    def test_config_without_path_exit_1(self, capsys):
        assert run(["acc", "--N", "1", "--ai", "0", "--ao", "0", "--b", "0", "--config"]) == 1
        assert "argument --config: expected one argument" in capsys.readouterr().err

    def test_missing_config(self):
        assert run(["acc", "--config", "/nonexistent", "--N", "1", "--ai", "0", "--ao", "0", "--b", "0"]) == 1


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(rma_tse.cli.UsageError) as info:
            preset_sweeps("fig9")
        assert str(info.value) == "unknown preset 'fig9'"

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
