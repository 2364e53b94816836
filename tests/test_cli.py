import json
import math

import pytest

from fermi1d.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestResolvent:
    def test_basic_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        code, out = run(capsys, ["resolvent", "--config", cfg])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["f1"] == pytest.approx(1 / 3, abs=1e-15)
        assert rows[0]["pole"] is False

    def test_pole_row_is_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [2, 0, 2],
                                      "kappa_grid": [1.0]})
        code, out = run(capsys, ["resolvent", "--config", cfg])
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["pole"] is True
        assert rows[0]["f1"] is None

    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": []})
        code, _ = run(capsys, ["resolvent", "--config", cfg])
        assert code == 2

    def test_bad_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 2,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        code, _ = run(capsys, ["resolvent", "--config", cfg])
        assert code == 2

    def test_linspace_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "couplings": [1, 0, 0],
            "kappa_grid": {"start": 0.5, "stop": 2.0, "num": 4}})
        code, out = run(capsys, ["resolvent", "--config", cfg])
        assert code == 0
        assert len(json.loads(out)) == 4


class TestSMatrix:
    def test_identity_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [0, 0, 0],
                                      "k_grid": [1.0, 2.0]})
        code, out = run(capsys, ["smatrix", "--config", cfg])
        assert code == 0
        for row in json.loads(out):
            assert row["s_pp"] == [1.0, 0.0]
            assert row["s_pm"] == [0.0, 0.0]
            assert row["abs_det"] == pytest.approx(1.0, abs=1e-12)

    def test_delta_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [2, 0, 0],
                                      "k_grid": [1.0]})
        code, out = run(capsys, ["smatrix", "--config", cfg])
        assert code == 0
        row = json.loads(out)[0]
        assert row["s_pp"] == pytest.approx([0.5, -0.5], abs=1e-14)
        assert row["unitarity_residual"] < 1e-12

    def test_even_phase_monotone_toward_minus_pi(self, tmp_path, capsys):
        import numpy as np
        from fermi1d import pointcore
        ks = np.linspace(0.01, 5.0, 100)
        args = [np.angle(pointcore.even_phase(1.0, k)) for k in ks]
        assert all(a < b for a, b in zip(args, args[1:]))
        assert args[0] < -3.0


class TestScatter:
    def test_single_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "sites": [{"position": 0.0, "g1": 2.0}],
            "k_grid": [1.0], "mode": "left"})
        code, out = run(capsys, ["scatter", "--config", cfg])
        assert code == 0
        row = json.loads(out)[0]
        assert row["transmission"][0] == pytest.approx(0.5, abs=1e-14)
        assert abs(row["flux_residual"]) < 1e-12

    def test_empty_array_is_identity(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "sites": [],
                                      "k_grid": [1.0], "mode": "left"})
        code, out = run(capsys, ["scatter", "--config", cfg])
        assert code == 0
        row = json.loads(out)[0]
        assert row["transmission"][0] == pytest.approx(1.0, abs=1e-14)
        assert row["reflection"][0] == pytest.approx(0.0, abs=1e-14)

    def test_singular_row_is_flagged(self, tmp_path, capsys):
        # a Dirichlet box on [0, 1] with a mode embedded at k = pi
        cfg = write_config(tmp_path, {
            "schema": 1, "sites": [{"position": 0.0, "g2": 2.0},
                                   {"position": 1.0, "g2": -2.0}],
            "k_grid": [math.pi], "mode": "left"})
        code, out = run(capsys, ["scatter", "--config", cfg])
        assert code == 0
        assert json.loads(out) == [{"k": math.pi, "mode": "left",
                                    "singular": True}]

    def test_non_finite_input_is_config_error(self, tmp_path, capsys):
        nan = float("nan")
        for extra in ({"amplitudes": [nan]},
                      {"sites": [{"position": 0.0, "g1": nan}]}):
            cfg = write_config(tmp_path, {
                "schema": 1, "sites": [{"position": 0.0, "g1": 2.0}],
                "k_grid": [1.0], "mode": "left", **extra})
            code, _ = run(capsys, ["scatter", "--config", cfg])
            assert code == 2


class TestMemory:
    def make_config(self, tmp_path, sigma=0.0):
        return write_config(tmp_path, {
            "schema": 1, "g1": 2.0, "g3": 2.0,
            "script": [
                {"op": "write", "target": [[0, 0], [0, -1]]},
                {"op": "read", "noise_sigma": sigma},
                {"op": "reset"},
            ]})

    def test_round_trip_log(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        code, out = run(capsys, ["memory", "--config", cfg, "--seed", "1"])
        assert code == 0
        log = json.loads(out)
        assert [e["op"] for e in log] == ["write", "read", "reset"]
        assert log[0]["write_error"] < 1e-12
        assert log[1]["restoration_error"] < 1e-9
        assert log[2]["reset_error"] < 1e-12

    def test_noisy_read_accuracy(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, sigma=1e-4)
        code, out = run(capsys, ["memory", "--config", cfg, "--seed", "1"])
        assert code == 0
        log = json.loads(out)
        assert log[1]["recovery_error"] < 1e-3
        assert log[1]["restoration_error"] < 1e-9

    def test_empty_script_is_noop(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "g1": 2.0, "g3": 2.0,
                                      "script": []})
        code, out = run(capsys, ["memory", "--config", cfg])
        assert code == 0
        assert json.loads(out) == []

    def test_bad_script_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "g1": 2.0, "g3": 2.0,
                                      "script": [{"op": "frobnicate"}]})
        code, _ = run(capsys, ["memory", "--config", cfg])
        assert code == 2

    def test_seed_belongs_to_memory_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        with pytest.raises(SystemExit) as exc:
            main(["resolvent", "--config", cfg, "--seed", "1"])
        assert exc.value.code == 2


class TestVerify:
    def test_quick_suite_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1,
            "checks": ["resolvent_closed", "transfer_matrix"]})
        code, out = run(capsys, ["verify", "--config", cfg])
        assert code == 0
        assert all(r["passed"] for r in json.loads(out))

    def test_corrupted_self_test_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "checks": ["corrupted_self_test"]})
        code, out = run(capsys, ["verify", "--config", cfg])
        assert code == 1
        assert not json.loads(out)[0]["passed"]

    def test_empty_selection_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "checks": []})
        code, _ = run(capsys, ["verify", "--config", cfg])
        assert code == 2


class TestOutput:
    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        code, out = run(capsys, ["resolvent", "--config", cfg,
                                 "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "kappa"
        assert row.split(",")[2] == "%.17g" % (1 / 3)

    def test_out_file_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "g1": 2.0, "g3": 2.0,
            "script": [{"op": "write", "target": [[0, 0], [0, -1]]},
                       {"op": "read", "noise_sigma": 1e-4}]})
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for path in (out1, out2):
            assert main(["memory", "--config", cfg, "--seed", "7",
                         "--out", str(path)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        code, _ = run(capsys, ["resolvent", "--config",
                               str(tmp_path / "nope.json")])
        assert code == 2
