import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi1d import channels, cli, pointcore
from fermi1d.cli import main
from fermi1d.errors import PoleAtSpectralPoint


DATA = Path(__file__).parent / "data"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def cnum(z):
    return [float(z.real), float(z.imag)]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _flatten(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def reference_text(rows, fmt):
    """The row writer the CLI's column writer replaced: one json.dumps of
    the whole table, or csv.writer over each row's flattened values."""
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    keys = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_flatten(row.get(k)) for k in keys])
    return buf.getvalue()


# JSON values for random tables, with the characters csv quotes and
# json escapes or nests by
TEXT = st.text(st.sampled_from('ab ,"[]{}:%\\\n\ré'), max_size=6)
KEYS = st.sampled_from(["k", "mode", "plan", "a,b", 'say "x"', "x:y",
                        "[z", "{w", "100%", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats(allow_nan=False, allow_infinity=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3), max_leaves=8)


# Configs whose output bytes, in JSON and in CSV, are fixed by files in
# tests/data generated before the commands shared one writer.
GOLDEN = {
    "resolvent_pole": ("resolvent", {
        "schema": 1, "couplings": [2.0, 0.0, 2.0],
        "kappa_grid": [0.25, 1.0, 1.5, 1e3]}),
    "smatrix_signed_zero": ("smatrix", {
        "schema": 1, "couplings": [-0.0, -0.7, 1.3],
        "k_grid": [1e-3, 0.5, 1.0, 7.0]}),
    # a Dirichlet box on [0, 1] with a mode embedded at k = pi
    "scatter_singular": ("scatter", {
        "schema": 1, "sites": [{"position": 0.0, "g2": 2.0},
                               {"position": 1.0, "g2": -2.0}],
        "k_grid": [1.0, math.pi, 4.0], "mode": "left"}),
    "scatter_two_channel": ("scatter", {
        "schema": 1, "mode": "even", "k_grid": [0.4, 1.3, 2.9],
        "amplitudes": [[0.6, 0.0], [0.0, -0.8]],
        "sites": [{"position": -0.5, "c1": [[1.0, 0.3], [0.3, -0.4]],
                   "c2": [[0.2, 0.0], [0.0, 0.1]],
                   "c3": [[0.0, -0.6], [-0.6, 0.5]]},
                  {"position": 0.7, "c1": [[2.0, 0.0], [0.0, 1.0]],
                   "c2": [[0.0, 0.4], [0.4, 0.0]],
                   "c3": [[0.3, 0.0], [0.0, -0.2]]}]}),
    "memory_empty": ("memory", {"schema": 1, "g1": 2.0, "g3": 2.0,
                                "script": []}),
}


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
        # also a string, which iterates by character, and a fractional
        # point count
        for grid in ([], "123", {"start": 1, "stop": 2, "num": 2.9}):
            cfg = write_config(tmp_path, {"schema": 1,
                                          "couplings": [1, 0, 0],
                                          "kappa_grid": grid})
            assert run(capsys, ["resolvent", "--config", cfg]) == (2, "")

    def test_bad_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 2,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        code, _ = run(capsys, ["resolvent", "--config", cfg])
        assert code == 2

    def test_linspace_grid(self, tmp_path, capsys):
        for num in (4, 4.0):
            cfg = write_config(tmp_path, {
                "schema": 1, "couplings": [1, 0, 0],
                "kappa_grid": {"start": 0.5, "stop": 2.0, "num": num}})
            code, out = run(capsys, ["resolvent", "--config", cfg])
            assert code == 0
            assert len(json.loads(out)) == 4


    def test_non_finite_row_is_domain_error(self, tmp_path, capsys):
        # g1 / kappa overflows at kappa = 1e-320
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1.5, 0.3, -0.7],
                                      "kappa_grid": [1.0, 1e-320]})
        assert main(["resolvent", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")


@pytest.mark.parametrize("command, key", [("resolvent", "kappa_grid"),
                                          ("smatrix", "k_grid")])
class TestCouplingInput:
    def test_non_finite_input_is_config_error(self, tmp_path, capsys,
                                              command, key):
        # 10 ** 400 is a JSON integer too large for a float
        for g in ([float("nan"), 1.0, 0.0], [0.0, 1.0, float("inf")],
                  [0.0, 10 ** 400, 0.0]):
            cfg = write_config(tmp_path, {"schema": 1, "couplings": g,
                                          key: [1.0]})
            assert run(capsys, [command, "--config", cfg]) == (2, "")

    def test_overflow_is_domain_error(self, tmp_path, capsys, command,
                                      key):
        # g2 ** 2 overflows a float above about 1.3e154
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [0.0, 1e200, 0.0],
                                      key: [1.0]})
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")


class TestSMatrix:
    def test_non_finite_row_is_domain_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1.5, 0.3, -0.7],
                                      "k_grid": [1e-320]})
        assert main(["smatrix", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error:")

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

    def test_overflow_row_is_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "sites": [{"position": 0.0, "g3": 1e200},
                                   {"position": 1.0, "g1": 1.0}],
            "k_grid": [1e300], "mode": "left"})
        code, out = run(capsys, ["scatter", "--config", cfg])
        assert code == 0
        assert json.loads(out) == [{"k": 1e300, "mode": "left",
                                    "singular": True}]

    def test_non_finite_input_is_config_error(self, tmp_path, capsys):
        nan = float("nan")
        for extra in ({"amplitudes": [nan]},
                      {"sites": [{"position": 0.0, "g1": nan}]},
                      {"amplitudes": 5}, {"amplitudes": [["a", "b"]]},
                      # JSON integers too large for a float
                      {"sites": [{"position": 0.0, "g1": 10 ** 400}]},
                      {"amplitudes": [10 ** 400]}, {"k_grid": [10 ** 400]}):
            cfg = write_config(tmp_path, {
                "schema": 1, "sites": [{"position": 0.0, "g1": 2.0}],
                "k_grid": [1.0], "mode": "left", **extra})
            code, _ = run(capsys, ["scatter", "--config", cfg])
            assert code == 2

    def test_amplitude_count_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "sites": [{"position": 0.0, "g1": 2.0}],
            "k_grid": [1.0], "mode": "left", "amplitudes": [0.6, 0.8]})
        assert main(["scatter", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: incident amplitude dimension "
                                "does not match the site array channel "
                                "count\n")

    @pytest.mark.parametrize("case", ["non_hermitian_c2", "ragged_c1",
                                      "non_square_c3", "nan_in_c3",
                                      "mixed_channel_counts", "unordered",
                                      "missing_c3", "bad_second_site"])
    def test_matrix_site_errors(self, tmp_path, capsys, case):
        eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]

        def site(position, **c):
            return {"position": position, "c1": eye, "c2": zero,
                    "c3": zero, **c}

        ragged = [[1.0, 0.0], [0.0]]
        with pytest.raises(ValueError) as numpy_error:
            np.array(ragged, dtype=complex)
        missing_c3 = site(0.0)
        del missing_c3["c3"]
        sites, message = {
            "non_hermitian_c2": ([site(0.0, c2=[[0.0, 1.0], [0.0, 0.0]])],
                                 "site 0: c2 must be hermitian"),
            "ragged_c1": ([site(0.0, c1=ragged)],
                          f"site 0: {numpy_error.value}"),
            "non_square_c3": ([site(0.0, c3=[[1.0, 0.0, 0.0],
                                             [0.0, 1.0, 0.0]])],
                              "site 0: c3 must be a square matrix"),
            "nan_in_c3": ([site(0.0), site(1.0, c3=[[1.0, float("nan")],
                                                   [float("nan"), 0.0]])],
                          "site 1: c3 must be finite"),
            "missing_c3": ([missing_c3], "site 0 needs 'c3'"),
            "bad_second_site": ([site(0.0), site("near")],
                                "site 1: could not convert string to "
                                "float: 'near'"),
            "mixed_channel_counts": ([{"position": 0.0, "g1": 1.0},
                                      site(1.0)],
                                     "all sites must share the channel "
                                     "count"),
            "unordered": ([site(1.0), site(0.5)],
                          "site positions must be strictly increasing "
                          "with separation >= 1e-09"),
        }[case]
        cfg = write_config(tmp_path, {"schema": 1, "sites": sites,
                                      "k_grid": [1.0], "mode": "left",
                                      "amplitudes": [0.6, 0.8]})
        assert main(["scatter", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mode", ["left", "right", "even", "odd"])
    def test_multichannel_rows_match_single_solves(self, tmp_path, capsys,
                                                   n, mode):
        rng = np.random.default_rng(10 * n + len(mode))
        entries = []
        for position in np.cumsum(rng.uniform(0.3, 1.2, 6)):
            entry = {"position": float(position)}
            for key in ("c1", "c2", "c3"):
                a = rng.normal(size=(n, n))
                entry[key] = ((a + a.T) / 2.0).tolist()
            entries.append(entry)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        k_grid = sorted(rng.uniform(0.2, 4.0, 5).tolist())
        cfg = write_config(tmp_path, {"schema": 1, "sites": entries,
                                      "mode": mode, "k_grid": k_grid,
                                      "amplitudes": [cnum(a) for a in amps]})
        code, out = run(capsys, ["scatter", "--config", cfg])
        assert code == 0
        arr = channels.SiteArray([
            (e["position"], channels.MatrixCouplings(
                np.array(e["c1"]), np.array(e["c2"]), np.array(e["c3"])))
            for e in entries])
        expected = []
        for k in k_grid:
            sol = channels.solve_scattering(
                arr, channels.IncidentWave(k, mode, amps))
            expected.append({
                "k": k, "mode": mode, "singular": False,
                "outgoing_left": [cnum(v) for v in sol.outgoing_left],
                "outgoing_right": [cnum(v) for v in sol.outgoing_right],
                "reflection": [float(v) for v in sol.reflection],
                "transmission": [float(v) for v in sol.transmission],
                "flux_residual": float(sol.flux_residual)})
        assert json.loads(out) == expected


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

    def test_bad_noise_sigma_is_config_error(self, tmp_path, capsys):
        for sigma in ("abc", -1.0, float("nan")):
            cfg = self.make_config(tmp_path, sigma=sigma)
            code, out = run(capsys, ["memory", "--config", cfg])
            assert code == 2
            assert out == ""

    def test_non_finite_input_is_config_error(self, tmp_path, capsys):
        nan = float("nan")
        for extra in ({"g1": nan}, {"g3": float("inf")},
                      {"g1": nan, "script": []},
                      {"standard_state": [nan, 1.0], "script": []},
                      {"script": [{"op": "write", "target": [nan, 1.0]}]},
                      # |1e200| ** 2 overflows a float
                      {"script": [{"op": "write", "target": [1e200, 0.0]}]},
                      # JSON integers too large for a float
                      {"g1": 10 ** 400},
                      {"script": [{"op": "write", "target": [10 ** 400, 0]}]},
                      {"script": [{"op": "read", "noise_sigma": 10 ** 400}]},
                      {"script": [{"op": "scatter", "parity": "even",
                                   "k": 10 ** 400}]}):
            cfg = write_config(tmp_path, {
                "schema": 1, "g1": 2.0, "g3": 2.0,
                "script": [{"op": "write", "target": [0.6, 0.8]}], **extra})
            assert run(capsys, ["memory", "--config", cfg]) == (2, "")

    def test_bad_script_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "g1": 2.0, "g3": 2.0,
                                      "script": [{"op": "frobnicate"}]})
        code, _ = run(capsys, ["memory", "--config", cfg])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_script_bytes_are_fixed(self, tmp_path, fmt):
        # Writes, noiseless reads of written states, one scattering of
        # each parity and a reset.  The reference files fix the output
        # bytes: a change to them is a change of public behaviour.
        cfg = write_config(tmp_path, {
            "schema": 1, "g1": 1.7, "g3": -2.3,
            "script": [
                {"op": "write", "target": [[0.6, 0.0], [0.0, -0.8]]},
                {"op": "read"},
                {"op": "scatter", "parity": "even", "k": 0.9},
                {"op": "scatter", "parity": "odd", "k": 1.6},
                {"op": "write", "target": [[0.48, -0.36], [0.64, 0.48]]},
                {"op": "read"},
                {"op": "reset"},
            ]})
        out = tmp_path / f"out.{fmt}"
        assert main(["memory", "--config", cfg, "--format", fmt,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"memory_script.{fmt}"
                                    ).read_bytes()

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
        # also names that are not strings
        for checks in ([], [{}], [["a"]]):
            cfg = write_config(tmp_path, {"schema": 1, "checks": checks})
            assert run(capsys, ["verify", "--config", cfg]) == (2, "")


class TestOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_command_bytes_are_fixed(self, tmp_path, name, fmt):
        command, config = GOLDEN[name]
        cfg = write_config(tmp_path, config)
        out = tmp_path / f"out.{fmt}"
        assert main([command, "--config", cfg, "--format", fmt,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.{fmt}").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.dictionaries(KEYS, JSON_VALUES, min_size=1),
                         max_size=6),
           fmt=st.sampled_from(["json", "csv"]))
    def test_row_tables_match_reference(self, rows, fmt):
        assert cli._table_text(rows, fmt) == reference_text(rows, fmt)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5),
           fmt=st.sampled_from(["json", "csv"]))
    def test_array_tables_match_reference(self, data, n, fmt):
        # numpy columns: NaN is null at the top level and inside nested
        # values, and a complex number is an [re, im] pair
        columns = {}
        for key in data.draw(st.lists(KEYS, min_size=1, max_size=4,
                                      unique=True)):
            shape = (n,) + tuple(data.draw(st.lists(
                st.integers(0, 3), max_size=2)))
            kind = data.draw(st.sampled_from(["float", "complex", "bool"]))
            values = np.array(data.draw(st.lists(
                st.floats(allow_infinity=False, width=64),
                min_size=2 * math.prod(shape),
                max_size=2 * math.prod(shape))))
            if kind == "float":
                columns[key] = values[::2].reshape(shape)
            elif kind == "complex":
                columns[key] = (values[::2] + 1j * values[1::2]).reshape(shape)
            else:
                columns[key] = (values[::2] > 0).reshape(shape)

        def plain(a):
            if a.dtype.kind == "c":
                a = np.stack([a.real, a.imag], axis=-1)
            return [None if isinstance(v, float) and math.isnan(v) else v
                    for v in a.tolist()] if a.ndim == 1 else [
                plain(sub) for sub in a]

        rows = [dict(zip(columns, values))
                for values in zip(*map(plain, columns.values()))]
        assert cli._table_text(columns, fmt) == reference_text(rows, fmt)

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

    @pytest.mark.parametrize("g", [(2.0, 0.0, 2.0), (0.0, 1.5, 0.0),
                                   (-0.0, -0.7, 1.3), (2.5, 0.4, -0.0),
                                   (-1.2, 0.3, -0.8)])
    def test_grid_bytes_match_row_path(self, tmp_path, g):
        # The row-by-row path that the grid kernels replaced, built from
        # the scalar functions and written by the reference row writer.
        # The grid holds a pole row of (2, 0, 2) at kappa = 1.
        grid = sorted([1.0, 1e-3, 1e3] + list(np.linspace(0.05, 7.0, 40)))
        resolvent_rows = []
        for kappa in grid:
            row = {"kappa": kappa}
            try:
                q = pointcore.resolvent_from_couplings(g, kappa)
            except PoleAtSpectralPoint:
                row.update({"pole": True, "f1": None, "f2": None,
                            "f3": None, "f4": None})
            else:
                row.update({"pole": False, "f1": q.f1, "f2": q.f2,
                            "f3": q.f3, "f4": q.f4})
            resolvent_rows.append(row)
        smatrix_rows = []
        for k in grid:
            sm = pointcore.s_matrix(g, k)
            smatrix_rows.append({
                "k": k,
                "s_pp": cnum(sm[0, 0]), "s_pm": cnum(sm[0, 1]),
                "s_mp": cnum(sm[1, 0]), "s_mm": cnum(sm[1, 1]),
                "abs_det": float(abs(np.linalg.det(sm))),
                "unitarity_residual": float(np.max(np.abs(
                    sm @ sm.conj().T - np.eye(2))))})
        for command, key, rows in (("resolvent", "kappa_grid",
                                    resolvent_rows),
                                   ("smatrix", "k_grid", smatrix_rows)):
            cfg = write_config(tmp_path, {"schema": 1, "couplings": list(g),
                                          key: grid})
            for fmt in ("json", "csv"):
                out = tmp_path / f"out.{fmt}"
                assert main([command, "--config", cfg, "--format", fmt,
                             "--out", str(out)]) == 0
                assert out.read_bytes() == reference_text(
                    rows, fmt).encode(), (command, fmt)
        assert any(row["pole"] for row in resolvent_rows) == (g[0] == 2.0)

    def test_missing_config_file(self, tmp_path, capsys):
        code, _ = run(capsys, ["resolvent", "--config",
                               str(tmp_path / "nope.json")])
        assert code == 2
