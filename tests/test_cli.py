import csv
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermi1d
from fermi1d import bulktext, channels, cli, pointcore, qmemory, verify
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


def dynamic_openblas() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time on x86_64,
    so that OPENBLAS_CORETYPE selects another one."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def run_child(argv, coretype=None):
    """Stdout of the CLI run by a fresh interpreter from this source tree,
    on the OpenBLAS kernel `coretype` or on the default one."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(fermi1d.__file__))}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run([sys.executable, "-m", "fermi1d.cli", *argv],
                          env=env, capture_output=True, check=True).stdout


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
                        "[z", "{w", "100%", "", "%s", "a%%b"])
# One JSON scalar per row of a list column, NaN and the infinities
# included: verify writes a NaN residual as json and csv do
SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
           | st.floats() | TEXT)
# Row shapes of a numpy column: lists and objects whose floats take a
# row's values; strings, numbers and the rest are literal
SHAPES = st.recursive(
    st.just(0.0) | st.none() | st.booleans() | st.integers(-9, 9) | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3), max_leaves=6).filter(
    lambda shape: isinstance(shape, (list, dict)))


def count_floats(shape) -> int:
    if isinstance(shape, float):
        return 1
    if isinstance(shape, (list, dict)):
        return sum(map(count_floats, shape.values() if isinstance(
            shape, dict) else shape))
    return 0


def fill_floats(shape, values):
    """`shape` with its floats replaced by the next of `values`, in the
    order json writes them, keys sorted."""
    if isinstance(shape, float):
        return next(values)
    if isinstance(shape, list):
        return [fill_floats(v, values) for v in shape]
    if isinstance(shape, dict):
        return {k: fill_floats(shape[k], values) for k in sorted(shape)}
    return shape


def plain(a) -> list:
    """The rows of a numpy column as JSON values: NaN as None, complex
    numbers as [re, im] pairs."""
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    return [None if isinstance(v, float) and math.isnan(v) else v
            for v in a.tolist()] if a.ndim == 1 else [plain(sub) for sub in a]


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
        # 10 ** 400 is a JSON integer too large for a float; true, false
        # and strings are no numbers, though float() takes them for 1, 0
        # and the number they spell
        nan, g = float("nan"), [0.0, 1.0, 0.0]
        for couplings, grid in (
                ([nan, 1.0, 0.0], [1.0]), ([0.0, 1.0, float("inf")], [1.0]),
                ([0.0, 10 ** 400, 0.0], [1.0]), ([True, False, True], [1.0]),
                (g, [True]), (g, [1.0, False]),
                (g, {"start": 1.0, "stop": 2.0, "num": True}),
                (g, {"start": True, "stop": 2.0, "num": 2}),
                (g, ["1.5", "2"]), (g, {"start": "1", "stop": 2.0, "num": 2}),
                (g, {"start": 1.0, "stop": 2.0, "num": "2"})):
            cfg = write_config(tmp_path, {"schema": 1, "couplings": couplings,
                                          key: grid})
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
                      {"amplitudes": [10 ** 400]}, {"k_grid": [10 ** 400]},
                      # true and false, which float() takes for 1 and 0
                      {"sites": [{"position": True, "g1": 2.0}]},
                      {"sites": [{"position": 0.0, "g1": True}]},
                      {"sites": [{"position": 0.0, "c1": [[True]],
                                  "c2": [[0.0]], "c3": [[0.0]]}]},
                      {"amplitudes": [True]}, {"amplitudes": [[1.0, False]]},
                      {"k_grid": [True]},
                      # strings, which float() parses
                      {"sites": [{"position": "0", "g1": 2.0}]},
                      {"sites": [{"position": 0.0, "g1": "2"}]},
                      {"sites": [{"position": 0.0, "c1": [["1"]],
                                  "c2": [[0.0]], "c3": [[0.0]]}]},
                      {"amplitudes": [["1", "0"]]}, {"k_grid": ["1.5"]}):
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

    @pytest.mark.parametrize("sites, k_grid, message", [
        ([{"position": 0.0, "g1": 2.0, "g9": "x"}], [1.0],
         "site 0: unknown key 'g9'"),
        ([{"position": 0.0, "g1": 2.0}, {"position": 1.0, "G1": 2.0}],
         [1.0], "site 1: unknown key 'G1'"),
        ([{"position": 0.0, "g2": 0.5, "c1": [[1.0]], "c2": [[0.0]],
           "c3": [[0.0]]}], [1.0], "site 0: key 'c1' cannot go with 'g2'"),
        ([{"position": 0.0, "g1": 2.0}],
         {"start": 1.0, "stop": 2.0, "num": 3, "extra": 1},
         "bad grid spec for 'k_grid': unknown key 'extra'")],
        ids=["misspelt_g", "capital_g", "g_and_c", "linspace_extra"])
    def test_unknown_keys_are_config_errors(self, tmp_path, capsys, sites,
                                            k_grid, message):
        # a misspelt key used to run as a different array with exit 0
        cfg = write_config(tmp_path, {"schema": 1, "sites": sites,
                                      "k_grid": k_grid})
        assert main(["scatter", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

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

    def test_read_of_standard_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "g1": 2, "g3": 2,
                                      "script": [{"op": "read"}]})
        code, out = run(capsys, ["memory", "--config", cfg])
        assert code == 0
        assert json.loads(out)[0]["recovery_error"] < 1e-9

    def test_custom_standard_state(self, tmp_path, capsys):
        standard = qmemory.MemoryState(0.6, 0.8j)
        cfg = write_config(tmp_path, {
            "schema": 1, "g1": 2.0, "g3": 2.0,
            "standard_state": [[0.6, 0], [0, 0.8]],
            "script": [{"op": "write", "target": [0, 1]}, {"op": "read"},
                       {"op": "reset"}]})
        code, out = run(capsys, ["memory", "--config", cfg])
        assert code == 0
        log = json.loads(out)
        written = qmemory.MemoryState(*(complex(*c) for c in log[0]["state"]))
        assert log[1]["observables"]["A3"] == pytest.approx(
            qmemory.observe(written, "A3", standard), abs=1e-12)
        final = qmemory.MemoryState(*(complex(*c) for c in log[2]["state"]))
        assert log[2]["reset_error"] < 1e-9
        assert final.distance_up_to_phase(standard) < 1e-9

    def test_standard_state_must_be_normalized(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "g1": 2.0, "g3": 2.0,
                                      "standard_state": [0.6, 0.6],
                                      "script": []})
        assert run(capsys, ["memory", "--config", cfg]) == (2, "")

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
                                   "k": 10 ** 400}]},
                      # true and false, which float() takes for 1 and 0
                      {"g1": True}, {"g3": False},
                      {"standard_state": [[1.0, False], 0.0], "script": []},
                      {"script": [{"op": "write", "target": [True, 0]}]},
                      {"script": [{"op": "read", "noise_sigma": True}]},
                      {"script": [{"op": "scatter", "parity": "even",
                                   "k": True}]},
                      # strings, which float() parses
                      {"g1": "2"}, {"g3": "2"},
                      {"standard_state": [["0.6", 0], [0, 0.8]],
                       "script": []},
                      {"script": [{"op": "write", "target": ["0.6", 0.8]}]},
                      {"script": [{"op": "read", "noise_sigma": "0"}]},
                      {"script": [{"op": "scatter", "parity": "even",
                                   "k": "1.5"}]},
                      # a component that is neither a number nor a pair
                      {"script": [{"op": "write",
                                   "target": [[[1.0], 0.0], [0.0, 1.0]]}]}):
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

    @pytest.mark.skipif(not dynamic_openblas(),
                        reason="needs an x86_64 DYNAMIC_ARCH OpenBLAS")
    def test_script_bytes_do_not_depend_on_blas_kernel(self, tmp_path):
        # Writes, resets and scatterings are computed on Python complex
        # numbers, and a read's fit is an elementwise product with a
        # fixed sine table summed by numpy, so a kernel without FMA
        # (Prescott) and an AVX2 one (Haswell) give the default bytes,
        # noisy reads included.
        cfg = write_config(tmp_path, {
            "schema": 1, "g1": 1.7, "g3": -2.3,
            "script": [
                {"op": "write", "target": [[0.6, 0.0], [0.0, -0.8]]},
                {"op": "read"},
                {"op": "scatter", "parity": "even", "k": 0.9},
                {"op": "scatter", "parity": "odd", "k": 1.6},
                {"op": "write", "target": [[0.48, -0.36], [0.64, 0.48]]},
                {"op": "read", "noise_sigma": 1e-4},
                {"op": "reset"},
            ]})
        argv = ["memory", "--config", cfg, "--seed", "3"]
        default = run_child(argv)
        for coretype in ("Prescott", "Haswell"):
            assert run_child(argv, coretype) == default, coretype

    def test_negative_seed_is_argument_error(self, tmp_path, capsys):
        # also for a script without a noisy read, where no seed is drawn
        for script in ([{"op": "read", "noise_sigma": 1e-4}], []):
            cfg = write_config(tmp_path, {"schema": 1, "g1": 2.0, "g3": 2.0,
                                          "script": script})
            with pytest.raises(SystemExit) as exc:
                main(["memory", "--config", cfg, "--seed", "-1"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--seed" in captured.err

    def test_seed_belongs_to_memory_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1,
                                      "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        with pytest.raises(SystemExit) as exc:
            main(["resolvent", "--config", cfg, "--seed", "1"])
        assert exc.value.code == 2


def random_script(rng) -> list[dict]:
    """Each op once in a random order, then up to twelve more: writes of
    random states, reads with and without noise (the first with), and
    scatterings of either parity."""
    ops = list(rng.permutation(["write", "read", "scatter", "reset"]))
    ops += list(rng.choice(["write", "read", "scatter", "reset"],
                           size=rng.integers(0, 13)))
    script, sigma = [], 1e-4
    for op in ops:
        if op == "write":
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            script.append({"op": op, "target": [cnum(c) for c in v]})
        elif op == "read":
            script.append({"op": op, "noise_sigma": sigma})
            sigma = float(rng.choice([0.0, 1e-4]))
        elif op == "scatter":
            script.append({"op": op, "parity": str(rng.choice(["even", "odd"])),
                           "k": float(rng.uniform(0.1, 6.0))})
        else:
            script.append({"op": op})
    return script


def memory_rows(config, seed) -> list[dict]:
    """A memory log in the row form the CLI built before it handed the
    writer columns: one dict per step, from qmemory directly."""
    def state_of(pairs):
        return qmemory.MemoryState(*(complex(*c) for c in pairs))

    g1, g3 = config["g1"], config["g3"]
    standard = (state_of(config["standard_state"])
                if "standard_state" in config else qmemory.STANDARD_STATE)
    state, rng, rows = standard, np.random.default_rng(seed), []
    for step, cmd in enumerate(config["script"]):
        op = cmd["op"]
        row = {"step": step, "op": op}
        if op in ("write", "reset"):
            target = standard if op == "reset" else state_of(cmd["target"])
            plan = (qmemory.write if op == "write" else qmemory.reset)(
                state, target, g1, g3)
            state = qmemory.apply_plan(state, plan, g1, g3)
            row["plan"] = [{"parity": p, "k": k}
                           for p, k in zip(plan.parity, plan.k)]
            row[op + "_error"] = state.distance_up_to_phase(target)
        elif op == "read":
            before = state
            obs, recovered, state = qmemory.read_protocol(
                state, standard, g1, g3, noise_sigma=cmd["noise_sigma"],
                rng=rng)
            row.update(
                observables={"A1": obs.A1, "A2": obs.A2, "Ay": obs.Ay,
                             "A3": obs.A3},
                recovered_state=[cnum(recovered.a1), cnum(recovered.a2)],
                recovery_error=recovered.distance_up_to_phase(before),
                restoration_error=state.distance_up_to_phase(before))
        else:
            state = qmemory.apply_plan(
                state, qmemory.Plan((cmd["parity"],), (cmd["k"],)), g1, g3)
        row["state"] = [cnum(state.a1), cnum(state.a2)]
        rows.append(row)
    return rows


def scatter_rows(config) -> list[dict]:
    """A scatter table in the row form the CLI built before it handed the
    writer columns: k, mode and the singular flag, and on a regular row
    the solution, complex numbers as [re, im] pairs."""
    k = np.array(config["k_grid"])
    amps = config.get("amplitudes")
    wave = channels.IncidentWave(k, config["mode"], None if amps is None
                                 else np.array([complex(*a) for a in amps]))
    s, singular = channels.full_s_matrix_grid(cli._site_array(config), k)
    sol = channels.ScatteringSolution.from_s_matrix(s, wave)
    rows = []
    for i, flagged in enumerate(singular.tolist()):
        rows.append({"k": k[i].item(), "mode": config["mode"],
                     "singular": flagged})
        if not flagged:
            for name in ("outgoing_left", "outgoing_right", "reflection",
                         "transmission", "flux_residual"):
                v = getattr(sol, name)[i]
                rows[-1][name] = (np.stack([v.real, v.imag], axis=-1).tolist()
                                  if np.iscomplexobj(v) else v.tolist())
    return rows


SCATTER_CONFIGS = {
    # a Dirichlet box on [0, 1]: its modes at k = pi and 2 pi are singular
    # rows between regular ones
    "box": {"schema": 1, "mode": "right",
            "sites": [{"position": 0.0, "g2": 2.0},
                      {"position": 1.0, "g2": -2.0}],
            "k_grid": [0.5, math.pi, 4.0, 2 * math.pi, 7.5]},
    "two_channel": GOLDEN["scatter_two_channel"][1],
    "two_channel_odd": {**GOLDEN["scatter_two_channel"][1], "mode": "odd",
                        "k_grid": [0.1, 0.8, 2.5, 6.0]},
}


class TestCommandRows:
    """The commands hand the writer columns; their bytes are those of the
    row form they replaced."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("seed", range(6))
    def test_memory_scripts_match_row_form(self, tmp_path, fmt, seed):
        rng = np.random.default_rng(seed)
        config = {"schema": 1, "g1": float(rng.uniform(0.5, 4.0)),
                  "g3": -float(rng.uniform(0.5, 4.0)),
                  "script": random_script(rng)}
        if seed % 2:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            config["standard_state"] = [cnum(c) for c in v / np.linalg.norm(v)]
        out = tmp_path / "out"
        assert main(["memory", "--config", write_config(tmp_path, config),
                     "--seed", str(seed), "--format", fmt,
                     "--out", str(out)]) == 0
        assert out.read_text() == reference_text(memory_rows(config, seed),
                                                 fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", sorted(SCATTER_CONFIGS))
    def test_scatter_rows_match_row_form(self, tmp_path, fmt, name):
        config = SCATTER_CONFIGS[name]
        rows = scatter_rows(config)
        if name == "box":
            assert [row["singular"] for row in rows] == [False, True, False,
                                                         True, False]
        out = tmp_path / "out"
        assert main(["scatter", "--config", write_config(tmp_path, config),
                     "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == reference_text(rows, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("checks", [None, ["transfer_matrix",
                                               "corrupted_self_test",
                                               "resolvent_closed"]])
    def test_verify_matches_row_form(self, tmp_path, capsys, fmt, checks):
        # the default suite passes; a selection holding the corrupted
        # self-test fails, with exit 1 and the same table
        config = {"schema": 1} if checks is None else {"schema": 1,
                                                       "checks": checks}
        rows = [{"name": r.name, "max_residual": r.max_residual,
                 "tolerance": r.tolerance, "grid": r.grid,
                 "passed": r.passed} for r in verify.run_suite(checks)]
        assert run(capsys, ["verify", "--config",
                            write_config(tmp_path, config), "--format",
                            fmt]) == (0 if checks is None else 1,
                                      reference_text(rows, fmt))

    def test_commands_skip_the_pure_python_encoder(self, tmp_path,
                                                   monkeypatch):
        # json's indented encoder runs in pure Python, value by value; no
        # command's table reaches it, templates included
        for cache in (cli._nested, cli._template, cli._plan_shape):
            cache.cache_clear()
        monkeypatch.setattr(json.encoder, "_make_iterencode", mock.Mock(
            side_effect=AssertionError("the pure-Python encoder ran")))
        with pytest.raises(AssertionError):     # the patch is in force
            json.dumps([[1.0]], indent=2)
        memory = {"schema": 1, "g1": 1.7, "g3": -2.3,
                  "script": random_script(np.random.default_rng(7))}
        # the grid commands below and above the bulk writer's crossover
        resolvent = GOLDEN["resolvent_pole"]
        smatrix = GOLDEN["smatrix_signed_zero"]
        long = {"start": 0.05, "stop": 7.0, "num": 2 * cli._BULK_ROWS}
        for command, config in [
                resolvent, ("resolvent", {**resolvent[1], "kappa_grid": long}),
                smatrix, ("smatrix", {**smatrix[1], "k_grid": long}),
                ("memory", memory), ("verify", {"schema": 1})] + [
                ("scatter", c) for c in SCATTER_CONFIGS.values()]:
            for fmt in ("json", "csv"):
                assert main([command, "--config",
                             write_config(tmp_path, config), "--format", fmt,
                             "--out", str(tmp_path / "out")]) == 0


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
    @given(data=st.data(), n=st.integers(1, 5),
           fmt=st.sampled_from(["json", "csv"]), bulk=st.booleans())
    def test_array_tables_match_reference(self, data, n, fmt, bulk):
        # numpy columns: NaN is null at the top level and inside nested
        # values, and a complex number is an [re, im] pair.  A column may
        # skip rows by a present mask (every row, none or some), or give
        # each row a JSON shape its floats fill, beside list columns of
        # one JSON scalar per row; written by the % fill or, as large
        # tables of plain arrays are, in byte blocks
        absent = object()
        columns, cells = {}, {}     # each row's value, or absent
        for key in data.draw(st.lists(KEYS, min_size=1, max_size=4,
                                      unique=True)):
            kind = data.draw(st.sampled_from(
                ["float", "complex", "bool", "shaped", "list"]))
            if kind == "list":
                columns[key] = cells[key] = data.draw(st.lists(
                    SCALARS, min_size=n, max_size=n))
                continue
            if kind == "shaped":
                shapes = data.draw(st.lists(st.none() | SHAPES, min_size=n,
                                            max_size=n))
                shape = (n, max([count_floats(s) for s in shapes
                                 if s is not None], default=0))
            else:
                shape = (n,) + tuple(data.draw(st.lists(
                    st.integers(0, 3), max_size=2)))
            values = np.array(data.draw(st.lists(
                st.floats(allow_infinity=False, width=64),
                min_size=2 * math.prod(shape),
                max_size=2 * math.prod(shape))))
            array = (values[::2] + 1j * values[1::2] if kind == "complex"
                     else values[::2] > 0 if kind == "bool"
                     else values[::2]).reshape(shape)
            rows = plain(array)
            if kind == "shaped":
                columns[key] = array, [s if s is None else json.dumps(s)
                                       for s in shapes]
                cells[key] = [absent if s is None else
                              fill_floats(s, iter(row))
                              for s, row in zip(shapes, rows)]
                continue
            present = data.draw(st.sampled_from(
                [None, [True] * n, [False] * n]) | st.lists(
                st.booleans(), min_size=n, max_size=n))
            if present is None:
                columns[key], cells[key] = array, rows
            else:
                columns[key] = array, present
                cells[key] = [row if p else absent
                              for row, p in zip(rows, present)]
        rows = [{key: column[i] for key, column in cells.items()
                 if column[i] is not absent} for i in range(n)]
        # csv lists the keys in order of first appearance
        order = dict.fromkeys([key for row in rows for key in row]
                              + list(columns))
        columns = {key: columns[key] for key in order}
        with mock.patch.object(cli, "_BULK_ROWS", 1 if bulk else 10 ** 9):
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
            # the diagnostics from the entries on Python complex numbers:
            # S++ = S-- = d, S+- = p, S-+ = m
            d, p, m = (complex(sm[i, j]) for i, j in ((0, 0), (0, 1), (1, 0)))
            dd = d.real * d.real + d.imag * d.imag
            abs_det = abs(d * d - p * m)
            residual = max(
                abs(dd + (p.real * p.real + p.imag * p.imag) - 1.0),
                abs(dd + (m.real * m.real + m.imag * m.imag) - 1.0),
                abs(d * m.conjugate() + p * d.conjugate()))
            # the determinant and product they replaced agree
            assert abs(abs_det - abs(np.linalg.det(sm))) <= 1e-15
            assert abs(residual - np.max(np.abs(
                sm @ sm.conj().T - np.eye(2)))) <= 1e-15
            smatrix_rows.append({
                "k": k,
                "s_pp": cnum(sm[0, 0]), "s_pm": cnum(sm[0, 1]),
                "s_mp": cnum(sm[1, 0]), "s_mm": cnum(sm[1, 1]),
                "abs_det": abs_det, "unitarity_residual": residual})
        for command, key, rows in (("resolvent", "kappa_grid",
                                    resolvent_rows),
                                   ("smatrix", "k_grid", smatrix_rows)):
            cfg = write_config(tmp_path, {"schema": 1, "couplings": list(g),
                                          key: grid})
            for fmt, bulk in itertools.product(("json", "csv"), (1, 10 ** 9)):
                out = tmp_path / f"out.{fmt}"
                with mock.patch.object(cli, "_BULK_ROWS", bulk):
                    assert main([command, "--config", cfg, "--format", fmt,
                                 "--out", str(out)]) == 0
                assert out.read_bytes() == reference_text(
                    rows, fmt).encode(), (command, fmt, bulk)
        assert any(row["pole"] for row in resolvent_rows) == (g[0] == 2.0)

    @pytest.mark.skipif(not dynamic_openblas(),
                        reason="needs an x86_64 DYNAMIC_ARCH OpenBLAS")
    @pytest.mark.parametrize("name", ["smatrix_signed_zero",
                                      "resolvent_pole"])
    def test_grid_bytes_do_not_depend_on_blas_kernel(self, tmp_path, name):
        # The S-matrix and its diagnostics are real (re, im) arithmetic,
        # so a kernel without FMA (Prescott) gives the default bytes.
        command, config = GOLDEN[name]
        argv = [command, "--config", write_config(tmp_path, config)]
        assert run_child(argv, "Prescott") == run_child(argv)

    @pytest.mark.skipif(not dynamic_openblas(),
                        reason="needs an x86_64 DYNAMIC_ARCH OpenBLAS")
    def test_one_channel_scatter_bytes_do_not_depend_on_blas_kernel(
            self, tmp_path):
        # One channel takes its sites from pointcore's closed form, joins
        # them elementwise and applies them to the incident amplitudes
        # by an elementwise product and sum, with no BLAS or LAPACK call:
        # the README's three-site config, with a complex amplitude,
        # prints the default kernel's bytes under a kernel without FMA
        # (Prescott) and an AVX2 one (Haswell).
        cfg = write_config(tmp_path, {
            "schema": 1, "mode": "odd", "k_grid": [0.3, 0.9, 1.7, 2.6, 5],
            "amplitudes": [[0.6, 0.8]],
            "sites": [{"position": 0.0, "g1": 1.3},
                      {"position": 0.7, "g1": -0.5, "g3": 0.4},
                      {"position": 1.9, "g2": 0.8, "g3": 1.1}]})
        argv = ["scatter", "--config", cfg]
        default = run_child(argv)
        for coretype in ("Prescott", "Haswell"):
            assert run_child(argv, coretype) == default, coretype

    def test_missing_config_file(self, tmp_path, capsys):
        # a missing file, and one that is not UTF-8
        (tmp_path / "latin1.json").write_bytes(b'{"schema": 1, "x": "\xff"}')
        for name in ("nope.json", "latin1.json"):
            assert main(["resolvent", "--config",
                         str(tmp_path / name)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: cannot read config")

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "couplings": [1, 0, 0],
                                      "kappa_grid": [1.0]})
        out = tmp_path / "no" / "such" / "out.json"
        assert main(["resolvent", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"config error: cannot write output {out}: ")
        assert not out.parent.exists()


def kernel_text(values, fmt, scalar=cli._float_cells) -> list[str]:
    """The bulk kernel's cell of each value."""
    cells = bulktext.cell_bytes(np.asarray(values, dtype=float), fmt, scalar)
    return cells.view(f"S{bulktext._CELL}").ravel().astype(str).tolist()


def scalar_text(values, fmt) -> list[str]:
    return [("null" if fmt == "json" else "") if math.isnan(v)
            else repr(v) if fmt == "json" else "%.17g" % v for v in values]


class TestBulkFloatText:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(width=64), min_size=1, max_size=40),
           fmt=st.sampled_from(["json", "csv"]))
    def test_matches_repr_and_17g(self, values, fmt):
        assert kernel_text(values, fmt) == scalar_text(values, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_hard_cases(self, fmt):
        # decade boundaries +-50 ulp, 16- and 17-digit decimals ending in
        # 5, every power of two, signed zeros and the extremes
        rng = np.random.default_rng(17)
        decades = (10.0 ** np.arange(-307, 308, 2)).view(np.int64)
        near = (decades[:, None] + np.arange(-50, 51)).view(float).ravel()
        fives = [float(f"{d}5e{x}") for size in (15, 16) for d, x in zip(
            rng.integers(10 ** (size - 1), 10 ** size, 2000),
            rng.integers(-300, 300, 2000))]
        values = np.concatenate([near, fives, 2.0 ** np.arange(-1074, 1024),
                                 [0.0, 5e-324, 1.7976931348623157e308]])
        values = np.concatenate([values, -values])
        assert kernel_text(values, fmt) == scalar_text(values.tolist(), fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fast_path_formats_most_values(self, fmt):
        # a kernel that sends every value to the scalar formatter fails
        values = np.random.default_rng(3).uniform(1e-3, 1e3, 10000)
        scalar = mock.Mock(wraps=cli._float_cells)
        assert kernel_text(values, fmt, scalar) == scalar_text(
            values.tolist(), fmt)
        sent = sum(call.args[0].size for call in scalar.call_args_list)
        assert sent <= 0.1 * values.size

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blocks_match_reference(self, fmt):
        # a table of many blocks of rows, with null, bool and pair cells
        rng = np.random.default_rng(5)
        n = 4000
        f = rng.uniform(-2.0, 2.0, n)
        f[::7], f[::11] = np.nan, 0.0
        z = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n) + 1j
        columns = {"k": np.linspace(0.05, 12.0, n), "pole": f > 1.0,
                   "f1": f, "s_pp": z}
        rows = [{"k": k, "pole": pole, "f1": None if math.isnan(v) else v,
                 "s_pp": [w.real, w.imag]}
                for k, pole, v, w in zip(columns["k"].tolist(),
                                         columns["pole"].tolist(),
                                         f.tolist(), z.tolist())]
        assert n >= cli._BULK_ROWS
        assert cli._table_text(columns, fmt) == reference_text(rows, fmt)
