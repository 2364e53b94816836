"""The four workloads: a seeded cycle of requests, how a request runs, and
the check its output must pass.

Every workload is a closed loop with one client: the next request starts
when the previous one has returned.  A run repeats one cycle of requests
until its time is up.  The cycle is a pure function of the workload and
the seed, drawn from `np.random.default_rng(seed)`; it holds the same size
classes for every seed, so runs on different seeds do the same amount of
work, while the seed changes couplings, positions, grids, targets and order.

Each check compares the program's output with something it was not
computed by, at the tolerances the repository's own tests use.  The
oracles are bound here at import, before the tracer wraps the package,
so checking adds no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fermi1d.cli
from fermi1d import channels
from fermi1d.errors import PoleAtSpectralPoint, SingularSystem
from fermi1d.pointcore import (constants_from_couplings,
                               resolvent_from_constants)
from fermi1d.verify import transfer_matrix_oracle

HERE = Path(__file__).resolve().parent

# Tolerances and the pole-adjacent mask, as in tests/.
MASK_CLOSED = 100.0          # test_acceptance: max |f| for closed-form sweeps
QUAD_TOL = 1e-10             # test_pointcore round trip: atol = rtol
UNITARY_TOL = 1e-12          # criterion 04 and test_channels
FLUX_TOL = 1e-10             # criterion 05
TRANSFER_TOL = 1e-12         # criterion 05
MEMORY_TOL = 1e-9            # criterion 08 and test_cli

RESOLVENT_SAMPLE = 64        # rows per resolvent request checked by oracle


@dataclass
class Request:
    """One call into the program and what its check needs to know."""

    kind: str                      # size class, for the recorded mix
    argv: list = field(default_factory=list)
    spec: dict = field(default_factory=dict)
    warm: bool = False             # run during set-up as warm-up


def _dist(a, b) -> float:
    """2-norm distance of two state vectors over a global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    inner = np.vdot(a, b)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def _cnum(pair) -> complex:
    return complex(pair[0], pair[1])


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))


class Workload:
    """Base: a work directory, the seeded cycle and the run protocol."""

    name = ""
    # True when peak_rss_mb is that of the CLI children, not this process
    rss_of_children = False

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def cycle(self) -> list[Request]:
        raise NotImplementedError

    def prepare(self, cycle: list[Request]) -> None:
        """Set-up work beyond generating the cycle."""

    def execute(self, req: Request, tracer=None):
        """The timed call; returns what `load` turns into checkable data."""
        return fermi1d.cli.main(req.argv)

    def load(self, req: Request, raw):
        code = raw[0] if isinstance(raw, tuple) else raw
        if code != 0:
            return raw, None
        out = Path(req.spec["out"])
        with open(out) as fh:
            rows = json.load(fh)
        out.unlink()
        return raw, rows

    def check(self, req: Request, data) -> list[str]:
        raise NotImplementedError

    def perturb(self, req: Request, data):
        """A copy of the data with one result made wrong by a small amount,
        for the negative control."""
        raise NotImplementedError

    def _config(self, name: str, config: dict) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(config))
        return str(path)


# ---------------------------------------------------------------- closed forms

SMALL_SIZES = (10, 12, 15, 19, 23, 28, 35, 43, 53, 65, 81, 100)
# Three smatrix grids of 10^4 points, each about three times the cost of
# a resolvent grid of the same size.  A run repeats the whole cycle, so
# with four or more repetitions the 11th-largest latency, the tail, falls
# inside the smatrix class, near its median once the class has about 20
# samples.
LARGE_GRIDS = (("smatrix", 10_000),) * 3 + (("resolvent", 10_000),) * 2
FAMILIES = ("++", "+-", "-+", "--", "g1=0", "g3=0", "g2-only")


def _couplings(rng, family: str) -> list[float]:
    g1 = _signed(rng, 0.3, 5.0)
    g2 = float(rng.uniform(-3.0, 3.0))
    g3 = _signed(rng, 0.3, 5.0)
    if family in ("++", "+-", "-+", "--"):
        g1 = abs(g1) if family[0] == "+" else -abs(g1)
        g3 = abs(g3) if family[1] == "+" else -abs(g3)
    elif family == "g1=0":
        g1 = 0.0
    elif family == "g3=0":
        g3 = 0.0
    else:
        g1, g2, g3 = 0.0, _signed(rng, 0.3, 3.0), 0.0
    return [g1, g2, g3]


def _grid_values(spec) -> np.ndarray:
    if isinstance(spec, dict):
        return np.linspace(float(spec["start"]), float(spec["stop"]),
                           int(spec["num"]))
    return np.asarray(spec, dtype=float)


class ClosedForms(Workload):
    name = "closed_forms"

    def cycle(self):
        rng = np.random.default_rng(self.seed)
        plan = []
        for size in SMALL_SIZES:
            for command in ("resolvent", "smatrix"):
                grid = sorted(float(v) for v in rng.uniform(0.05, 12.0, size))
                plan.append((command, grid, f"{command}:10-100", True))
        for command, num in LARGE_GRIDS:
            grid = {"start": float(rng.uniform(0.05, 0.2)),
                    "stop": float(rng.uniform(8.0, 20.0)), "num": num}
            plan.append((command, grid, f"{command}:{num}", False))
        order = rng.permutation(len(plan))
        requests = []
        for j, pos in enumerate(order):
            command, grid, kind, warm = plan[pos]
            family = FAMILIES[j % len(FAMILIES)]
            g = _couplings(rng, family)
            key = "kappa_grid" if command == "resolvent" else "k_grid"
            cfg = self._config(f"c{j}", {"schema": 1, "couplings": g,
                                         key: grid})
            out = str(self.work / "out.json")
            requests.append(Request(
                kind, [command, "--config", cfg, "--out", out],
                {"command": command, "g": g, "grid": grid, "out": out,
                 "sample_seed": [self.seed, j]}, warm))
        return requests

    def check(self, req, data):
        code, rows = data
        if code != 0:
            return [f"exit code {code}"]
        grid = _grid_values(req.spec["grid"])
        axis = "kappa" if req.spec["command"] == "resolvent" else "k"
        if len(rows) != grid.size or not np.array_equal(
                [r[axis] for r in rows], grid):
            return ["rows do not match the requested grid"]
        if req.spec["command"] == "resolvent":
            return self._check_resolvent(req, rows)
        return self._check_smatrix(rows)

    def _check_resolvent(self, req, rows):
        c = constants_from_couplings(req.spec["g"])
        pick = np.random.default_rng(req.spec["sample_seed"]).choice(
            len(rows), size=min(len(rows), RESOLVENT_SAMPLE), replace=False)
        problems = []
        for i in pick:
            row = rows[i]
            if row["pole"]:
                continue
            direct = np.array([row["f1"], row["f2"], row["f3"], row["f4"]])
            if np.max(np.abs(direct)) > MASK_CLOSED:
                continue
            try:
                via = resolvent_from_constants(c, row["kappa"]).as_array()
            except PoleAtSpectralPoint:
                problems.append(f"oracle pole at kappa={row['kappa']}")
                continue
            if np.any(np.abs(via - direct) > QUAD_TOL + QUAD_TOL
                      * np.abs(direct)):
                problems.append(f"resolvent row kappa={row['kappa']} "
                                f"differs from the constants family")
        return problems

    @staticmethod
    def _check_smatrix(rows):
        s = np.array([[[_cnum(r["s_pp"]), _cnum(r["s_pm"])],
                       [_cnum(r["s_mp"]), _cnum(r["s_mm"])]] for r in rows])
        unit = np.abs(s @ s.conj().transpose(0, 2, 1) - np.eye(2)).max()
        det = np.abs(np.abs(np.linalg.det(s)) - 1.0).max()
        problems = []
        if unit > UNITARY_TOL:
            problems.append(f"S-matrix unitarity residual {unit:.3g}")
        if det > UNITARY_TOL:
            problems.append(f"S-matrix |det| off by {det:.3g}")
        return problems

    def perturb(self, req, data):
        code, rows = data
        rows = [dict(r) for r in rows]
        for r in rows:
            if req.spec["command"] == "resolvent":
                if not r["pole"]:
                    r["f1"] = r["f1"] * (1.0 + 1e-6) + 1e-6
            else:
                r["s_pp"] = [r["s_pp"][0] + 1e-6, r["s_pp"][1]]
        return code, rows


# ---------------------------------------------------------------- site arrays

# (m sites, n channels, k points, delta-only) of the arrays sent through
# `scatter`; each also gets one direct full_s_matrix call, on its complex
# hermitian twin when n > 1.  Three arrays of 400 sites get only
# full_s_matrix, because a 400-site scatter grid costs as much as a whole
# cycle.  Three keep the 11th-largest latency, the tail, inside that one
# group for any run of 4 to 10 repetitions.  The k counts put the median
# request, the 9th of 17, in a class at least 1.3 times away from its
# neighbours in cost.
SCATTER_ARRAYS = ((10, 1, 32, True), (50, 1, 8, True), (200, 1, 4, False),
                  (10, 2, 32, False), (100, 2, 4, False),
                  (10, 4, 16, False), (25, 4, 16, False))
S_MATRIX_ONLY = ((400, 1), (400, 1), (400, 1))
MODES = ("left", "right", "even", "odd")


def _site_entries(rng, m: int, n: int, delta: bool) -> list[dict]:
    positions = float(rng.uniform(-1.0, 0.0)) + np.cumsum(
        rng.uniform(0.3, 1.2, m))
    entries = []
    for pos in positions:
        entry = {"position": float(pos)}
        if n == 1:
            entry["g1"] = float(rng.uniform(-2.0, 2.0))
            if not delta:
                entry["g2"] = float(rng.uniform(-1.0, 1.0))
                entry["g3"] = float(rng.uniform(-0.5, 0.5))
        else:
            for key, scale in (("c1", 1.0), ("c2", 0.3), ("c3", 0.2)):
                a = rng.normal(size=(n, n))
                entry[key] = (scale * (a + a.T) / 2.0).tolist()
        entries.append(entry)
    return entries


def _complex_twin(rng, entries: list[dict]) -> list[dict]:
    """The same n > 1 array with hermitian couplings C + i*B/2, B real
    antisymmetric, so off-diagonal couplings are complex.  The CLI's
    config holds real nested lists only, so the twin goes to
    full_s_matrix directly."""
    twin = []
    for e in entries:
        t = dict(e)
        for key, scale in (("c1", 1.0), ("c2", 0.3), ("c3", 0.2)):
            b = rng.normal(size=(len(e[key]), len(e[key])))
            t[key] = np.array(e[key]) + 0.5j * scale * (b - b.T)
        twin.append(t)
    return twin


def _site_array(entries: list[dict]) -> channels.SiteArray:
    sites = []
    for e in entries:
        if "c1" in e:
            coup = channels.MatrixCouplings(
                np.array(e["c1"], dtype=complex),
                np.array(e["c2"], dtype=complex),
                np.array(e["c3"], dtype=complex))
        else:
            coup = channels.MatrixCouplings.from_scalars(
                e["g1"], e.get("g2", 0.0), e.get("g3", 0.0))
        sites.append((e["position"], coup))
    return channels.SiteArray(sites)


class SiteArrays(Workload):
    name = "site_arrays"

    def cycle(self):
        rng = np.random.default_rng(self.seed)
        plan = []
        for j, (m, n, points, delta) in enumerate(SCATTER_ARRAYS):
            entries = _site_entries(rng, m, n, delta)
            mode = "left" if delta else MODES[j % len(MODES)]
            cfg = {"schema": 1, "sites": entries, "mode": mode,
                   "k_grid": sorted(float(v) for v in
                                    rng.uniform(0.2, 4.0, points))}
            if n > 1:
                amps = rng.normal(size=n) + 1j * rng.normal(size=n)
                amps /= np.linalg.norm(amps)
                cfg["amplitudes"] = [[float(a.real), float(a.imag)]
                                     for a in amps]
            out = str(self.work / "out.json")
            path = self._config(f"c{j}", cfg)
            plan.append(Request(
                f"scatter:m={m},n={n}",
                ["scatter", "--config", path, "--out", out],
                {"config": cfg, "out": out, "delta": delta}, warm=m <= 10))
            plan.append(self._s_matrix_request(
                rng, _complex_twin(rng, entries) if n > 1 else entries, m, n))
        for m, n in S_MATRIX_ONLY:
            plan.append(self._s_matrix_request(
                rng, _site_entries(rng, m, n, False), m, n))
        return [plan[i] for i in rng.permutation(len(plan))]

    @staticmethod
    def _s_matrix_request(rng, entries, m, n):
        return Request(f"full_s_matrix:m={m},n={n}", [],
                       {"sites": _site_array(entries),
                        "k": float(rng.uniform(0.2, 4.0)), "n": n},
                       warm=m <= 10)

    def execute(self, req, tracer=None):
        if req.argv:
            return fermi1d.cli.main(req.argv)
        try:
            return channels.full_s_matrix(req.spec["sites"], req.spec["k"])
        except SingularSystem:
            return None            # a resonance: flagged, not failed

    def load(self, req, raw):
        return super().load(req, raw) if req.argv else raw

    def check(self, req, data):
        if not req.argv:
            return [] if data is None else self._check_s_matrix(req, data)
        code, rows = data
        if code != 0:
            return [f"exit code {code}"]
        cfg = req.spec["config"]
        if [r["k"] for r in rows] != cfg["k_grid"]:
            return ["rows do not match the requested grid"]
        flux_in = 1.0 if cfg["mode"] in ("left", "right") else 0.5
        problems = []
        for row in rows:
            if row["singular"]:
                continue
            left = np.array([_cnum(v) for v in row["outgoing_left"]])
            right = np.array([_cnum(v) for v in row["outgoing_right"]])
            flux = np.sum(np.abs(left) ** 2 + np.abs(right) ** 2) - flux_in
            if abs(flux) > FLUX_TOL:
                problems.append(f"flux residual {flux:.3g} at k={row['k']}")
            if req.spec["delta"]:
                t, r = transfer_matrix_oracle(
                    [(e["position"], e["g1"]) for e in cfg["sites"]],
                    row["k"])
                if (abs(right[0] - t) > TRANSFER_TOL
                        or abs(left[0] - r) > TRANSFER_TOL):
                    problems.append("transfer-matrix mismatch at "
                                    f"k={row['k']}")
        return problems

    @staticmethod
    def _check_s_matrix(req, s):
        dim = 2 * req.spec["n"]
        if s.shape != (dim, dim):
            return [f"S-matrix shape {s.shape}"]
        unit = np.abs(s @ s.conj().T - np.eye(dim)).max()
        return ([] if unit <= UNITARY_TOL
                else [f"full S-matrix unitarity residual {unit:.3g}"])

    def perturb(self, req, data):
        if not req.argv:
            s = data.copy()
            s[0, 0] += 1e-6
            return s
        code, rows = data
        rows = [dict(r) for r in rows]
        for r in rows:
            if not r["singular"]:
                v = r["outgoing_left"][0]
                r["outgoing_left"] = [[v[0] + 1e-6, v[1]]] + \
                    r["outgoing_left"][1:]
        return code, rows


# ---------------------------------------------------------- memory protocol

SCRIPTS_PER_CYCLE = 48
# Scripts long enough that the 11th-largest latency is not set by a
# single short stall of the host.
ROUNDS = (4, 8, 12)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# The CLI's default standard state: equal weights, relative phase pi/4.
STANDARD = np.array([1.0, np.exp(1j * math.pi / 4.0)]) / math.sqrt(2.0)


def _su2(parity: str, k: float, g1: float, g3: float) -> np.ndarray:
    """exp(-i sigma theta) for one scattering, from the rotation angle."""
    if parity == "even":
        theta, sigma = 2.0 * math.atan(g1 / (2.0 * k)), _SX
    else:
        theta, sigma = 2.0 * math.atan(g3 * k / 2.0), _SZ
    return math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * sigma


def _plan_matrix(plan, g1, g3) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for op in plan:
        u = u @ _su2(op["parity"], op["k"], g1, g3)
    return u


class MemoryProtocol(Workload):
    name = "memory_protocol"

    def execute(self, req, tracer=None):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            return fermi1d.cli.main(req.argv), err.getvalue()

    def cycle(self):
        rng = np.random.default_rng(self.seed)
        requests = []
        for j in range(SCRIPTS_PER_CYCLE):
            rounds = ROUNDS[j % len(ROUNDS)]
            g1 = _signed(rng, 0.5, 4.0)
            g3 = _signed(rng, 0.5, 4.0)
            script = []
            for _ in range(rounds):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                script += [
                    {"op": "write", "target": [[float(c.real), float(c.imag)]
                                               for c in v]},
                    {"op": "read"}]
                script += [{"op": "scatter",
                            "parity": str(rng.choice(("even", "odd"))),
                            "k": float(rng.uniform(0.2, 5.0))}
                           for _ in range(2)]
                script.append({"op": "reset"})
            cfg = {"schema": 1, "g1": g1, "g3": g3, "script": script}
            out = str(self.work / "out.json")
            path = self._config(f"c{j}", cfg)
            requests.append(Request(
                f"script:{rounds}-round",
                ["memory", "--config", path, "--out", out],
                {"config": cfg, "out": out},
                warm=j < len(ROUNDS)))
        return [requests[i] for i in rng.permutation(len(requests))]

    def check(self, req, data):
        (code, stderr), log = data
        cfg = req.spec["config"]
        script = cfg["script"]
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        g1, g3 = cfg["g1"], cfg["g3"]
        if [e["op"] for e in log] != [c["op"] for c in script]:
            return ["event log does not follow the script"]
        state = STANDARD.copy()
        problems = []
        for cmd, event in zip(script, log):
            op = cmd["op"]
            if op == "read":
                recovered = [_cnum(c) for c in event["recovered_state"]]
                err = _dist(recovered, state)
                if not err < MEMORY_TOL:
                    problems.append(f"step {event['step']}: recovery "
                                    f"error {err:.3g}")
            elif op == "scatter":
                state = _su2(cmd["parity"], cmd["k"], g1, g3) @ state
            else:
                state = _plan_matrix(event["plan"], g1, g3) @ state
                goal = (np.array([_cnum(c) for c in cmd["target"]])
                        if op == "write" else STANDARD)
                err = _dist(state, goal)
                if not err < MEMORY_TOL:
                    problems.append(f"step {event['step']}: {op} error "
                                    f"{err:.3g}")
            err = _dist([_cnum(c) for c in event["state"]], state)
            if not err < MEMORY_TOL:
                problems.append(f"step {event['step']}: state after {op} "
                                f"off by {err:.3g}")
        return problems

    def perturb(self, req, data):
        code, log = data
        log = [dict(e) for e in log]
        for e in log:
            if e["op"] == "read":
                a1 = e["recovered_state"][0]
                e["recovered_state"] = [[a1[0] + 1e-2, a1[1]],
                                        e["recovered_state"][1]]
        return code, log


# -------------------------------------------------------------- cli oneshot

class CliOneshot(Workload):
    name = "cli_oneshot"
    rss_of_children = True

    def cycle(self):
        rng = np.random.default_rng(self.seed)
        grid = sorted(float(v) for v in rng.uniform(0.05, 12.0, 20))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        memory = {"schema": 1, "g1": _signed(rng, 0.5, 4.0),
                  "g3": _signed(rng, 0.5, 4.0),
                  "script": [{"op": "write",
                              "target": [[float(c.real), float(c.imag)]
                                         for c in v]},
                             {"op": "read"},
                             {"op": "reset"}]}
        configs = [
            ("resolvent", {"schema": 1, "kappa_grid": grid,
                           "couplings": _couplings(rng, "++")}, [], 0),
            ("smatrix", {"schema": 1, "k_grid": grid,
                         "couplings": _couplings(rng, "-+")}, [], 0),
            ("scatter", {"schema": 1, "sites": _site_entries(rng, 6, 1, False),
                         "mode": str(rng.choice(MODES)),
                         "k_grid": sorted(float(k) for k in
                                          rng.uniform(0.2, 4.0, 8))}, [], 0),
            ("memory", memory,
             ["--seed", str(int(rng.integers(0, 2 ** 31)))], 0),
            ("verify", {"schema": 1}, [], 0),
            ("verify", {"schema": 1, "checks": ["corrupted_self_test"]},
             [], 1),
        ]
        requests = []
        for j, (command, cfg, extra, expected) in enumerate(configs):
            path = self._config(f"c{j}", cfg)
            kind = command if j < 5 else "verify:corrupted_self_test"
            requests.append(Request(
                kind, [command, "--config", path, *extra],
                {"out": str(self.work / "out.json"),
                 "ref": str(self.work / f"ref{j}.json"),
                 "expected": expected}, warm=j == 0))
        return requests

    def prepare(self, cycle):
        """The in-process output of every config is the reference bytes.
        A wrong exit code here shows again in every child of the loop,
        which the check counts as failed."""
        for req in cycle:
            ref = Path(req.spec["ref"])
            with contextlib.redirect_stderr(io.StringIO()):
                fermi1d.cli.main([*req.argv, "--out", str(ref)])
            req.spec["ref_bytes"] = ref.read_bytes() if ref.exists() else b""

    def execute(self, req, tracer=None):
        argv = [*req.argv, "--out", req.spec["out"]]
        if tracer is None:
            cmd = [sys.executable, "-m", "fermi1d.cli", *argv]
        else:
            spans = str(self.work / "spans.jsonl")
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   "--spans", spans, "--", *argv]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        if tracer is not None:
            with open(spans) as fh:
                tracer.extend([json.loads(line) for line in fh],
                              tracer.request)
        return proc.returncode, proc.stderr

    def load(self, req, raw):
        code, _ = raw
        out = Path(req.spec["out"])
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, data

    def check(self, req, data):
        code, output = data
        problems = []
        if code != req.spec["expected"]:
            problems.append(f"{req.kind} exited {code}, expected "
                            f"{req.spec['expected']}")
        if output != req.spec["ref_bytes"]:
            problems.append(f"{req.kind} output differs from the "
                            "in-process output")
        return problems

    def perturb(self, req, data):
        code, output = data
        return code, output[:-2] + bytes([output[-2] ^ 1]) + output[-1:]


WORKLOADS = {w.name: w for w in (ClosedForms, SiteArrays, MemoryProtocol,
                                 CliOneshot)}
