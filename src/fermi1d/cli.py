"""Command-line front end.

One JSON config document per invocation (schema 1), one computation
target per run.  Output is a machine-readable table (JSON or CSV) on
stdout or --out.  Exit codes: 0 success, 1 verification failure,
2 config error, 3 domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import channels, pointcore, qmemory, verify
from .errors import (
    ConfigError,
    Fermi1dError,
    PoleAtSpectralPoint,
    SingularSystem,
)

_SCHEMA = 1


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema") != _SCHEMA:
        raise ConfigError(f"config schema must be {_SCHEMA}")
    return config


def _grid(config: dict, key: str) -> np.ndarray:
    """A positive, non-empty grid: an explicit list or a linspace spec."""
    if key not in config:
        raise ConfigError(f"config needs '{key}'")
    spec = config[key]
    if isinstance(spec, dict):
        try:
            grid = np.linspace(float(spec["start"]), float(spec["stop"]),
                               int(spec["num"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid spec for '{key}': {exc}") from exc
    else:
        try:
            grid = np.asarray([float(v) for v in spec])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid for '{key}': {exc}") from exc
    if grid.size == 0:
        raise ConfigError(f"'{key}' must be non-empty")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise ConfigError(f"'{key}' values must be positive and finite")
    return grid


def _couplings(config: dict) -> tuple[float, float, float]:
    g = config.get("couplings")
    if (not isinstance(g, (list, tuple)) or len(g) != 3
            or not all(isinstance(v, (int, float)) for v in g)):
        raise ConfigError("'couplings' must be three numbers")
    return tuple(float(v) for v in g)


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_cnum(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{what} must be a number or an [re, im] pair")


def cmd_resolvent(config: dict) -> list[dict]:
    g = _couplings(config)
    rows = []
    for kappa in _grid(config, "kappa_grid"):
        row = {"kappa": float(kappa)}
        try:
            quad = pointcore.resolvent_from_couplings(g, float(kappa))
        except PoleAtSpectralPoint:
            row.update({"pole": True, "f1": None, "f2": None,
                        "f3": None, "f4": None})
        else:
            row.update({"pole": False, "f1": quad.f1, "f2": quad.f2,
                        "f3": quad.f3, "f4": quad.f4})
        rows.append(row)
    return rows


def cmd_smatrix(config: dict) -> list[dict]:
    g = _couplings(config)
    rows = []
    for k in _grid(config, "k_grid"):
        s = pointcore.s_matrix(g, float(k))
        unit = float(np.max(np.abs(s @ s.conj().T - np.eye(2))))
        rows.append({
            "k": float(k),
            "s_pp": _cnum(s[0, 0]), "s_pm": _cnum(s[0, 1]),
            "s_mp": _cnum(s[1, 0]), "s_mm": _cnum(s[1, 1]),
            "abs_det": float(abs(np.linalg.det(s))),
            "unitarity_residual": unit,
        })
    return rows


def _site_array(config: dict) -> channels.SiteArray:
    raw = config.get("sites")
    if not isinstance(raw, list):
        raise ConfigError("'sites' must be a list")
    sites = []
    for entry in raw:
        try:
            pos = float(entry["position"])
            if "c1" in entry:
                coup = channels.MatrixCouplings(
                    np.array(entry["c1"], dtype=complex),
                    np.array(entry["c2"], dtype=complex),
                    np.array(entry["c3"], dtype=complex))
            else:
                coup = channels.MatrixCouplings.from_scalars(
                    float(entry.get("g1", 0.0)),
                    float(entry.get("g2", 0.0)),
                    float(entry.get("g3", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad site entry: {exc}") from exc
        sites.append((pos, coup))
    try:
        return channels.SiteArray(sites)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_scatter(config: dict) -> list[dict]:
    sites = _site_array(config)
    mode = config.get("mode", "left")
    amps = config.get("amplitudes")
    if amps is not None:
        amps = np.array([_parse_cnum(a, "amplitude") for a in amps])
    rows = []
    for k in _grid(config, "k_grid"):
        row = {"k": float(k), "mode": mode}
        try:
            wave = channels.IncidentWave(float(k), mode, amps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            sol = channels.solve_scattering(sites, wave)
        except SingularSystem:
            row.update({"singular": True})
        else:
            row.update({
                "singular": False,
                "outgoing_left": [_cnum(v) for v in sol.outgoing_left],
                "outgoing_right": [_cnum(v) for v in sol.outgoing_right],
                "reflection": [float(v) for v in sol.reflection],
                "transmission": [float(v) for v in sol.transmission],
                "flux_residual": sol.flux_residual,
            })
        rows.append(row)
    return rows


def _parse_state(value, what: str) -> qmemory.MemoryState:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ConfigError(f"{what} must be two components")
    try:
        return qmemory.MemoryState(_parse_cnum(value[0], what),
                                   _parse_cnum(value[1], what))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def cmd_memory(config: dict, seed: int | None) -> list[dict]:
    try:
        g1 = float(config["g1"])
        g3 = float(config["g3"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config needs numeric 'g1' and 'g3': "
                          f"{exc}") from exc
    if g1 == 0.0 or g3 == 0.0:
        raise ConfigError("'g1' and 'g3' must be nonzero")
    script = config.get("script", [])
    if not isinstance(script, list):
        raise ConfigError("'script' must be a list of commands")
    standard = qmemory.STANDARD_STATE
    if "standard_state" in config:
        standard = _parse_state(config["standard_state"], "standard_state")
    state = standard
    rng = np.random.default_rng(seed)
    log = []
    for idx, cmd in enumerate(script):
        if not isinstance(cmd, dict) or "op" not in cmd:
            raise ConfigError(f"script entry {idx} needs an 'op' field")
        op = cmd["op"]
        event = {"step": idx, "op": op}
        if op == "write":
            target = _parse_state(cmd.get("target"), "write target")
            plan = qmemory.write(state, target, g1, g3)
            state = qmemory.apply_plan(state, plan, g1, g3)
            event["plan"] = [{"parity": o.parity, "k": o.k} for o in plan]
            event["write_error"] = state.distance_up_to_phase(target)
        elif op == "read":
            sigma = float(cmd.get("noise_sigma", 0.0))
            before = state
            obs, recovered, state = qmemory.read_protocol(
                state, standard, g1, g3, noise_sigma=sigma, rng=rng)
            event["observables"] = {
                "A1": obs.A1, "A2": obs.A2, "A3": obs.A3, "A4": obs.A4}
            event["recovered_state"] = [_cnum(recovered.a1),
                                        _cnum(recovered.a2)]
            event["recovery_error"] = \
                recovered.distance_up_to_phase(before)
            event["restoration_error"] = \
                state.distance_up_to_phase(before)
        elif op == "reset":
            plan = qmemory.reset(state, standard, g1, g3)
            state = qmemory.apply_plan(state, plan, g1, g3)
            event["plan"] = [{"parity": o.parity, "k": o.k} for o in plan]
            event["reset_error"] = state.distance_up_to_phase(standard)
        elif op == "scatter":
            try:
                sop = qmemory.ScatterOp(cmd.get("parity"),
                                        float(cmd.get("k")))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"script entry {idx}: {exc}") from exc
            state = qmemory.apply_scatter(state, sop, g1, g3)
        else:
            raise ConfigError(f"script entry {idx}: unknown op {op!r}")
        event["state"] = [_cnum(state.a1), _cnum(state.a2)]
        log.append(event)
    return log


def cmd_verify(config: dict) -> tuple[list[dict], bool]:
    names = config.get("checks")
    if names is not None:
        if not isinstance(names, list):
            raise ConfigError("'checks' must be a list of names")
        if not names:
            raise ConfigError("'checks' must not be empty")
        unknown = [n for n in names if n not in verify.default_suite()]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
    reports = verify.run_suite(names)
    rows = [{"name": r.name, "max_residual": float(r.max_residual),
             "tolerance": float(r.tolerance), "grid": r.grid,
             "passed": bool(r.passed)} for r in reports]
    return rows, all(r.passed for r in reports)


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


def _emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    else:
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
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermi1d",
        description="Point-interaction scattering computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("resolvent", "resolvent quads on a kappa grid"),
            ("smatrix", "single-site S-matrix on a k grid"),
            ("scatter", "multi-site multichannel scattering"),
            ("memory", "quantum-memory protocol script"),
            ("verify", "run the numerical oracle suite")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True,
                       help="path to the JSON config document")
        p.add_argument("--format", choices=("json", "csv"),
                       default="json")
        if name == "memory":
            p.add_argument("--seed", type=int, default=None,
                           help="seed for randomized protocol noise")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "resolvent":
            rows = cmd_resolvent(config)
        elif args.command == "smatrix":
            rows = cmd_smatrix(config)
        elif args.command == "scatter":
            rows = cmd_scatter(config)
        elif args.command == "memory":
            rows = cmd_memory(config, args.seed)
        else:
            rows, all_passed = cmd_verify(config)
            _emit(rows, args.format, args.out)
            return 0 if all_passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Fermi1dError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    _emit(rows, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
