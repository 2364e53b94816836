"""Command-line front end.

One JSON config document per invocation (schema 1), one computation
target per run.  Output is a machine-readable table (JSON or CSV) on
stdout or --out.  Exit codes: 0 success, 1 verification failure,
2 config error, 3 domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import channels, pointcore, qmemory, verify
from .errors import ConfigError, Fermi1dError

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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid spec for '{key}': {exc}") from exc
    else:
        try:
            grid = np.asarray([float(v) for v in spec])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid for '{key}': {exc}") from exc
    if grid.size == 0:
        raise ConfigError(f"'{key}' must be non-empty")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise ConfigError(f"'{key}' values must be positive and finite")
    return grid


def _couplings(config: dict) -> tuple[float, float, float]:
    g = config.get("couplings")
    if (isinstance(g, (list, tuple)) and len(g) == 3
            and all(isinstance(v, (int, float)) for v in g)):
        try:
            g = tuple(float(v) for v in g)
        except OverflowError:       # an int too large for a float
            pass
        else:
            if all(map(math.isfinite, g)):
                return g
    raise ConfigError("'couplings' must be three finite numbers")


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_cnum(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{what} must be a number or an [re, im] pair")


def cmd_resolvent(config: dict) -> dict:
    g = _couplings(config)
    kappa = _grid(config, "kappa_grid")
    quad, pole = pointcore.resolvent_grid(g, kappa)
    return {"kappa": kappa, "pole": pole, "f1": quad.f1, "f2": quad.f2,
            "f3": quad.f3, "f4": quad.f4}


def cmd_smatrix(config: dict) -> dict:
    g = _couplings(config)
    k = _grid(config, "k_grid")
    s = pointcore.s_matrix_grid(g, k)
    unit = np.max(np.abs(s @ s.conj().transpose(0, 2, 1) - np.eye(2)),
                  axis=(1, 2))
    det = np.linalg.det(s)
    # hypot, as abs() of one complex scalar; np.abs of a complex array
    # may round differently
    return {"k": k, "s_pp": s[:, 0, 0], "s_pm": s[:, 0, 1],
            "s_mp": s[:, 1, 0], "s_mm": s[:, 1, 1],
            "abs_det": np.hypot(det.real, det.imag),
            "unitarity_residual": unit}


def _stacked_sites(raw: list) -> channels.SiteArray:
    """The sites of a well-formed config as one positions list and one
    coupling stack, checked once; scalar sites are 1 x 1 matrices."""
    positions, couplings = [], ([], [], [])
    for entry in raw:
        positions.append(float(entry["position"]))
        for stack, c, g in zip(couplings, ("c1", "c2", "c3"),
                               ("g1", "g2", "g3")):
            stack.append(entry[c] if "c1" in entry
                         else [[float(entry.get(g, 0.0))]])
    return channels.SiteArray.from_arrays(positions, couplings)


def _site_array(config: dict) -> channels.SiteArray:
    raw = config.get("sites")
    if not isinstance(raw, list):
        raise ConfigError("'sites' must be a list")
    if raw:
        try:
            return _stacked_sites(raw)
        except (KeyError, TypeError, ValueError, OverflowError):
            # malformed: reading it site by site below raises the error
            # of the first bad site, in the order the checks meet it
            pass
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
        if not isinstance(amps, list):
            raise ConfigError("'amplitudes' must be a list")
        try:
            amps = np.array([_parse_cnum(a, "amplitude") for a in amps])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"amplitude: {exc}") from exc
    k_grid = _grid(config, "k_grid")
    try:
        wave = channels.IncidentWave(k_grid, mode, amps)
        wave.pins(sites.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    s, singular = channels.full_s_matrix_grid(sites, k_grid)
    sol = channels.ScatteringSolution.from_s_matrix(s, wave)

    def pairs(z):
        return np.stack([z.real, z.imag], axis=-1).tolist()

    rows = []
    for k, flagged, left, right, refl, trans, flux in zip(
            k_grid.tolist(), singular.tolist(), pairs(sol.outgoing_left),
            pairs(sol.outgoing_right), sol.reflection.tolist(),
            sol.transmission.tolist(), sol.flux_residual.tolist()):
        row = {"k": k, "mode": mode, "singular": flagged}
        if not flagged:
            row.update({"outgoing_left": left, "outgoing_right": right,
                        "reflection": refl, "transmission": trans,
                        "flux_residual": flux})
        rows.append(row)
    return rows


def _parse_state(value, what: str) -> qmemory.MemoryState:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ConfigError(f"{what} must be two components")
    try:
        return qmemory.MemoryState(_parse_cnum(value[0], what),
                                   _parse_cnum(value[1], what))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def cmd_memory(config: dict, seed: int | None) -> list[dict]:
    try:
        g1 = float(config["g1"])
        g3 = float(config["g3"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config needs numeric 'g1' and 'g3': "
                          f"{exc}") from exc
    if not (math.isfinite(g1) and math.isfinite(g3)):
        raise ConfigError("'g1' and 'g3' must be finite")
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
            event["plan"] = [{"parity": p, "k": k}
                             for p, k in zip(plan.parity, plan.k)]
            event["write_error"] = state.distance_up_to_phase(target)
        elif op == "read":
            try:
                sigma = float(cmd.get("noise_sigma", 0.0))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"script entry {idx}: {exc}") from exc
            if not 0.0 <= sigma < float("inf"):
                raise ConfigError(f"script entry {idx}: 'noise_sigma' must "
                                  f"be a finite number >= 0")
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
            event["plan"] = [{"parity": p, "k": k}
                             for p, k in zip(plan.parity, plan.k)]
            event["reset_error"] = state.distance_up_to_phase(standard)
        elif op == "scatter":
            try:
                wave = qmemory.Plan((cmd.get("parity"),),
                                    (float(cmd.get("k")),))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"script entry {idx}: {exc}") from exc
            state = qmemory.apply_plan(state, wave, g1, g3)
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


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    _write(text, out_path)


def _cells(col: np.ndarray, fmt: str) -> list[str]:
    """A column's values as _emit writes them: bools as true/false,
    floats as json writes them (repr) or as %.17g, NaN as null.  Each
    distinct float is formatted once."""
    if col.dtype == bool:
        return np.where(col, "true", "false").tolist()
    distinct, where = np.unique(np.ascontiguousarray(col).view(np.int64),
                                return_inverse=True)
    floats = distinct.view(float)
    if fmt == "json":
        text = np.array(repr(floats.tolist())[1:-1].split(", "), dtype=object)
    else:
        text = np.array(["%.17g" % v for v in floats.tolist()], dtype=object)
    text[np.isnan(floats)] = "null" if fmt == "json" else ""
    return text[where.ravel()].tolist()


def _emit_columns(columns: dict, fmt: str, out_path: str | None) -> None:
    """Write a table of equal-length columns, keyed in row order, with
    the bytes `_emit` writes for the same rows.  Complex columns are
    [re, im] pairs; finite floats are assumed, NaN meaning null.

    Every row is filled into one template built from the keys: sorted
    and indented for JSON, comma-joined for CSV.
    """
    keys = sorted(columns) if fmt == "json" else list(columns)
    formatted = {}   # equal columns (S++ and S--, f2 and f4) share cells

    def cells(col, cell_fmt):
        memo = (col.dtype.str, col.tobytes(), cell_fmt)
        if memo not in formatted:
            formatted[memo] = _cells(col, cell_fmt)
        return formatted[memo]

    fields, slots = [], []
    for key in keys:
        col = columns[key]
        if np.iscomplexobj(col):
            # a pair is a json list in both formats
            slots += [cells(col.real, "json"), cells(col.imag, "json")]
            fields.append(f'"{key}": [\n      %s,\n      %s\n    ]'
                          if fmt == "json" else '"[%s,%s]"')
        else:
            slots.append(cells(col, fmt))
            fields.append(f'"{key}": %s' if fmt == "json" else "%s")
    if fmt == "json":
        row = "  {\n    " + ",\n    ".join(fields) + "\n  }"
        text = ("[\n" + ",\n".join(row % values for values in zip(*slots))
                + "\n]\n")
    else:
        row = ",".join(fields) + "\n"
        text = ",".join(keys) + "\n" + "".join(
            row % values for values in zip(*slots))
    _write(text, out_path)


@functools.cache
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
            table, emit = cmd_resolvent(config), _emit_columns
        elif args.command == "smatrix":
            table, emit = cmd_smatrix(config), _emit_columns
        elif args.command == "scatter":
            table, emit = cmd_scatter(config), _emit
        elif args.command == "memory":
            table, emit = cmd_memory(config, args.seed), _emit
        else:
            table, all_passed = cmd_verify(config)
            _emit(table, args.format, args.out)
            return 0 if all_passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Fermi1dError, ValueError, OverflowError) as exc:
        # OverflowError: x ** 2 of a float above about 1.3e154
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    emit(table, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
