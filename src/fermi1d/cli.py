"""Command-line front end.

One JSON config document per invocation (schema 1), one computation
target per run.  Output is a machine-readable table (JSON or CSV) on
stdout or --out.  Exit codes: 0 success, 1 verification failure,
2 config error, 3 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import channels, pointcore, qmemory, verify
from .errors import ConfigError, Fermi1dError
from .pointcore import _cadd, _cmul, _csub

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
            if grid.size != float(spec["num"]):
                raise ValueError(f"'num' must be whole, not {spec['num']}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid spec for '{key}': {exc}") from exc
    else:
        try:
            if isinstance(spec, str):
                raise TypeError("a string is not a list of numbers")
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
    # With S++ = S-- = d, S+- = p and S-+ = m, S S^dagger - I holds
    # |d|^2 + |p|^2 - 1, |d|^2 + |m|^2 - 1 and the conjugate pair
    # d m* + p d*, and det S = d^2 - p m: pointcore's (re, im) arithmetic
    # with no BLAS call, and |z| by hypot, as abs() of a complex scalar.
    d, p, m = ((s.real[:, i, j], s.imag[:, i, j])
               for i, j in ((0, 0), (0, 1), (1, 0)))
    dd = d[0] * d[0] + d[1] * d[1]
    off = _cadd(_cmul(d, (m[0], -m[1])), _cmul(p, (d[0], -d[1])))
    unit = np.maximum.reduce([np.abs(dd + (q[0] * q[0] + q[1] * q[1]) - 1.0)
                              for q in (p, m)] + [np.hypot(*off)])
    return {"k": k, "s_pp": s[:, 0, 0], "s_pm": s[:, 0, 1],
            "s_mp": s[:, 1, 0], "s_mm": s[:, 1, 1],
            "abs_det": np.hypot(*_csub(_cmul(d, d), _cmul(p, m))),
            "unitarity_residual": unit}


def _site_array(config: dict) -> channels.SiteArray:
    """The `sites` of a config in one pass: matrices c1..c3, or scalars
    g1..g3 (0 if absent) as 1 x 1 matrices, stacked for the array to
    check at once.  An error in one site names its index."""
    raw = config.get("sites")
    if not isinstance(raw, list):
        raise ConfigError("'sites' must be a list")
    positions, sites = [], []
    for i, entry in enumerate(raw):
        try:
            positions.append(float(entry["position"]))
            if "c1" not in entry:
                sites.append([[[float(entry.get(g, 0.0))]]
                              for g in ("g1", "g2", "g3")])
                continue
            site = [np.array(entry[c], dtype=complex)
                    for c in ("c1", "c2", "c3")]
            for c, m in zip(("c1", "c2", "c3"), site):
                if m.ndim != 2 or m.shape[0] != m.shape[1]:
                    raise ValueError(f"{c} must be a square matrix")
            if not site[0].shape == site[1].shape == site[2].shape:
                raise ValueError("coupling matrices must share one dimension")
            sites.append(site)
        except KeyError as exc:
            raise ConfigError(f"site {i} needs {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"site {i}: {exc}") from exc
    if len({len(site[0]) for site in sites}) > 1:
        raise ConfigError("all sites must share the channel count")
    try:
        return channels.SiteArray.from_arrays(
            positions, list(zip(*sites)) or np.zeros((3, 0, 1, 1)))
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
    names = ("outgoing_left", "outgoing_right", "reflection", "transmission",
             "flux_residual")
    solution = zip(*(np.stack([v.real, v.imag], axis=-1).tolist()
                     if np.iscomplexobj(v) else v.tolist()
                     for v in (getattr(sol, name) for name in names)))
    rows = []
    for k, flagged, values in zip(k_grid.tolist(), singular.tolist(),
                                  solution):
        rows.append({"k": k, "mode": mode, "singular": flagged})
        if not flagged:     # a singular row has no solution
            rows[-1].update(zip(names, values))
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
        if op in ("write", "reset"):
            target = (standard if op == "reset" else
                      _parse_state(cmd.get("target"), "write target"))
            plan = (qmemory.write if op == "write" else qmemory.reset)(
                state, target, g1, g3)
            state = qmemory.apply_plan(state, plan, g1, g3)
            event["plan"] = [{"parity": p, "k": k}
                             for p, k in zip(plan.parity, plan.k)]
            event[op + "_error"] = state.distance_up_to_phase(target)
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
            event.update(
                observables={"A1": obs.A1, "A2": obs.A2, "Ay": obs.Ay,
                             "A3": obs.A3},
                recovered_state=[_cnum(recovered.a1), _cnum(recovered.a2)],
                recovery_error=recovered.distance_up_to_phase(before),
                restoration_error=state.distance_up_to_phase(before))
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
        unknown = [n for n in names if not isinstance(n, str)
                   or n not in verify.default_suite()]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}")
    reports = verify.run_suite(names)
    rows = [{"name": r.name, "max_residual": float(r.max_residual),
             "tolerance": float(r.tolerance), "grid": r.grid,
             "passed": bool(r.passed)} for r in reports]
    return rows, all(r.passed for r in reports)


_ABSENT = object()      # the cell of a row that lacks its column's key
_BULK_ROWS = 150    # smaller tables keep repr and the % fill (measured)
_NEEDS_QUOTES = re.compile(r'[,"\n]').search     # as csv's QUOTE_MINIMAL


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _float_cells(col: np.ndarray, fmt: str) -> list[str]:
    """Bools as true/false, floats as json writes them (repr) or as
    %.17g, NaN as null.  Each distinct float is formatted once."""
    if col.dtype == bool:
        return np.where(col, "true", "false").tolist()
    distinct, where = np.unique(np.ascontiguousarray(col).view(np.int64),
                                return_inverse=True)
    floats = distinct.view(float)
    text = np.array(repr(floats.tolist())[1:-1].split(", ") if fmt == "json"
                    else ["%.17g" % v for v in floats.tolist()], dtype=object)
    text[np.isnan(floats)] = "null" if fmt == "json" else ""
    return text[where.ravel()].tolist()


def _json_items(values: list, fmt: str) -> list[str]:
    """json's text of each of `values`: compact for csv, and for json
    indented as a row's value, at depth 2.  One indented encode of the
    list, indented once more, parts at a comma, a line break and exactly
    four spaces: json escapes line breaks inside strings."""
    text = json.dumps(values, sort_keys=True, indent=2, separators=(
        ",", ":" if fmt == "csv" else ": "))
    items = re.split(r",\n    (?! )", text.replace("\n", "\n  ")[6:-4])
    return items if fmt == "json" else [re.sub(r"\n *", "", item)
                                        for item in items]


@functools.cache
def _template(shape: tuple, fmt: str) -> str:
    """json's text of a value with trailing axes `shape`, %s at a leaf."""
    return _json_items([np.zeros(shape).tolist()], fmt)[0].replace("0.0", "%s")


def _table_text(columns: dict | list, fmt: str) -> str:
    """Rows, or columns keyed in row order, as JSON (row objects, keys
    sorted, indented by two) or CSV (a header of the keys in order).  A
    column is a numpy array of floats (NaN is null), bools or complex
    [re, im] pairs, trailing axes nested; or a list of JSON values,
    _ABSENT where a row lacks the key.  Every row holds a key.  Each
    column is formatted once, and each run of rows with the same keys is
    filled from one % template; a large table of arrays is written in
    byte blocks, to the same bytes."""
    if isinstance(columns, list):       # rows
        keys = dict.fromkeys(key for row in columns for key in row)
        columns = {key: [row.get(key, _ABSENT) for row in columns]
                   for key in keys}
    keys = sorted(columns) if fmt == "json" else list(columns)
    n = len(columns[keys[0]]) if keys else 0
    # csv writes null, floats and strings as they are, and json the rest
    own = (float, str, type(None)) if fmt == "csv" else ()
    formatted = {}   # equal columns (S++ and S--, f2 and f4) share cells
    # NUL pads a bulk cell, so no key may hold one
    bulk = n >= _BULK_ROWS and "\0" not in "".join(map(str, keys)) and all(
        isinstance(col, np.ndarray) for col in columns.values())
    fields, cells, present = [], [], []
    for key in keys:
        col, template, have = columns[key], "%s", None
        if isinstance(col, np.ndarray):
            if np.iscomplexobj(col):    # a view: [re, im] on a last axis
                col = col[..., None].view(float)
            leaf_fmt = fmt if col.ndim == 1 else "json"   # nested: json
            leaves = []
            for leaf in (col.reshape(n, -1).T if col.ndim > 1 else [col]):
                memo = (leaf.dtype.str, leaf.tobytes(), leaf_fmt)
                if memo not in formatted:
                    formatted[memo] = ((leaf, leaf_fmt) if bulk else
                                       _float_cells(leaf, leaf_fmt))
                leaves.append(formatted[memo])
            template = _template(col.shape[1:], fmt)
        else:
            texts = iter(_json_items([v for v in col if v is not _ABSENT
                                      and not isinstance(v, own)], fmt))
            if fmt == "json":
                leaves = [[None if v is _ABSENT else next(texts) for v in col]]
                have = [v is not _ABSENT for v in col]
            else:   # a csv row has every field, empty where it is absent
                leaves = [["" if v is None or v is _ABSENT
                           else "%.17g" % v if isinstance(v, float)
                           else _csv_field(v) if isinstance(v, str)
                           else _csv_field(next(texts)) for v in col]]
        fields.append(_csv_field(template) if fmt == "csv" else
                      json.dumps(key).replace("%", "%%") + ": " + template)
        cells.append(leaves)
        present.append(have)
    rows, start = [], 0
    lists = [have for have in present if have is not None]
    for size in ([len(list(run)) for _, run in itertools.groupby(
            zip(*lists))] if lists else [n]):
        keep = [i for i, have in enumerate(present)
                if have is None or have[start]]
        row = (",".join(fields[i] for i in keep) if fmt == "csv" else
               "  {\n    " + ",\n    ".join(fields[i] for i in keep) + "\n  }")
        slots = [c if size == n else c[start:start + size]
                 for i in keep for c in cells[i]]
        if bulk:    # one run, every key; the kernel loads on first use
            from . import bulktext
            rows += bulktext.bulk_rows(row, slots, fmt, n, _float_cells)
        else:       # a row of only empty arrays has no slot
            rows += ([row % values for values in zip(*slots)] if slots
                     else [row % ()] * size)
        start += size
    if fmt == "json":
        return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"
    text = "\n".join([",".join(map(_csv_field, keys))] + rows)
    if len(keys) == 1:      # csv quotes a row's one empty field
        text = re.sub("^$", '""', text, flags=re.M)
    return text + "\n"


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
            table, passed = cmd_resolvent(config), True
        elif args.command == "smatrix":
            table, passed = cmd_smatrix(config), True
        elif args.command == "scatter":
            table, passed = cmd_scatter(config), True
        elif args.command == "memory":
            table, passed = cmd_memory(config, args.seed), True
        else:
            table, passed = cmd_verify(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Fermi1dError, ValueError, OverflowError) as exc:
        # OverflowError: x ** 2 of a float above about 1.3e154
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(_table_text(table, args.format))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
