"""Command-line front end.

One JSON config document per invocation (schema 1), one computation
target per run.  Output is a machine-readable table (JSON or CSV) on
stdout or --out.  Exit codes: 0 success, 1 verification failure,
2 config error, 3 domain error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import re
import sys

import numpy as np

from . import channels, pointcore, qmemory, verify
from .errors import ConfigError, Fermi1dError
from .pointcore import _cadd, _cmul, _csub

_SCHEMA = 1


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema") != _SCHEMA:
        raise ConfigError(f"config schema must be {_SCHEMA}")
    return config


def _number(value):
    """`value`, a JSON number or nested lists of them, as given: true or
    false anywhere in it raise TypeError, and a string ValueError, as
    float() would take them for 1, 0 or the number they spell."""
    if isinstance(value, bool):
        raise TypeError("true and false are not numbers")
    if isinstance(value, str):
        raise ValueError(f"could not convert string to float: {value!r}")
    if isinstance(value, list):
        for v in value:
            _number(v)
    return value


def _known_keys(spec: dict, known: frozenset) -> None:
    """Raise ValueError naming the first key of spec, in sorted order,
    that is not in known."""
    if not spec.keys() <= known:
        raise ValueError(f"unknown key {min(spec.keys() - known)!r}")


def _grid(config: dict, key: str) -> np.ndarray:
    """A positive, non-empty grid: an explicit list or a linspace spec."""
    if key not in config:
        raise ConfigError(f"config needs '{key}'")
    spec = config[key]
    if isinstance(spec, dict):
        try:
            _known_keys(spec, frozenset(("start", "stop", "num")))
            grid = np.linspace(float(_number(spec["start"])),
                               float(_number(spec["stop"])),
                               int(_number(spec["num"])))
            if grid.size != float(spec["num"]):
                raise ValueError(f"'num' must be whole, not {spec['num']}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid spec for '{key}': {exc}") from exc
    else:
        try:
            grid = np.asarray([float(v) for v in _number(spec)])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid for '{key}': {exc}") from exc
    if grid.size == 0:
        raise ConfigError(f"'{key}' must be non-empty")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise ConfigError(f"'{key}' values must be positive and finite")
    return grid


def _couplings(config: dict) -> tuple[float, float, float]:
    g = config.get("couplings")
    try:
        if isinstance(g, list) and len(g) == 3:
            g = tuple(map(float, _number(g)))
            if all(map(math.isfinite, g)):
                return g
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError("'couplings' must be three finite numbers")


def _parse_cnum(value, what: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(_number(value[0])), float(_number(value[1])))
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


_SCALAR_KEYS, _MATRIX_KEYS = ("g1", "g2", "g3"), ("c1", "c2", "c3")
_SITE_KEYS = frozenset(("position", *_SCALAR_KEYS, *_MATRIX_KEYS))


def _site_array(config: dict) -> channels.SiteArray:
    """The `sites` of a config in one pass: matrices c1..c3, or scalars
    g1..g3 (0 if absent) as 1 x 1 matrices, stacked for the array to
    check at once.  An error in one site names its index, and so does
    a key of neither kind, or of both."""
    raw = config.get("sites")
    if not isinstance(raw, list):
        raise ConfigError("'sites' must be a list")
    positions, sites = [], []
    for i, entry in enumerate(raw):
        try:
            positions.append(float(_number(entry["position"])))
            _known_keys(entry, _SITE_KEYS)
            if entry.keys().isdisjoint(_MATRIX_KEYS):
                sites.append([[[float(_number(entry.get(g, 0.0)))]]
                              for g in _SCALAR_KEYS])
                continue
            if not entry.keys().isdisjoint(_SCALAR_KEYS):
                raise ValueError(
                    f"key {min(entry.keys() & set(_MATRIX_KEYS))!r} cannot "
                    f"go with {min(entry.keys() & set(_SCALAR_KEYS))!r}")
            site = [np.array(_number(entry[c]), dtype=complex)
                    for c in _MATRIX_KEYS]
            for c, m in zip(_MATRIX_KEYS, site):
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


def cmd_scatter(config: dict) -> dict:
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
    solved = (~singular).tolist()       # a singular row has no solution
    return {"k": k_grid, "mode": [mode] * k_grid.size, "singular": singular,
            **{name: (getattr(sol, name), solved) for name in (
                "outgoing_left", "outgoing_right", "reflection",
                "transmission", "flux_residual")}}


def _parse_state(value, what: str) -> qmemory.MemoryState:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ConfigError(f"{what} must be two components")
    try:
        return qmemory.MemoryState(_parse_cnum(value[0], what),
                                   _parse_cnum(value[1], what))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


# The keys of a memory log row between its op and its state, in order
_LOG_KEYS = {"write": ("plan", "write_error"), "reset": ("plan", "reset_error"),
             "read": ("observables", "recovered_state", "recovery_error",
                      "restoration_error"), "scatter": ()}
_OBSERVABLES = json.dumps(dict.fromkeys(("A1", "A2", "A3", "Ay"), 0.0))


@functools.cache
def _plan_shape(parity: tuple) -> str:
    """The JSON value a plan's wavenumbers fill."""
    return json.dumps([{"k": 0.0, "parity": p} for p in parity])


def _log_column(key: str, entries: dict, n: int) -> tuple:
    """The writer's column of a memory log key from {step: value}: steps
    without an entry lack the key; plans are their wavenumbers, padded
    with zeros to the longest plan's."""
    values = list(entries.values())
    shapes = [None] * n
    shape = _OBSERVABLES if key == "observables" else True
    if key == "plan":
        width = max(map(len, values))
        for step, plan in entries.items():
            shapes[step] = _plan_shape(plan.parity)
        values = [plan.k + (0.0,) * (width - len(plan)) for plan in values]
    else:
        for step in entries:
            shapes[step] = shape
    dense = np.array(values)
    column = np.zeros((n, *dense.shape[1:]), dtype=dense.dtype)
    column[list(entries)] = dense
    return column, shapes


def cmd_memory(config: dict, seed: int | None) -> dict:
    try:
        g1 = float(_number(config["g1"]))
        g3 = float(_number(config["g3"]))
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
    ops, states = [], []
    log = {key: {} for keys in _LOG_KEYS.values() for key in keys}
    for idx, cmd in enumerate(script):
        if not isinstance(cmd, dict) or "op" not in cmd:
            raise ConfigError(f"script entry {idx} needs an 'op' field")
        op = cmd["op"]
        if op in ("write", "reset"):
            target = (standard if op == "reset" else
                      _parse_state(cmd.get("target"), "write target"))
            plan = (qmemory.write if op == "write" else qmemory.reset)(
                state, target, g1, g3)
            state = qmemory.apply_plan(state, plan, g1, g3)
            log["plan"][idx] = plan
            log[op + "_error"][idx] = state.distance_up_to_phase(target)
        elif op == "read":
            try:
                sigma = float(_number(cmd.get("noise_sigma", 0.0)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"script entry {idx}: {exc}") from exc
            if not 0.0 <= sigma < float("inf"):
                raise ConfigError(f"script entry {idx}: 'noise_sigma' must "
                                  f"be a finite number >= 0")
            before = state
            obs, recovered, state = qmemory.read_protocol(
                state, standard, g1, g3, noise_sigma=sigma, rng=rng)
            log["observables"][idx] = obs.A1, obs.A2, obs.A3, obs.Ay
            log["recovered_state"][idx] = recovered.a1, recovered.a2
            log["recovery_error"][idx] = recovered.distance_up_to_phase(before)
            log["restoration_error"][idx] = state.distance_up_to_phase(before)
        elif op == "scatter":
            try:
                wave = qmemory.Plan((cmd.get("parity"),),
                                    (float(_number(cmd.get("k"))),))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"script entry {idx}: {exc}") from exc
            state = qmemory.apply_plan(state, wave, g1, g3)
        else:
            raise ConfigError(f"script entry {idx}: unknown op {op!r}")
        ops.append(op)
        states.append((state.a1, state.a2))
    # keys in order of first appearance, as csv lists them
    columns = {"step": list(range(len(ops))), "op": ops} if ops else {}
    for key in dict.fromkeys(key for op in dict.fromkeys(ops)
                             for key in _LOG_KEYS[op] + ("state",)):
        columns[key] = (np.array(states, dtype=complex) if key == "state"
                        else _log_column(key, log[key], len(ops)))
    return columns


def cmd_verify(config: dict) -> tuple[dict, bool]:
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
    columns = {key: [getattr(r, key) for r in reports] for key in (
        "name", "max_residual", "tolerance", "grid", "passed")}
    return columns, all(columns["passed"])


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
    text = np.array(list(map(repr, floats.tolist())) if fmt == "json"
                    else ["%.17g" % v for v in floats.tolist()], dtype=object)
    text[np.isnan(floats)] = "null" if fmt == "json" else ""
    return text[where.ravel()].tolist()


@functools.cache
def _nested(shape: tuple) -> str:
    """The JSON text of a value nested as trailing axes `shape`."""
    return json.dumps(np.zeros(shape).tolist())


@functools.cache
def _template(skeleton: str, fmt: str) -> tuple[str, int]:
    """The text json writes for the JSON value `skeleton` as a row's
    value, compact for csv and indented at depth 2 for json, keys sorted,
    with %s at each float, and the number of floats."""
    newline, colon = ("\n", ": ") if fmt == "json" else ("", ":")

    def text(value, pad: str) -> str:
        if isinstance(value, float):
            return "%s"
        if not value or not isinstance(value, (list, dict)):
            return json.dumps(value).replace("%", "%%")
        inner = pad + "  " if newline else ""
        items = ([json.dumps(k).replace("%", "%%") + colon + text(v, inner)
                  for k, v in sorted(value.items())]
                 if isinstance(value, dict) else [text(v, inner) for v in value])
        ends = "{}" if isinstance(value, dict) else "[]"
        return (ends[0] + newline + inner + ("," + newline + inner).join(items)
                + newline + pad + ends[1])

    out = text(json.loads(skeleton), "    " if newline else "")
    return out, out.replace("%%", "").count("%s")


def _table_text(columns: dict, fmt: str) -> str:
    """Columns keyed in row order as JSON (row objects, keys sorted,
    indented by two) or CSV (a header of the keys in order).

    A column is a list of JSON scalars, one per row; a numpy array of
    floats (NaN is null), bools or complex [re, im] pairs, trailing axes
    nested; or a pair (array, shapes) with a list of one shape per row:
    None or False where the row lacks the key, True where its value nests
    as the array's trailing axes, or the JSON text of a list or object
    whose floats take the row's first values on the array's one trailing
    axis, in the order json writes them, keys sorted.  A column that no
    row holds is no key.  The floats of a table are formatted in one
    pass, and each row is filled from the % template of its keys and
    value shapes; a large table of plain arrays is written in byte
    blocks, to the same bytes."""
    keys = sorted(columns) if fmt == "json" else list(columns)
    first = columns[keys[0]] if keys else []
    n = len(first[0] if isinstance(first, tuple) else first)
    # csv writes null, floats and strings as they are, and json the rest
    own = (float, str, type(None)) if fmt == "csv" else ()
    # per key: {shape: (field, float count)}, the shape of each row (None:
    # every row the first; a row's None: no key), and its cells or floats
    fields, shape_of, leaves = {}, {}, {}
    for key in keys:
        col = columns[key]
        if isinstance(col, list):
            # json's C encoder writes the rest in one call, parted at its
            # item separator, a line break, which it escapes in strings
            texts = iter(json.dumps([v for v in col if not isinstance(v, own)],
                                    separators=("\n", ":"))[1:-1].split("\n"))
            nested, per_row = "%s", None
            leaves[key] = [
                next(texts) if not isinstance(v, own) else "" if v is None
                else "%.17g" % v if isinstance(v, float) else _csv_field(v)
                for v in col]
        else:
            values, per_row = col if isinstance(col, tuple) else (col, None)
            if values.dtype.kind == "c":    # a view: [re, im] on a last axis
                values = values[..., None].view(float)
            nested = _nested(values.shape[1:])
            if per_row is not None:
                per_row = [nested if r is True else r or None for r in per_row]
            leaves[key] = (values.reshape(n, -1),
                           fmt if values.ndim == 1 else "json")  # nested: json
        shapes = dict.fromkeys(per_row or [nested])
        shapes.pop(None, None)
        if not shapes:
            continue
        name = "" if fmt == "csv" else json.dumps(key).replace("%", "%%")
        for shape in shapes:
            text, count = (("%s", 1) if isinstance(col, list) else
                           _template(shape, fmt))
            shapes[shape] = (_csv_field(text) if fmt == "csv" else
                             name + ": " + text), count
        fields[key] = shapes
        shape_of[key] = (None if per_row is None
                         or per_row.count(next(iter(shapes))) == n
                         else per_row)
    keys = list(fields)
    widths = [1 if isinstance(leaves[key], list) else leaves[key][0].shape[1]
              for key in keys]
    starts = dict(zip(keys, itertools.accumulate([0] + widths)))

    def row_of(pattern) -> tuple[str, list]:
        """The % template of a row of these shapes and the cells it takes."""
        parts, taken = [], []
        for key, shape in zip(keys, pattern):
            if shape is not None:
                field, count = fields[key][shape]
                parts.append(field)
                taken += range(starts[key], starts[key] + count)
            elif fmt == "csv":
                parts.append("")
        return (",".join(parts) if fmt == "csv" else
                "  {\n    " + ",\n    ".join(parts) + "\n  }" if parts
                else "  {}"), taken

    one = all(shape_of[key] is None for key in keys)    # one shape per key
    first_shapes = [next(iter(fields[key])) for key in keys]
    if one and n >= _BULK_ROWS and "\0" not in "".join(map(str, keys)) and all(
            isinstance(columns[key], np.ndarray) for key in keys):
        # NUL pads a bulk cell, so no key may hold one; the kernel loads
        # on first use, and equal leaves (S++ and S--) share their cells
        from . import bulktext
        memo = {}
        slots = [memo.setdefault((leaf.dtype.str, leaf.tobytes(), leaf_fmt),
                                 (leaf, leaf_fmt))
                 for key in keys for flat, leaf_fmt in [leaves[key]]
                 for leaf in flat.T]
        rows = bulktext.bulk_rows(row_of(first_shapes)[0], slots, fmt, n,
                                  _float_cells)
    else:
        # every cell of the table in one matrix; the floats of each format
        # in one pass, in row order
        cells = np.empty((n, sum(widths)), dtype=object)
        passes = {}
        for key, width in zip(keys, widths):
            at = slice(starts[key], starts[key] + width)
            if isinstance(leaves[key], list):
                cells[:, at.start] = leaves[key]
                continue
            flat, leaf_fmt = leaves[key]
            if (leaf_fmt, flat.dtype) not in passes:
                passes[leaf_fmt, flat.dtype] = (
                    np.zeros(cells.shape, flat.dtype),
                    np.zeros(cells.shape, bool))
            values, used = passes[leaf_fmt, flat.dtype]
            values[:, at] = flat
            if shape_of[key] is None:
                used[:, at] = True
            else:   # a row's first floats, as many as its shape takes
                counts = {shape: count for shape, (_, count)
                          in fields[key].items()}
                counts[None] = 0
                used[:, at] = np.arange(width) < np.array(
                    list(map(counts.__getitem__, shape_of[key])))[:, None]
        for (leaf_fmt, _), (values, used) in passes.items():
            cells[used] = _float_cells(values[used], leaf_fmt)
        if one:
            row = row_of(first_shapes)[0]
            rows = [row % tuple(values) for values in cells.tolist()]
        else:
            rows, filled = [], {}
            for pattern, values in zip(zip(*(
                    shape_of[key] or itertools.repeat(shape, n)
                    for key, shape in zip(keys, first_shapes))),
                    cells.tolist()):
                if pattern not in filled:
                    row, taken = row_of(pattern)
                    # one taken cell is bare, which % takes as well
                    filled[pattern] = row, (operator.itemgetter(*taken)
                                            if taken else lambda v: ())
                row, pick = filled[pattern]
                rows.append(row % pick(values))
    if fmt == "json":
        return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"
    text = "\n".join([",".join(map(_csv_field, keys))] + rows)
    if len(keys) == 1:      # csv quotes a row's one empty field
        text = re.sub("^$", '""', text, flags=re.M)
    return text + "\n"


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's generators take."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, not {text!r}")


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
            p.add_argument("--seed", type=_seed, default=None,
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
    text = _table_text(table, args.format)
    if not args.out:
        sys.stdout.write(text)
        return 0 if passed else 1
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"config error: cannot write output {args.out}: {exc}",
              file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
