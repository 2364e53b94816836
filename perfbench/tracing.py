"""Spans around the calls into each fermi1d layer, recorded from outside.

`Tracer.install` replaces the public functions of the package modules
with timing wrappers, so nothing under `src/` changes.  A wrapper sees
every call that looks the function up on its module at call time: calls
from other modules (`pointcore.s_matrix(...)` in `cli`) and calls inside
a module to its own globals.  `BLIND_SPOTS` lists what it cannot see.

A span is (name, start_ns, end_ns, parent, request, note).  `parent` is
the index of the enclosing span or -1; `note` is a small dict of facts
read from the call (points evaluated, flux residual, the exception it
raised).  Spans stay in memory; `dump` writes them out as JSON lines.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time

VERIFY_CHECKS = ("resolvent_closed", "resolvent_integral", "ode",
                 "log_reduction", "transfer_matrix")

# Calls the module-attribute wrappers cannot see.  Their time is counted
# as self time of the nearest wrapped caller.
BLIND_SPOTS = (
    "verify binds pointcore.quad_sector by name at import, so the sector "
    "lookups inside the resolvent identity are not pointcore spans",
    "class constructors are not wrapped (SiteArray ordering, "
    "MatrixCouplings hermiticity, IncidentWave, MemoryState "
    "normalisation); their cost is self time of the caller",
    "private helpers (pointcore.denominator and _check_kappa, "
    "channels._as_hermitian, qmemory._interrogate, _polish and "
    "_su2_completion, the cli.cmd_* builders and _emit) are not "
    "wrapped; cli.main self time holds parsing, row building and emission",
    "qmemory.apply_plan multiplies op_matrix products itself, so a plan "
    "counts its ops without one apply_scatter span per op",
)

# Spectral argument of each pointcore function: its size is the number
# of points the call evaluates.
_SPECTRAL_ARG = {
    "resolvent_from_couplings": (1, "kappa"),
    "resolvent_from_constants": (1, "kappa"),
    "greens_function": (1, "kappa"),
    "s_matrix": (1, "k"),
    "even_phase": (1, "k"),
    "odd_phase": (1, "k"),
}


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value) if isinstance(value, (list, tuple)) else 1
    n = 1
    for dim in shape:
        n *= dim
    return n


def _note_for(module: str, func: str):
    """The fact a wrapper records about a successful call, if any."""
    if module == "pointcore" and func in _SPECTRAL_ARG:
        pos, key = _SPECTRAL_ARG[func]

        def points(args, kwargs, out):
            value = args[pos] if len(args) > pos else kwargs.get(key, 1)
            return {"points": _size(value)}
        return points
    if module == "channels" and func == "assemble_system":
        def dense(args, kwargs, out):
            sites = args[0] if args else kwargs["sites"]
            dim = 2 * sites.n * (len(sites) + 1)
            return {"bytes": 16 * dim * dim}
        return dense
    if module == "channels" and func == "solve_scattering":
        return lambda args, kwargs, out: {"flux": abs(out.flux_residual)}
    if module == "qmemory" and func == "read_protocol":
        return lambda args, kwargs, out: {
            "rec": out[1].distance_up_to_phase(args[0])}
    if module == "qmemory" and func == "apply_plan":
        return lambda args, kwargs, out: {"ops": len(args[1])}
    if module == "qmemory" and func == "apply_scatter":
        return lambda args, kwargs, out: {"ops": 1}
    return None


class Tracer:
    """Records spans from wrappers it installs on the package modules."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._originals: list = []

    def wrap(self, name: str, fn, note=None):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans = self.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                spans[sid] = (name, start, clock(), parent, self.request,
                              {"err": type(exc).__name__})
                raise
            finally:
                stack.pop()
            end = clock()
            spans[sid] = (name, start, end, parent, self.request,
                          note(args, kwargs, out) if note else None)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the five layers, and cli.main."""
        import fermi1d.cli as cli
        from fermi1d import channels, pointcore, qmemory, verify

        if self._originals:
            return
        modules = {"pointcore": pointcore, "channels": channels,
                   "qmemory": qmemory, "verify": verify}
        for short, mod in modules.items():
            for func in mod.__all__:
                fn = getattr(mod, func)
                if not inspect.isfunction(fn):
                    continue
                self._replace(mod, func,
                              self.wrap(f"{short}.{func}", fn,
                                        _note_for(short, func)))
        self._replace(verify, "default_suite",
                      self._suite_wrapper(verify.default_suite))
        self._replace(cli, "main", self.wrap("cli.main", cli.main))

    def _suite_wrapper(self, wrapped_suite):
        # The checks are closures built by default_suite, out of reach of
        # attribute wrappers; wrap each one in the dict it returns.
        def default_suite():
            suite = wrapped_suite()
            return {name: self.wrap(f"verify.check.{name}", check)
                    for name, check in suite.items()}
        return default_suite

    def _replace(self, mod, attr: str, value) -> None:
        self._originals.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def extend(self, records, request: int) -> None:
        """Append spans recorded by another process, re-numbering parents."""
        index = {}
        for rec in records:
            index[rec["id"]] = len(self.spans)
            self.spans.append((rec["name"], rec["start_ns"], rec["end_ns"],
                               index.get(rec["parent"], -1), request,
                               rec["note"]))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request, note = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "request": request,
                    "note": note}) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans) -> dict:
    """Per-layer counts and busy/self times of one traced pass."""
    child_ns = [0] * len(spans)
    under_verify = [False] * len(spans)
    for sid, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, _, _ = span
        if parent >= 0:
            child_ns[parent] += end - start
            under_verify[sid] = under_verify[parent]
        if _layer(name) == "verify":
            under_verify[sid] = True

    m = {"cli.calls": 0, "cli.main.self_s": 0.0,
         "pointcore.busy_s": 0.0, "pointcore.calls": 0,
         "pointcore.points": 0, "pointcore.flagged": 0,
         "channels.assemble_system.busy_s": 0.0,
         "channels.solve_scattering.self_s": 0.0,
         "channels.full_s_matrix.busy_s": 0.0,
         "channels.dense_bytes": 0, "channels.solves": 0,
         "channels.flagged": 0, "channels.max_flux_residual": 0.0,
         "qmemory.write.busy_s": 0.0, "qmemory.reset.busy_s": 0.0,
         "qmemory.read_clean.busy_s": 0.0,
         "qmemory.scatter_events": 0, "qmemory.failed": 0,
         "qmemory.max_recovery_error": 0.0, "verify.pointcore_calls": 0}
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.busy_s"] = 0.0
    s_matrices = 0
    s_matrix_solves = 0
    for sid, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, _, note = span
        note = note or {}
        dur = (end - start) * 1e-9
        layer = _layer(name)
        outer = parent < 0 or _layer(spans[parent][0]) != layer
        if name == "cli.main":
            m["cli.calls"] += 1
            m["cli.main.self_s"] += dur - child_ns[sid] * 1e-9
        elif layer == "pointcore" and outer:
            m["pointcore.busy_s"] += dur
            m["pointcore.calls"] += 1
            m["pointcore.points"] += note.get("points", 0)
            if note.get("err") == "PoleAtSpectralPoint":
                m["pointcore.flagged"] += 1
            if under_verify[sid]:
                m["verify.pointcore_calls"] += 1
        elif name == "channels.assemble_system":
            m["channels.assemble_system.busy_s"] += dur
            m["channels.dense_bytes"] = max(m["channels.dense_bytes"],
                                            note.get("bytes", 0))
        elif name == "channels.solve_scattering":
            m["channels.solve_scattering.self_s"] += \
                dur - child_ns[sid] * 1e-9
            m["channels.solves"] += 1
            if note.get("err") == "SingularSystem":
                m["channels.flagged"] += 1
            m["channels.max_flux_residual"] = max(
                m["channels.max_flux_residual"], note.get("flux", 0.0))
            if parent >= 0 and spans[parent][0] == "channels.full_s_matrix":
                s_matrix_solves += 1
        elif name == "channels.full_s_matrix":
            m["channels.full_s_matrix.busy_s"] += dur
            s_matrices += 1
        elif layer == "qmemory":
            if name in ("qmemory.write", "qmemory.reset"):
                m[name + ".busy_s"] += dur
            elif name == "qmemory.read_protocol" and "rec" in note:
                # The workloads make only noiseless reads.
                m["qmemory.read_clean.busy_s"] += dur
                m["qmemory.max_recovery_error"] = max(
                    m["qmemory.max_recovery_error"], note["rec"])
            m["qmemory.scatter_events"] += note.get("ops", 0)
            if outer and "err" in note:
                m["qmemory.failed"] += 1
        elif name.startswith("verify.check."):
            check = name[len("verify.check."):]
            if check in VERIFY_CHECKS:
                m[f"verify.{check}.busy_s"] += dur
    m["pointcore.ns_per_point"] = (m["pointcore.busy_s"] * 1e9
                                   / m["pointcore.points"]
                                   if m["pointcore.points"] else 0.0)
    m["channels.solves_per_s_matrix"] = (s_matrix_solves / s_matrices
                                         if s_matrices else 0.0)
    return m


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over traced passes."""
    return {key: statistics.median(p[key] for p in passes)
            for key in passes[0]}
