"""Span tracing of the diotrans layers, installed from outside the library.

``Tracer.bind`` builds, for each traced function, a wrapper that records
one span per call: group name, start, end, parent span and item id.  A
function is replaced on every ``diotrans.*`` module attribute bound to it,
because ``from .radicals import floor_within`` copies the binding into
``geometry`` and patching only ``radicals`` would miss the hot calls.
Methods are replaced on their class.  ``install`` swaps the wrappers in and
``uninstall`` restores every original binding.

Spans stay in memory (compact arrays) and are written out by ``dump``.
Self time, call counts and the per-group counters are accumulated while the
spans close, so the summary needs no second pass over the spans.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute or Class.attribute, group).  Functions that no entry
# names count toward the self time of their caller.
TRACED = [
    ("radicals", "floor_within", "radicals.floor_within"),
    ("radicals", "exact_le", "radicals.compare"),
    ("radicals", "exact_lt", "radicals.compare"),
    ("radicals", "exact_max", "radicals.compare"),
    ("radicals", "exact_min", "radicals.compare"),
    ("radicals", "Radical.__lt__", "radicals.compare"),
    ("radicals", "Radical.__le__", "radicals.compare"),
    ("radicals", "Radical.__gt__", "radicals.compare"),
    ("radicals", "Radical.__ge__", "radicals.compare"),
    ("radicals", "exact_mul", "radicals.arith"),
    ("radicals", "exact_div", "radicals.arith"),
    ("radicals", "exact_pow", "radicals.arith"),
    ("radicals", "Radical.__mul__", "radicals.arith"),
    ("radicals", "Radical.__rmul__", "radicals.arith"),
    ("radicals", "Radical.__pow__", "radicals.arith"),
    ("intervals", "Enclosure.of", "intervals.enclosure"),
    ("geometry", "enumerate_nonzero", "geometry.enumerate"),
    ("geometry", "enumerate_nonzero_general", "geometry.enumerate"),
    ("geometry", "best_approx_table", "geometry.scan"),
    ("geometry", "System.primal_values", "geometry.residual"),
    ("geometry", "System.dual_values", "geometry.residual"),
    ("geometry", "box_contains", "geometry.box_contains"),
    ("transfer", "mahler_transfer", "transfer.construct"),
    ("transfer", "mahler_transfer_asymmetric", "transfer.construct"),
    ("transfer", "main_lemma_transfer", "transfer.construct"),
    ("transfer", "main_lemma_transfer_3d", "transfer.construct"),
    ("transfer", "semicore", "transfer.construct"),
    ("transfer", "alphas_core", "transfer.construct"),
    ("transfer", "main_lemma_hypothesis", "transfer.hypothesis"),
    ("transfer", "core_hypothesis_ok", "transfer.hypothesis"),
    ("transfer", "verify_certificate", "transfer.verify"),
    ("transfer", "Certificate.to_json", "transfer.json"),
    ("transfer", "Certificate.from_json", "transfer.json"),
    ("harness", "estimate_exponents", "harness.estimate"),
    ("harness", "check_inequality", "harness.check"),
    ("functions", "FunctionSpec.value", "functions"),
    ("functions", "FunctionSpec.inverse_at", "functions"),
    ("cli", "run", "cli.run"),
]

# Modules whose every public module-level function is one group.
WHOLE_MODULES = ("exactlinalg", "sectiondual", "functions", "presets")

ITEM_GROUP = "item"  # the benchmark's own span around one item
TRANSFER_ERRORS = ("HypothesisViolated", "PrecisionExhausted", "NoWitnesses", "BudgetExceeded")


def _library_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "diotrans" or name.startswith("diotrans."))]


class Tracer:
    """Records spans of the traced diotrans functions while installed."""

    def __init__(self):
        self.groups: list[str] = []
        self._gid: dict[str, int] = {}
        # one entry per span, columns as parallel arrays
        self.span_group = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.item = -1
        self._stack: list[list] = []  # [span index, group id, child ns]
        self.calls = Counter()  # entries into a group from outside it
        self.self_ns = Counter()
        self.points = 0
        self.enumerations = 0
        self.scan_t_total = 0
        self.scan_records = 0
        self.max_prec = 0
        self.errors = Counter()  # (layer, exception class) escaping the layer
        self._swaps: list[tuple] = []  # (owner, name, original, wrapper)

    def _group_id(self, group: str) -> int:
        if group not in self._gid:
            self._gid[group] = len(self.groups)
            self.groups.append(group)
        return self._gid[group]

    # -- spans -----------------------------------------------------------

    def span(self, group: str, fn, observe=None):
        """Wrap ``fn`` so that each call records a span of ``group``."""
        gid = self._group_id(group)
        layer = group.split(".")[0]
        stack = self._stack
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        g_app, s_app, e_app = self.span_group.append, self.span_start.append, self.span_end.append
        p_app, i_app = self.span_parent.append, self.span_item.append
        tracer = self

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                outer = parent[1] != gid
                parent_idx = parent[0]
            else:
                parent, outer, parent_idx = None, True, -1
            idx = len(tracer.span_start)
            frame = [idx, gid, 0]
            stack.append(frame)
            g_app(gid)
            p_app(parent_idx)
            i_app(tracer.item)
            e_app(0)
            start = perf_counter_ns()
            s_app(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if parent is None or tracer.groups[parent[1]].split(".")[0] != layer:
                    errors[(layer, type(exc).__name__)] += 1
                raise
            else:
                if observe is not None:
                    observe(tracer, outer, args, kwargs, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.span_end[idx] = end
                dur = end - start
                self_ns[group] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if outer:
                    calls[group] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def item_span(self, item: int, fn):
        """Run ``fn()`` as the root span of one benchmark item."""
        self.item = item
        try:
            return self.span(ITEM_GROUP, fn)()
        finally:
            self.item = -1

    # -- installation ----------------------------------------------------

    def bind(self, library) -> None:
        """Build the wrappers for every traced function of the imported
        ``library`` package; ``install`` then swaps them in."""
        import importlib

        modules = {name: importlib.import_module(f"{library.__name__}.{name}")
                   for name in {m for m, _, _ in TRACED} | set(WHOLE_MODULES)}
        by_function: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for mod_name, attr, group in TRACED:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(self.span(group, raw.__func__, _OBSERVERS.get(group)))
                else:
                    wrapper = self.span(group, raw, _OBSERVERS.get(group))
                self._swaps.append((cls, attr, raw, wrapper))
            else:
                fn = getattr(owner, attr)
                by_function[id(fn)] = (fn, self.span(group, fn, _OBSERVERS.get(group)))
        for mod_name in WHOLE_MODULES:
            mod = modules[mod_name]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__ and id(fn) not in by_function):
                    by_function[id(fn)] = (fn, self.span(mod_name, fn))
        for mod in _library_modules():
            for name, value in vars(mod).items():
                entry = by_function.get(id(value))
                if entry is not None and entry[0] is value:
                    self._swaps.append((mod, name, value, entry[1]))
        # A preset builds its system through a lambda stored on the preset.
        presets = modules["presets"].PRESETS
        for key, preset in presets.items():
            wrapper = type(preset)(**{**vars(preset), "build": self.span("presets", preset.build)})
            self._swaps.append((presets, key, preset, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._swaps:
            _assign(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._swaps):
            _assign(owner, name, original)

    # -- results ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, path) -> None:
        """Write every span as gzip'd JSON: a header line, then one
        ``[group, start_ns, end_ns, parent, item]`` row per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"groups": self.groups,
                                 "columns": ["group", "start_ns", "end_ns", "parent", "item"]}))
            fh.write("\n")
            rows = zip(self.span_group, self.span_start, self.span_end,
                       self.span_parent, self.span_item)
            fh.writelines(f"{g} {s} {e} {p} {i}\n" for g, s, e, p, i in rows)


def _assign(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def _observe_enumerate(tracer, outer, args, kwargs, result):
    if outer:
        tracer.enumerations += 1
        tracer.points += len(result)


def _observe_scan(tracer, outer, args, kwargs, result):
    tracer.scan_t_total += result.t_max
    tracer.scan_records += len(result.records)


def _observe_enclosure(tracer, outer, args, kwargs, result):
    from diotrans.intervals import DEFAULT_PREC

    prec = args[1] if len(args) > 1 else kwargs.get("prec", DEFAULT_PREC)
    tracer.max_prec = max(tracer.max_prec, prec)


_OBSERVERS = {
    "geometry.enumerate": _observe_enumerate,
    "geometry.scan": _observe_scan,
    "intervals.enclosure": _observe_enclosure,
}


def layer_metrics(tracer: Tracer, setup: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit).

    ``tracer`` covers the traced items and ``setup`` the set-up before them;
    only ``presets.self_s`` comes from the set-up.
    """
    out: dict[str, tuple[float, str]] = {}

    def calls_self(group: str, name: str = None):
        name = name or group
        out[f"{name}.calls"] = (tracer.calls[group], "count")
        out[f"{name}.self_s"] = (tracer.self_ns[group] / 1e9, "s")

    for group in ("radicals.floor_within", "radicals.compare", "radicals.arith",
                  "geometry.enumerate"):
        calls_self(group)
    out["geometry.enumerate.points"] = (tracer.points, "count")
    out["geometry.enumerate.points_per_call"] = (
        tracer.points / tracer.enumerations if tracer.enumerations else 0.0, "points/call")
    calls_self("geometry.scan")
    out["geometry.scan.t_total"] = (tracer.scan_t_total, "count")
    out["geometry.scan.records"] = (tracer.scan_records, "count")
    for group in ("geometry.residual", "geometry.box_contains", "intervals.enclosure"):
        calls_self(group)
    out["intervals.max_prec"] = (tracer.max_prec, "bits")
    for group in ("transfer.construct", "transfer.hypothesis", "transfer.verify"):
        calls_self(group)
    out["transfer.json.self_s"] = (tracer.self_ns["transfer.json"] / 1e9, "s")
    transfer_errors = Counter({cls: n for (layer, cls), n in tracer.errors.items()
                               if layer == "transfer"})
    for cls in TRANSFER_ERRORS:
        out[f"transfer.errors.{cls}"] = (transfer_errors.pop(cls, 0), "count")
    out["transfer.errors.other"] = (sum(transfer_errors.values()), "count")
    for group in ("harness.estimate", "harness.check", "exactlinalg", "sectiondual",
                  "functions", "cli.run"):
        calls_self(group)
    out["presets.self_s"] = (setup.self_ns["presets"] / 1e9, "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(group, calls, self seconds, share of all traced time) by falling self
    time.  For a tracer whose spans all sit under item spans, the share is of
    the items' wall time."""
    total = sum(tracer.self_ns.values()) or 1
    rows = [(group, tracer.calls[group], ns / 1e9, ns / total)
            for group, ns in tracer.self_ns.items()]
    return sorted(rows, key=lambda row: -row[2])
