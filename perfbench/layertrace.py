"""Layer tracing from outside the program: wrap public functions, record spans.

A Tracer replaces every public function defined in the traced layer modules
with a wrapper that records one span per call (name, start, end, parent span,
counts). The wrapper is patched into every module of the package that holds
the function, including names imported into other modules and values of
module-level dicts (such as a registry of representations), so a call through
any of those names records exactly one span. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
import tracemalloc

LAYERS = ("weights_io", "steg", "imagerep", "dataset", "net", "detect", "pipeline", "cli")

# Functions whose traced allocations are sampled with tracemalloc. Tracing is
# switched on only inside these calls, so the rest of the run pays nothing.
PEAK_TRACKED = {
    "steg.lsb_attack_fill",
    "imagerep.grayscale_fourpart",
    "imagerep.resize",
    "imagerep.normalize",
}


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _n_images(images):
    shape = getattr(images, "shape", None)
    if shape is None:
        return len(images)
    return 1 if len(shape) == 2 else int(shape[0])


def _file_size(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# Counts derived from call arguments and return values, keyed by function.
COUNTERS = {
    "net.forward": lambda a, k, r: {"images": _n_images(_arg(a, k, 2, "images"))},
    "net.backward": lambda a, k, r: {"triplets": len(_arg(a, k, 3, "triplets"))},
    "net.train": lambda a, k, r: {"epochs": len(r.epoch_losses)},
    "steg.lsb_attack_fill": lambda a, k, r: {"words": int(_arg(a, k, 0, "tensor").n)},
    "imagerep.grayscale_fourpart": lambda a, k, r: {"pixels_out": int(r.size)},
    "imagerep.resize": lambda a, k, r: {"pixels_in": int(_arg(a, k, 0, "img").size)},
    "imagerep.write_pgm": lambda a, k, r: {"bytes": _file_size(_arg(a, k, 1, "path"))},
    "weights_io.load_model": lambda a, k, r: {"bytes_read": _file_size(_arg(a, k, 0, "path"))},
    "weights_io.save_model": lambda a, k, r: {"bytes_written": _file_size(_arg(a, k, 1, "path"))},
    "pipeline.render_samples": lambda a, k, r: {"images": len(r)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None

    def to_json(self):
        return [self.name, self.start, self.end, self.parent, self.counts]


class Tracer:
    """Context manager that patches the layers of ``package`` while active."""

    def __init__(self, package="weightsteg", layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self.uncounted: set[str] = set()  # functions whose counter raised
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        pkg = importlib.import_module(self.package)
        mods = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            mods.append(importlib.import_module(f"{self.package}.{info.name}"))
        return mods

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)
        track_peak = name in PEAK_TRACKED
        spans, stack, uncounted = self.spans, self._stack, self.uncounted

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            start_tracing = track_peak and not tracemalloc.is_tracing()
            if start_tracing:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if start_tracing:
                    span.counts = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if counter is not None:
                # A counter reads the program's arguments and results; if they
                # changed shape, the count is reported absent, never the call failed.
                try:
                    span.counts = {**(span.counts or {}), **counter(args, kwargs, result)}
                except Exception:
                    uncounted.add(name)
            return result

        return wrapper

    def install(self):
        mods = self._modules()
        originals = {}
        for mod in mods:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in self.layers:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                    self.wrapped.add(f"{layer}.{attr}")
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = originals.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]
        return self

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, edge = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, edge), min(end, span.end)
            if end > start:
                covered += end - start
                edge = end
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans, span, names) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def nested_self_s(spans) -> float:
    """Self time of all spans nested in a root span: the time the layers below it cover."""
    return sum(own for span, own in zip(spans, self_times(spans)) if span.parent is not None)


def layer_metrics(
    spans, wrapped, iterations: int, eval_images: int, uncounted=frozenset()
) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced iteration, plus what was found absent.

    ``eval_images`` is the number of distinct images the workload classifies
    in one iteration; it is the base of ``detect.forwards_per_image``. Absent
    are the needed functions that were not wrapped, and the count metrics of
    functions in ``uncounted``, whose counter failed.
    """
    selfs = self_times(spans)
    calls, self_s, busy, counts, peaks = {}, {}, {}, {}, {}
    for span, own in zip(spans, selfs):
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if not _has_ancestor(spans, span, {name}):
            busy[name] = busy.get(name, 0.0) + span.end - span.start
        for key, value in (span.counts or {}).items():
            if key == "peak_bytes":
                peaks[name] = max(peaks.get(name, 0), value)
            else:
                counts[(name, key)] = counts.get((name, key), 0) + value

    eval_forwards = sum(
        (s.counts or {}).get("images", 0)
        for s in spans
        if s.name == "net.forward"
        and not _has_ancestor(spans, s, {"detect.build_detector", "net.train"})
    )
    fill_words = counts.get(("steg.lsb_attack_fill", "words"), 0)

    def per_iter(value):
        return value / iterations

    metrics: dict[str, tuple[float, str]] = {}
    needs: dict[str, str] = {}
    absent_counts: set[str] = set()

    def put(metric, value, unit, needed_function, counted=False):
        metrics[metric] = (value, unit)
        needs[metric] = needed_function
        if counted and needed_function in uncounted:
            absent_counts.add(metric)

    for fn, fields in METRIC_FIELDS.items():
        for field in fields:
            metric = f"{fn}.{field}"
            if field == "calls":
                put(metric, per_iter(calls.get(fn, 0)), "count", fn)
            elif field == "self_s":
                put(metric, per_iter(self_s.get(fn, 0.0)), "s", fn)
            elif field == "busy_s":
                put(metric, per_iter(busy.get(fn, 0.0)), "s", fn)
            else:
                unit = "B" if field.startswith("bytes") else "count"
                put(metric, per_iter(counts.get((fn, field), 0)), unit, fn, counted=True)
    for layer in LAYERS:
        total = sum(v for name, v in self_s.items() if name.startswith(layer + "."))
        put(f"{layer}.self_s", per_iter(total), "s", None)
    put("detect.forwards_per_image", eval_forwards / (eval_images * iterations) if eval_images else 0.0,
        "ratio", "net.forward", counted=True)
    put("steg.words", per_iter(fill_words), "count", "steg.lsb_attack_fill", counted=True)
    put("steg.ns_per_word",
        busy.get("steg.lsb_attack_fill", 0.0) / fill_words * 1e9 if fill_words else 0.0,
        "ns", "steg.lsb_attack_fill", counted=True)
    put("steg.peak_mb", peaks.get("steg.lsb_attack_fill", 0) / 2**20, "MB", "steg.lsb_attack_fill")
    image_peak = max((v for n, v in peaks.items() if n.startswith("imagerep.")), default=0)
    put("imagerep.peak_mb", image_peak / 2**20, "MB", "imagerep.grayscale_fourpart")

    absent = {fn for fn in needs.values() if fn is not None and fn not in wrapped}
    return metrics, sorted(absent | absent_counts)


# Function -> metric fields reported for it: calls, self_s, busy_s or a count.
METRIC_FIELDS = {
    "net.forward": ("calls", "images", "self_s"),
    "net.backward": ("calls", "triplets", "self_s"),
    "net.adam_step": ("self_s",),
    "net.train": ("busy_s", "epochs"),
    "detect.classify_samples": ("calls", "self_s"),
    "detect.build_detector": ("self_s",),
    "detect.summarize_rows": ("self_s",),
    "detect.load_detector": ("self_s",),
    "detect.centroid_distances": ("self_s",),
    "steg.lsb_attack_fill": ("calls", "self_s", "busy_s"),
    "imagerep.grayscale_fourpart": ("self_s", "pixels_out"),
    "imagerep.resize": ("self_s", "pixels_in"),
    "imagerep.normalize": ("self_s",),
    "imagerep.write_pgm": ("self_s", "bytes"),
    "weights_io.load_model": ("calls", "self_s", "bytes_read"),
    "weights_io.flatten": ("self_s",),
    "weights_io.save_model": ("self_s", "bytes_written"),
    "weights_io.model_digest": ("self_s",),
    "dataset.attack_model": ("self_s",),
    "dataset.model_image": ("self_s",),
    "dataset.collection_digest": ("self_s",),
    "pipeline.render_samples": ("self_s", "images"),
    "pipeline.run_detection_run": ("busy_s",),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order, plus trace totals."""
    metrics, _ = layer_metrics([], set(), 1, 0)
    names = [(name, unit) for name, (_, unit) in metrics.items()]
    return names + [("trace.overhead_s", "s"), ("trace.layer_share", "ratio")]

