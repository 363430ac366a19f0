"""Outside-in tracing of frameforge's public functions.

While a traced verdict runs, the tracer rebinds public functions and methods
to wrappers that record a span (name, start, end, parent span, verdict id)
and layer counters, and it restores the originals afterwards, so untraced
verdicts run the program untouched.  A function is rebound everywhere the
package holds it: as a module attribute (``cell_volumes`` is imported into
five modules), inside a module-level tuple (the acceptance criteria lists)
and inside a function's default arguments (``run_all``'s criteria).  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Optional

OnReturn = Optional[Callable[["Tracer", list, tuple, Any], None]]


def _eig_dense(tr: "Tracer", rec: list, args: tuple, result) -> None:
    n = args[0].shape[0]
    complex_h = args[0].dtype.kind == "c"
    tr.counts["framebounds.eig.order"] += n
    tr.counts["framebounds.eig.computed"] += n
    tr.counts["framebounds.eig.used"] += 2
    # Householder tridiagonalisation, eigenvalues only: 4n^3/3 real flops,
    # four times that in complex arithmetic
    tr.counts["framebounds.eig.flops_computed"] += (16.0 if complex_h else 4.0) * n ** 3 / 3.0


def _eig_iterative(tr: "Tracer", rec: list, args: tuple, result) -> None:
    tr.counts["framebounds.eig.order"] += args[0].shape[0]
    tr.counts["framebounds.eig.computed"] += len(result)
    tr.counts["framebounds.eig.used"] += 1


def _zak_points(tr: "Tracer", rec: list, args: tuple, result) -> None:
    tr.counts["zak.grid_points"] += result.values.size


def _points(tr: "Tracer", rec: list, args: tuple, result) -> None:
    if tr.parent_name(rec) != rec[0]:
        tr.counts["pointsets.points_in_box.points"] += len(result)


def _cells(tr: "Tracer", rec: list, args: tuple, result) -> None:
    tr.counts["gridfn.cell_volumes.cells"] += result.size
    if tr.parent_name(rec) == "framebounds.estimate":
        tr.counts["framebounds.active_cells"] += int((result > 0).sum())


def _eval_points(tr: "Tracer", rec: list, args: tuple, result) -> None:
    tr.counts["windows.eval.points"] += len(result)


def _csv_bytes(tr: "Tracer", rec: list, args: tuple, result) -> None:
    tr.counts["serialization.write_csv.bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, counter); "Class.method" patches the class
SPANNED: list[tuple[str, str, str, OnReturn]] = [
    ("numpy.linalg", "eigvalsh", "framebounds.eig", _eig_dense),
    ("scipy.sparse.linalg", "eigsh", "framebounds.eig", _eig_iterative),
    ("frameforge.framebounds", "estimate_frame_bounds", "framebounds.estimate", None),
    ("frameforge.framebounds", "ess_bounds", "framebounds.ess_bounds", None),
    ("frameforge.zak", "zak_transform", "zak.transform", _zak_points),
    ("frameforge.zak", "certify_gabor", "zak.certify", None),
    ("frameforge.pointsets", "StructuredPointSet.count_in_box", "pointsets.count_in_box", None),
    ("frameforge.pointsets", "LatticeCosets.points_in_box", "pointsets.points_in_box", _points),
    ("frameforge.pointsets", "EventuallyPeriodic1D.points_in_box", "pointsets.points_in_box",
     _points),
    ("frameforge.pointsets", "FiniteSet.points_in_box", "pointsets.points_in_box", _points),
    ("frameforge.pointsets", "FinitePerturbation.points_in_box", "pointsets.points_in_box",
     _points),
    ("frameforge.pointsets", "density_windowed", "pointsets.density_windowed", None),
    ("frameforge.pointsets", "density_closed_form", "pointsets.density_closed_form", None),
    ("frameforge.geometry", "Lattice.points_in_box", "geometry.lattice_points", None),
    ("frameforge.geometry", "translate_overlap", "geometry.translate_overlap", None),
    ("frameforge.gridfn", "cell_volumes", "gridfn.cell_volumes", _cells),
    ("frameforge.windows", "Window.eval", "windows.eval", _eval_points),
    ("frameforge.convolution", "comb_convolve", "convolution.comb_convolve", None),
    ("frameforge.convolution", "translation_bounded_probe",
     "convolution.translation_bounded_probe", None),
    ("frameforge.convolution", "check_density_convolution_bracket", "convolution.bracket", None),
    ("frameforge.construction", "tight_frame_obstruction_scan", "construction.obstruction", None),
    ("frameforge.construction", "build_lattice_tight_frame", "construction.lattice_tight", None),
    ("frameforge.construction", "build_bounded_window_frame", "construction.bounded_window",
     None),
    ("frameforge.construction", "cosine_measure_certificate", "construction.cosine_cert", None),
    ("frameforge.serialization", "write_csv", "serialization.write_csv", _csv_bytes),
    ("frameforge.cli", "main", "cli.main", None),
]

# called once per grid cell: counted, not timed, to keep the overhead low
COUNTED = [("frameforge.geometry", "BoxUnionSet.intersection_volume",
            "geometry.intersection_volume.calls")]


def _criteria() -> list[tuple[str, str, str, OnReturn]]:
    acceptance = importlib.import_module("frameforge.acceptance")
    return [("frameforge.acceptance", fn.__name__,
             f"acceptance.c{fn.__name__[len('criterion_'):][:2]}", None)
            for fn in acceptance.ALL_CRITERIA]


def _fold_key(name: str) -> str:
    # a criterion rerun inside criterion 12 belongs to criterion 12
    return "acceptance.c" if name.startswith("acceptance.c") else name


class Tracer:
    """Spans and counters of the traced verdicts of one run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, verdict]
        self.counts: dict[str, float] = defaultdict(float)
        self.verdict = -1
        self._stack: list[int] = []

    def parent_name(self, rec: list) -> Optional[str]:
        return self.spans[rec[3]][0] if rec[3] >= 0 else None

    def _spanned(self, name: str, fn: Callable, on_return: OnReturn) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.verdict]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, rec, args, result)
            return result
        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        undo: list[tuple[Callable[[Any], None], Any]] = []
        targets = [(m, a, functools.partial(self._spanned, n, on_return=cb))
                   for m, a, n, cb in SPANNED + _criteria()]
        targets += [(m, a, functools.partial(self._counted, n)) for m, a, n in COUNTED]
        try:
            for module, attr, wrap in targets:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    old = cls.__dict__[meth]
                    _set(undo, functools.partial(setattr, cls, meth), old, wrap(old))
                else:
                    old = getattr(owner, attr)
                    new = wrap(old)
                    _set(undo, functools.partial(setattr, owner, attr), old, new)
                    _rebind_everywhere(old, new, undo)
            yield self
        finally:
            for restore, value in reversed(undo):
                restore(value)


def _set(undo: list, setter: Callable[[Any], None], old: Any, new: Any) -> None:
    undo.append((setter, old))
    setter(new)


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if name == "frameforge" or name.startswith("frameforge.")]


def _swap(value: tuple, old: Any, new: Any) -> tuple:
    return tuple(new if v is old else v for v in value)


def _rebind_everywhere(old: Callable, new: Callable, undo: list) -> None:
    """Point every reference the package holds to ``old`` at ``new``."""
    for module in _package_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            setter = functools.partial(namespace.__setitem__, key)
            if value is old:
                _set(undo, setter, value, new)
            elif type(value) is tuple and any(v is old for v in value):
                _set(undo, setter, value, _swap(value, old, new))
            elif isinstance(value, types.FunctionType) and value.__defaults__:
                defaults = value.__defaults__
                swapped = tuple(_swap(d, old, new) if type(d) is tuple else d
                                for d in defaults)
                if swapped != defaults:
                    _set(undo, functools.partial(setattr, value, "__defaults__"),
                         defaults, swapped)


def layer_metrics(tr: Tracer, verdicts: int) -> dict[str, tuple[float, str]]:
    """Per-verdict layer metrics from the spans and counters of a run.

    A span nested in a span of the same name is folded into it, so recursive
    calls (a perturbation's ``points_in_box`` calling its base's) count once.
    Self time is a span's duration minus its direct children's durations.
    """
    spans = tr.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        key, p = _fold_key(name), parent
        while p >= 0 and _fold_key(spans[p][0]) != key:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
            calls[name] += 1
    c = tr.counts
    n = max(verdicts, 1)

    def s(name):
        return (incl[name] / n, "s/verdict")

    def k(value):
        return (value / n, "count/verdict")

    m = {
        "framebounds.eig.s": s("framebounds.eig"),
        "framebounds.eig.calls": k(calls["framebounds.eig"]),
        "framebounds.eig.order": k(c["framebounds.eig.order"]),
        "framebounds.eig.flops_computed": (c["framebounds.eig.flops_computed"] / n,
                                           "flop/verdict"),
        "framebounds.eig.used_ratio": (c["framebounds.eig.used"]
                                       / max(c["framebounds.eig.computed"], 1.0), "ratio"),
        "framebounds.estimate.calls": k(calls["framebounds.estimate"]),
        "framebounds.estimate.s": s("framebounds.estimate"),
        "framebounds.estimate.self_s": (self_s["framebounds.estimate"] / n, "s/verdict"),
        "framebounds.active_cells": k(c["framebounds.active_cells"]),
        "framebounds.ess_bounds.s": s("framebounds.ess_bounds"),
        "zak.transform.s": s("zak.transform"),
        "zak.certify.s": s("zak.certify"),
        "zak.grid_points": k(c["zak.grid_points"]),
        "pointsets.count_in_box.calls": k(calls["pointsets.count_in_box"]),
        "pointsets.count_in_box.s": s("pointsets.count_in_box"),
        "pointsets.density_windowed.s": s("pointsets.density_windowed"),
        "pointsets.density_closed_form.s": s("pointsets.density_closed_form"),
        "pointsets.points_in_box.calls": k(calls["pointsets.points_in_box"]),
        "pointsets.points_in_box.points": k(c["pointsets.points_in_box.points"]),
        "pointsets.points_in_box.s": s("pointsets.points_in_box"),
        "geometry.lattice_points.calls": k(calls["geometry.lattice_points"]),
        "geometry.lattice_points.s": s("geometry.lattice_points"),
        "gridfn.cell_volumes.calls": k(calls["gridfn.cell_volumes"]),
        "gridfn.cell_volumes.cells": k(c["gridfn.cell_volumes.cells"]),
        "gridfn.cell_volumes.s": s("gridfn.cell_volumes"),
        "geometry.intersection_volume.calls": k(c["geometry.intersection_volume.calls"]),
        "geometry.translate_overlap.calls": k(calls["geometry.translate_overlap"]),
        "geometry.translate_overlap.s": s("geometry.translate_overlap"),
        "construction.obstruction.s": s("construction.obstruction"),
        "construction.lattice_tight.s": s("construction.lattice_tight"),
        "construction.bounded_window.s": s("construction.bounded_window"),
        "construction.cosine_cert.s": s("construction.cosine_cert"),
        "windows.eval.calls": k(calls["windows.eval"]),
        "windows.eval.points": k(c["windows.eval.points"]),
        "windows.eval.s": s("windows.eval"),
        "convolution.comb_convolve.s": s("convolution.comb_convolve"),
        "convolution.translation_bounded_probe.s": s("convolution.translation_bounded_probe"),
        "convolution.bracket.s": s("convolution.bracket"),
    }
    for i in range(1, 13):
        m[f"acceptance.c{i:02d}_s"] = s(f"acceptance.c{i:02d}")
    m["serialization.write_csv.s"] = s("serialization.write_csv")
    m["serialization.write_csv.bytes"] = (c["serialization.write_csv.bytes"] / n, "B/verdict")
    return m
