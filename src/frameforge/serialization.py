"""File schemas (JSON) and CSV emission.

Domains, point sets and windowed systems round-trip through plain JSON
dictionaries; a domain may also be named by a generator tag such as
``cantor_tower:12`` or ``cantor_tower:12:5``.  Every JSON input, a file or
inline text, is read by ``read_json``, and every public ``*_from_dict``
decoder reports malformed data as an ``InputError``.  CSV cells use
``repr`` for floats, so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .framebounds import (
    ContinuousFreqMeasure,
    CosineFreqMeasure,
    FrameBoundsReport,
    FreqSpec,
    WindowedSystem,
)
from .geometry import Box, BoxUnionSet, Lattice, as_vec, as_whole, canonicalize, cantor_tower
from .gridfn import GridFunction
from .pointsets import (
    EventuallyPeriodic1D,
    FinitePerturbation,
    FiniteSet,
    LatticeCosets,
    StructuredPointSet,
    WeightedComb,
)
from .windows import Window
from .zak import GaborVerdict


def domain_to_dict(omega: BoxUnionSet) -> dict:
    return {"dim": omega.dim,
            "boxes": [list(b.lo) + list(b.hi) for b in omega.boxes]}


def read_json(text: str) -> Any:
    """The JSON held by the file that ``text`` names, or else ``text`` itself."""
    is_file = os.path.isfile(text)
    try:
        if is_file:
            with open(text) as fh:
                return json.load(fh)
        return json.loads(text)
    except ValueError as exc:
        where = f"file {text!r} holds no" if is_file else f"{text!r} is neither a file nor"
        raise InputError(f"{where} valid JSON ({exc})") from None


@contextlib.contextmanager
def _decoding(kind: str):
    """The decoding rule, worn by every public decoder: a ``LookupError``,
    ``OverflowError``, ``TypeError`` or ``ValueError`` the data raises becomes
    ``InputError("bad <kind> description: ...")``; an ``InputError`` raised
    inside, such as a nested decoder's, passes through unchanged."""
    try:
        yield
    except InputError:
        raise
    except (LookupError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"bad {kind} description: {detail}") from exc


@_decoding("domain")
def domain_from_dict(data: dict) -> BoxUnionSet:
    dim = as_whole(data["dim"])
    boxes = []
    for row in data["boxes"]:
        if len(row) != 2 * dim:
            raise ValueError(f"box row {row} does not match dim={dim}")
        boxes.append(Box(row[:dim], row[dim:]))
    return canonicalize(boxes)


@_decoding("domain")
def load_domain(descriptor: Union[str, dict]) -> tuple[BoxUnionSet, Optional[float]]:
    """Resolve a domain descriptor: a generator tag, a file path or inline
    JSON text, or decoded JSON.

    Returns the domain and, for truncated generators, the tail measure."""
    if isinstance(descriptor, str):
        text = descriptor.strip()
        if text.startswith("cantor_tower:"):
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise InputError(f"bad generator tag {text!r}; use "
                                 "cantor_tower:n_max or cantor_tower:n_max:k")
            tower = cantor_tower(*map(as_whole, parts[1:]))
            return tower.omega, tower.tail_measure
        descriptor = read_json(text)
    return domain_from_dict(descriptor), None


def pointset_to_dict(s: StructuredPointSet) -> dict:
    if isinstance(s, LatticeCosets):
        return {"kind": "lattice_cosets",
                "basis": [list(row) for row in s.lattice.basis],
                "offsets": [list(o) for o in s.offsets]}
    if isinstance(s, EventuallyPeriodic1D):
        return {"kind": "eventually_periodic_1d",
                "right_period": s.right_period, "right_start": s.right_start,
                "left_period": s.left_period, "left_start": s.left_start,
                "core": list(s.core)}
    if isinstance(s, FiniteSet):
        return {"kind": "finite_set", "dim": s.dim,
                "points": [list(p) for p in s.points]}
    if isinstance(s, FinitePerturbation):
        return {"kind": "finite_perturbation", "base": pointset_to_dict(s.base),
                "added": [list(p) for p in s.added],
                "removed": [list(p) for p in s.removed]}
    raise InputError(f"cannot serialize point set of type {type(s).__name__}")


@_decoding("lattice")
def lattice_from_rows(rows: Sequence[Sequence[float]]) -> Lattice:
    """A lattice from its basis rows, as ``--lattice`` and ``lattice_cosets``
    give them."""
    return Lattice(tuple(map(tuple, rows)))


@_decoding("point set")
def pointset_from_dict(data: dict) -> StructuredPointSet:
    kind = data["kind"]
    if kind == "lattice_cosets":
        return LatticeCosets(lattice_from_rows(data["basis"]), data["offsets"])
    if kind == "eventually_periodic_1d":
        fields = ("right_period", "right_start", "left_period", "left_start", "core")
        return EventuallyPeriodic1D(**{k: data[k] for k in fields if k in data})
    if kind == "finite_set":
        return FiniteSet(data["points"], dimension=as_whole(data.get("dim", 1)))
    if kind == "finite_perturbation":
        return FinitePerturbation(pointset_from_dict(data["base"]),
                                  data.get("added", ()), data.get("removed", ()))
    raise InputError(f"unknown point set kind {kind!r}")


@_decoding("comb")
def comb_from_dict(data: dict) -> WeightedComb:
    """A weighted comb ``{"terms": [{"weight": w, "support": {...}}, ...]}``,
    or a bare point set as the comb of weight 1 on it."""
    if "terms" in data:
        return WeightedComb(tuple((t["weight"] if "weight" in t else 1.0,
                                   pointset_from_dict(t["support"])) for t in data["terms"]))
    return WeightedComb.single(pointset_from_dict(data))


def _freq_to_dict(freq: FreqSpec) -> dict:
    if isinstance(freq, ContinuousFreqMeasure):
        out: dict[str, Any] = {"kind": "continuous"}
        if freq.density is not None:
            box = freq.density.bounding_box
            out["box"] = list(box.lo) + list(box.hi)
            out["n"] = freq.density.n_per_axis
            out["density"] = freq.density.samples.ravel().tolist()
            if freq.density.domain is not None:
                out["domain"] = domain_to_dict(freq.density.domain)
        out["atoms"] = [list(p) + [w] for p, w in freq.atoms]
        return out
    if isinstance(freq, CosineFreqMeasure):
        return {"kind": "cosine", "x0": list(freq.x0)}
    return pointset_to_dict(freq)


def _freq_from_dict(data: dict) -> FreqSpec:
    if data["kind"] == "continuous":
        density = None
        if "box" in data:
            row = data["box"]
            d = len(row) // 2
            box = Box(row[:d], row[d:])
            n = as_whole(data["n"])
            samples = np.array(data["density"], dtype=float).reshape((n,) * d)
            domain = domain_from_dict(data["domain"]) if "domain" in data else None
            density = GridFunction(box, samples, domain)
        atoms = tuple((row[:-1], row[-1]) for row in data.get("atoms", ()))
        return ContinuousFreqMeasure(density=density, atoms=atoms)
    if data["kind"] == "cosine":
        return CosineFreqMeasure(as_vec(data["x0"]))
    return pointset_from_dict(data)


def system_to_dict(system: WindowedSystem) -> dict:
    return {"omega": domain_to_dict(system.omega),
            "pairs": [{"window": w.to_string(), "label": w.label, "freq": _freq_to_dict(f)}
                      for w, f in system.pairs]}


@_decoding("system")
def system_from_dict(data: dict) -> WindowedSystem:
    """A system from its JSON; a pair without a ``label`` is named by its window text."""
    omega, _ = load_domain(data["omega"])
    labels = [p["label"] if "label" in p else None for p in data["pairs"]]
    if not all(label is None or isinstance(label, str) for label in labels):
        raise ValueError(f"window labels must be text, got {labels}")
    pairs = tuple((Window.from_string(p["window"], label), _freq_from_dict(p["freq"]))
                  for p, label in zip(data["pairs"], labels))
    return WindowedSystem(omega, pairs)


def load_system(descriptor: str) -> WindowedSystem:
    """A system from a file path or inline JSON text."""
    return system_from_dict(read_json(descriptor))


def save_system(system: WindowedSystem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def format_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(format_csv(header, rows))


def axis_header(name: str, dim: int) -> tuple[str, ...]:
    """One column per axis: ``name`` in 1-D, ``name_0, ..., name_{d-1}`` otherwise."""
    return (name,) if dim == 1 else tuple(f"{name}_{a}" for a in range(dim))


def box_label(box: Optional[Box]) -> str:
    if box is None:
        return "untruncated"
    lo = ",".join(map(repr, box.lo))
    hi = ",".join(map(repr, box.hi))
    return f"[{lo};{hi})"


DENSITY_TRACE_HEADER = ("h", "inf_density", "sup_density")
FRAME_BOUNDS_HEADER = ("system", "grid_n", "trunc", "A_est", "B_est", "tight_ratio")
CERTIFICATE_HEADER = ("x0", "A_est", "B_est")
GABOR_HEADER = ("p", "q", "M", "A53", "B53", "verdict", "zz_min", "zz_max")


def frame_bounds_row(label: str, rep: FrameBoundsReport) -> tuple:
    return (label, rep.grid_n, box_label(rep.trunc_box), rep.A_est, rep.B_est, rep.tight_ratio)


def gabor_row(v: GaborVerdict) -> tuple:
    return (v.p, v.q, v.M, v.A_53, v.B_53, v.verdict, v.zz_min, v.zz_max)
