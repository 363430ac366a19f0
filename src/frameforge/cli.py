"""Command-line front end: dispatch, reports, CSV artifacts.

Exit status is 0 whenever a verdict was computed, including negative
verdicts and refusals; nonzero only for unusable input.  The seed governs
only ``verify``'s randomized trials, and identical configurations produce
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import acceptance
from .construction import (
    CertificateRefusal,
    ConstructionRefusal,
    TightFrameRefusal,
    build_bounded_window_frame,
    build_lattice_tight_frame,
    cosine_measure_certificate,
    tight_frame_obstruction_scan,
)
from .errors import InputError
from .framebounds import estimate_frame_bounds
from .geometry import Box, Lattice, cartesian, lattice_residue_check, overlap_profile
from .pointsets import WeightedComb, density_closed_form, density_windowed
from .serialization import (
    CERTIFICATE_HEADER,
    DENSITY_TRACE_HEADER,
    FRAME_BOUNDS_HEADER,
    GABOR_HEADER,
    box_label,
    frame_bounds_row,
    gabor_row,
    load_domain,
    load_system,
    pointset_from_dict,
    save_system,
    write_csv,
)
from .windows import Window
from .zak import certify_gabor


def _load_json_arg(text: str) -> dict:
    if os.path.exists(text):
        with open(text) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"argument {text!r} is neither a file nor inline JSON") from exc


def _parse_lattice(text: str, dim: int) -> Lattice:
    try:
        return Lattice.scaled_integers(float(text), dim)
    except ValueError:
        pass
    data = _load_json_arg(text)
    return Lattice(tuple(tuple(float(v) for v in row) for row in data))


def _parse_trunc(text: Optional[str], dim: int) -> Optional[Box]:
    if text is None:
        return None
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise InputError(f"truncation must look like 'lo:hi', got {text!r}") from exc
    return Box((lo,) * dim, (hi,) * dim)


def _parse_comb(descriptor: str) -> WeightedComb:
    data = _load_json_arg(descriptor)
    if "terms" in data:
        terms = tuple((float(t.get("weight", 1.0)), pointset_from_dict(t["support"]))
                      for t in data["terms"])
        return WeightedComb(terms)
    return WeightedComb.single(pointset_from_dict(data))


def _emit(report_lines: list[str], args) -> None:
    text = "\n".join(report_lines) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_density(args) -> int:
    comb = _parse_comb(args.points)
    lines = []
    if args.windowed:
        h_list = [float(h) for h in args.h_list.split(",")]
        rep = density_windowed(comb, h_list, args.x_samples)
        if args.csv:
            write_csv(args.csv, DENSITY_TRACE_HEADER, rep.estimator_trace)
    else:
        rep = density_closed_form(comb)
    lines.append(f"method: {rep.method}")
    lines.append(f"lower_density: {rep.lower!r}")
    lines.append(f"upper_density: {rep.upper!r}")
    _emit(lines, args)
    return 0


def cmd_overlap(args) -> int:
    omega, tail = load_domain(args.domain)
    # the half-box 0 <= x_0 <= x_max, |x_a| <= x_max that overlap_zero_set scans,
    # by default at the finest step 0.01 k that keeps it within 10^5 shifts
    step, k = args.step, 0
    while step is None:  # n = len(half) at step 0.01 k
        k += 1
        n = math.ceil((args.x_max + 0.01 * k / 2.0) / (0.01 * k))
        step = 0.01 * k if n * (2 * n - 1) ** (omega.dim - 1) <= 10 ** 5 else None
    half = np.arange(0.0, args.x_max + step / 2.0, step)
    whole = np.r_[-half[:0:-1], half]
    prof = overlap_profile(omega, cartesian([half] + [whole] * (omega.dim - 1)))
    if args.csv:
        axes = ("x",) if omega.dim == 1 else tuple(f"x_{a}" for a in range(omega.dim))
        write_csv(args.csv, axes + ("overlap",), [x + (v,) for x, v in prof])
    positive = sum(1 for _, v in prof if v > 0)
    lines = [f"shifts_sampled: {len(prof)}", f"positive_overlaps: {positive}"]
    if tail is not None:
        lines.append(f"truncation_tail_measure: {tail!r}")
    _emit(lines, args)
    return 0


def cmd_residue(args) -> int:
    omega, _ = load_domain(args.domain)
    lattice = _parse_lattice(args.lattice, omega.dim)
    verdict = lattice_residue_check(omega, lattice)
    lines = [f"holds: {verdict.holds}"]
    if verdict.witness is not None:
        w = verdict.witness
        lines.append(f"witness_shift: {list(w.gamma_prime)}")
        lines.append(f"witness_point: {list(w.point)}")
        lines.append(f"witness_overlap: {w.overlap!r}")
    _emit(lines, args)
    return 0


def cmd_frame_bounds(args) -> int:
    system = load_system(args.system)
    trunc = _parse_trunc(args.trunc, system.omega.dim)
    rep = estimate_frame_bounds(system, args.grid_n, trunc)
    label = os.path.basename(args.system) if os.path.exists(args.system) else "inline"
    if args.csv:
        write_csv(args.csv, FRAME_BOUNDS_HEADER, [frame_bounds_row(label, rep)])
    lines = [f"A_est: {rep.A_est!r}", f"B_est: {rep.B_est!r}",
             f"tight_ratio: {rep.tight_ratio!r}", f"grid_n: {rep.grid_n}",
             f"trunc: {box_label(rep.trunc_box)}"]
    if rep.notes:
        lines.append(f"notes: {rep.notes}")
    _emit(lines, args)
    return 0


def cmd_construct(args) -> int:
    omega, _ = load_domain(args.domain)
    try:
        if args.lattice is not None:
            lattice = _parse_lattice(args.lattice, omega.dim)
            result = build_lattice_tight_frame(omega, lattice, args.grid_n)
        elif args.windows is not None:
            # commas inside parentheses separate a factor's arguments
            windows = [Window.from_string(w) for w in re.split(r",(?![^()]*\))", args.windows)]
            result = build_bounded_window_frame(windows, omega, args.grid_n)
        else:
            raise InputError("construct needs --windows or --lattice")
    except (ConstructionRefusal, TightFrameRefusal) as refusal:
        lines = ["verdict: refused", f"reason: {refusal.reason}"]
        if isinstance(refusal, TightFrameRefusal):
            norm = float(np.sqrt(refusal.counterexample.norm_sq()))
            lines += [f"witness_shift: {list(refusal.witness.gamma_prime)}",
                      f"counterexample_norm: {norm!r}"]
        _emit(lines, args)
        return 0
    lines = ["verdict: constructed", f"predicted_A: {result.predicted_A!r}",
             f"predicted_B: {result.predicted_B!r}", f"provenance: {result.provenance}"]
    if args.out:
        save_system(result.system, args.out)
        lines.append(f"system_file: {args.out}")
    _emit(lines, args)
    return 0


def cmd_obstruction(args) -> int:
    omega, tail = load_domain(args.domain)
    verdict = tight_frame_obstruction_scan(omega, args.x_max, tail_measure=tail)
    if args.csv:
        header = [f"{end}_{a}" for end in ("lo", "hi") for a in range(omega.dim)]
        write_csv(args.csv, header, [lo + hi for lo, hi in verdict.zero_set])
    lines = [f"hypothesis_satisfied: {verdict.hypothesis_satisfied}", f"R: {verdict.R!r}",
             f"zero_boxes: {len(verdict.zero_set)}"]
    lines += [f"first_zero_box: {list(lo)} to {list(hi)}" for lo, hi in verdict.zero_set[:1]]
    if verdict.hypothesis_satisfied:
        lines.append("conclusion: no tight exponential frame on the scanned range")
    lines.append(f"caveat: {verdict.caveat}")
    _emit(lines, args)
    return 0


def cmd_certify_measure(args) -> int:
    omega, _ = load_domain(args.domain)
    x0 = tuple(float(v) for v in args.x0.split(","))
    try:
        cert = cosine_measure_certificate(omega, x0, grid_n=args.grid_n)
    except CertificateRefusal as refusal:
        lines = ["verdict: refused",
                 f"reason: {refusal.reason}",
                 f"overlap_plus: {refusal.overlap_plus!r}",
                 f"overlap_minus: {refusal.overlap_minus!r}"]
        _emit(lines, args)
        return 0
    rep = cert.report
    if args.csv:
        write_csv(args.csv, CERTIFICATE_HEADER,
                  [(",".join(repr(v) for v in x0), rep.A_est, rep.B_est)])
    lines = [f"verdict: {'certified' if cert.holds else 'not tight'}",
             f"A_est: {rep.A_est!r}",
             f"B_est: {rep.B_est!r}",
             f"notes: {rep.notes}"]
    _emit(lines, args)
    return 0


def cmd_gabor(args) -> int:
    window = Window.from_string(args.window)
    verdict = certify_gabor(window, args.p, args.q, args.M)
    if args.csv:
        write_csv(args.csv, GABOR_HEADER, [gabor_row(verdict)])
    lines = [f"verdict: {verdict.verdict}",
             f"A_53: {verdict.A_53!r}", f"B_53: {verdict.B_53!r}",
             f"zz_min: {verdict.zz_min!r}", f"zz_max: {verdict.zz_max!r}",
             f"unitarity_residual: {verdict.unitarity_residual!r}"]
    _emit(lines, args)
    return 0


def cmd_verify(args) -> int:
    lines: list[str] = []
    results = acceptance.run_all(args.seed, echo=lines.append)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for result in results:
            for art in result.artifacts:
                write_csv(os.path.join(args.outdir, art.name), art.header, art.rows)
        write_csv(os.path.join(args.outdir, "summary.csv"),
                  ("criterion", "name", "passed"),
                  [(r.number, r.name, int(r.passed)) for r in results])
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    _emit(lines, args)
    # failing criteria are still computed verdicts; only unusable input is a
    # process failure
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameforge",
        description="windowed-exponential frame toolkit")
    parser.add_argument("--config", help="JSON file overriding subcommand options")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes --report; those that write a table take --csv too
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report")
    table = argparse.ArgumentParser(add_help=False, parents=[report])
    table.add_argument("--csv")

    p = sub.add_parser("density", parents=[table], help="Beurling densities of a weighted comb")
    p.add_argument("--points", required=True, help="point set or comb descriptor")
    p.add_argument("--windowed", action="store_true",
                   help="use the sliding-window estimator instead of closed forms")
    p.add_argument("--h-list", default="10,100,1000")
    p.add_argument("--x-samples", type=int, default=400)
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("overlap", parents=[table], help="translate overlap profile of a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--x-max", type=float, default=8.0)
    p.add_argument("--step", type=float, help="default: the finest multiple of 0.01 "
                   "that keeps the half-box within 10^5 shifts")
    p.set_defaults(handler=cmd_overlap)

    p = sub.add_parser("residue", parents=[report], help="lattice residue packing check")
    p.add_argument("--domain", required=True)
    p.add_argument("--lattice", required=True,
                   help="covolume scalar or JSON basis matrix")
    p.set_defaults(handler=cmd_residue)

    p = sub.add_parser("frame-bounds", parents=[table], help="frame bound estimation for a system")
    p.add_argument("--system", required=True, help="system description file")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--trunc", help="frequency truncation as lo:hi per axis")
    p.set_defaults(handler=cmd_frame_bounds)

    p = sub.add_parser("construct", parents=[report],
                       help="build a frame (cube harmonics or lattice)")
    p.add_argument("--domain", required=True)
    p.add_argument("--windows", help="comma-separated window expressions")
    p.add_argument("--lattice", help="covolume scalar or JSON basis matrix")
    p.add_argument("--grid-n", type=int, default=256,
                   help="cells per axis: of the window-range pieces with --windows, of "
                   "the grid that measures the tight constant with --lattice")
    p.add_argument("--out", help="write the constructed system description here")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("obstruction", parents=[table], help="tight-frame obstruction scan")
    p.add_argument("--domain", required=True)
    p.add_argument("--x-max", type=float, default=8.0)
    p.set_defaults(handler=cmd_obstruction)

    p = sub.add_parser("certify-measure", parents=[table],
                       help="cosine tight-frame-measure certificate")
    p.add_argument("--domain", required=True)
    p.add_argument("--x0", required=True, help="shift vector, comma-separated")
    p.add_argument("--grid-n", type=int, help="default: the coarsest aligned grid "
                   "with at least 256 cells")
    p.set_defaults(handler=cmd_certify_measure)

    p = sub.add_parser("gabor", parents=[table], help="rational-shift Gabor certification")
    p.add_argument("--window", required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--M", type=int, default=256)
    p.set_defaults(handler=cmd_gabor)

    p = sub.add_parser("verify", parents=[report], help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--outdir", help="directory for CSV artifacts")
    p.set_defaults(handler=cmd_verify)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise InputError(f"config key {key!r} does not match any option")
        setattr(args, dest, value)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.handler(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: missing file {exc.filename}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
