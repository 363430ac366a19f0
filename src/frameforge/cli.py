"""Command-line front end: dispatch, reports, CSV artifacts.

Every descriptor option (``--domain``, ``--system``, ``--points``, a
``--lattice`` basis and ``--config``) takes a file path or inline JSON, read
by ``serialization.read_json`` and decoded by the ``serialization`` decoders;
``--config`` values are converted and checked as on the command line.  Each
``cmd_*`` handler returns its report lines, and ``main`` alone writes them
and sets the exit status: 0 whenever a verdict was computed, including
negative verdicts and refusals; 2, with one ``error:`` line, for unusable
input.  The seed governs only ``verify``'s randomized trials, and identical
configurations produce byte-identical CSV output.
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
from .geometry import Box, Lattice, as_vec, cartesian, lattice_residue_check, overlap_profile
from .pointsets import density_closed_form, density_windowed
from .serialization import (
    CERTIFICATE_HEADER,
    DENSITY_TRACE_HEADER,
    FRAME_BOUNDS_HEADER,
    GABOR_HEADER,
    box_label,
    comb_from_dict,
    frame_bounds_row,
    gabor_row,
    lattice_from_rows,
    load_domain,
    load_system,
    read_json,
    save_system,
    write_csv,
)
from .windows import Window
from .zak import certify_gabor


def _numbers(text: str, option: str, sep: str = ",", count: Optional[int] = None
             ) -> tuple[float, ...]:
    """The numbers of an option value such as ``2,0`` (or ``lo:hi`` with
    ``sep=":"``, ``count=2``)."""
    try:
        values = as_vec(text.split(sep))
    except InputError:
        raise
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        raise InputError(f"{option} takes {count or 'one or more'} numbers "
                         f"separated by {sep!r}, got {text!r}")
    return values


def _parse_lattice(text: str, dim: int) -> Lattice:
    try:
        scale = float(text)
    except ValueError:
        return lattice_from_rows(read_json(text))
    return Lattice.scaled_integers(scale, dim)


def _emit(report_lines: list[str], args) -> None:
    text = "\n".join(report_lines) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_density(args) -> list[str]:
    comb = comb_from_dict(read_json(args.points))
    if args.windowed:
        rep = density_windowed(comb, _numbers(args.h_list, "--h-list"), args.x_samples)
        if args.csv:
            write_csv(args.csv, DENSITY_TRACE_HEADER, rep.estimator_trace)
    else:
        rep = density_closed_form(comb)
    return [f"method: {rep.method}", f"lower_density: {rep.lower!r}",
            f"upper_density: {rep.upper!r}"]


def default_overlap_step(x_max: float, dim: int) -> float:
    """The finest step 0.01 k that keeps the half-box 0 <= x_0 <= x_max, |x_a| <= x_max
    within 10^5 shifts: the count falls as k grows, so k doubles, then bisects."""
    def fits(k: int) -> bool:  # n = len(half) at step 0.01 k
        n = math.ceil((x_max + 0.01 * k / 2.0) / (0.01 * k))
        return n * (2 * n - 1) ** (dim - 1) <= 10 ** 5

    lo, hi = 0, 1  # hi fits; lo is 0 or does not fit
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        lo, hi = (lo, mid) if fits(mid := (lo + hi) // 2) else (mid, hi)
    return 0.01 * hi


def cmd_overlap(args) -> list[str]:
    for option, value in (("--x-max", args.x_max), ("--step", args.step)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InputError(f"{option} must be positive and finite, got {value}")
    omega, tail = load_domain(args.domain)
    step = args.step or default_overlap_step(args.x_max, omega.dim)
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
    return lines


def cmd_residue(args) -> list[str]:
    omega, _ = load_domain(args.domain)
    lattice = _parse_lattice(args.lattice, omega.dim)
    verdict = lattice_residue_check(omega, lattice)
    lines = [f"holds: {verdict.holds}"]
    if verdict.witness is not None:
        w = verdict.witness
        lines.append(f"witness_shift: {list(w.gamma_prime)}")
        lines.append(f"witness_point: {list(w.point)}")
        lines.append(f"witness_overlap: {w.overlap!r}")
    return lines


def cmd_frame_bounds(args) -> list[str]:
    system = load_system(args.system)
    trunc = None
    if args.trunc is not None:
        lo, hi = _numbers(args.trunc, "--trunc", sep=":", count=2)
        trunc = Box((lo,) * system.omega.dim, (hi,) * system.omega.dim)
    rep = estimate_frame_bounds(system, args.grid_n, trunc)
    label = os.path.basename(args.system) if os.path.isfile(args.system) else "inline"
    if args.csv:
        write_csv(args.csv, FRAME_BOUNDS_HEADER, [frame_bounds_row(label, rep)])
    lines = [f"A_est: {rep.A_est!r}", f"B_est: {rep.B_est!r}",
             f"tight_ratio: {rep.tight_ratio!r}", f"grid_n: {rep.grid_n}",
             f"trunc: {box_label(rep.trunc_box)}"]
    if rep.notes:
        lines.append(f"notes: {rep.notes}")
    return lines


def cmd_construct(args) -> list[str]:
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
        return lines
    lines = ["verdict: constructed", f"predicted_A: {result.predicted_A!r}",
             f"predicted_B: {result.predicted_B!r}", f"provenance: {result.provenance}"]
    if args.out:
        save_system(result.system, args.out)
        lines.append(f"system_file: {args.out}")
    return lines


def cmd_obstruction(args) -> list[str]:
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
    return lines


def cmd_certify_measure(args) -> list[str]:
    omega, _ = load_domain(args.domain)
    x0 = _numbers(args.x0, "--x0")
    try:
        cert = cosine_measure_certificate(omega, x0, grid_n=args.grid_n)
    except CertificateRefusal as refusal:
        return ["verdict: refused", f"reason: {refusal.reason}",
                f"overlap_plus: {refusal.overlap_plus!r}",
                f"overlap_minus: {refusal.overlap_minus!r}"]
    rep = cert.report
    if args.csv:
        write_csv(args.csv, CERTIFICATE_HEADER,
                  [(",".join(repr(v) for v in x0), rep.A_est, rep.B_est)])
    return [f"verdict: {'certified' if cert.holds else 'not tight'}",
            f"A_est: {rep.A_est!r}", f"B_est: {rep.B_est!r}", f"notes: {rep.notes}"]


def cmd_gabor(args) -> list[str]:
    window = Window.from_string(args.window)
    verdict = certify_gabor(window, args.p, args.q, args.M)
    if args.csv:
        write_csv(args.csv, GABOR_HEADER, [gabor_row(verdict)])
    return [f"verdict: {verdict.verdict}",
            f"A_53: {verdict.A_53!r}", f"B_53: {verdict.B_53!r}",
            f"zz_min: {verdict.zz_min!r}", f"zz_max: {verdict.zz_max!r}",
            f"unitarity_residual: {verdict.unitarity_residual!r}"]


def cmd_verify(args) -> list[str]:
    # failing criteria are still computed verdicts, reported with exit status 0
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
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameforge",
        description="windowed-exponential frame toolkit")
    parser.add_argument("--config", help="JSON object (file or inline) overriding "
                        "subcommand options")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes --report; those that write a table take --csv too
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report")
    table = argparse.ArgumentParser(add_help=False, parents=[report])
    table.add_argument("--csv")

    p = sub.add_parser("density", parents=[table], help="Beurling densities of a weighted comb")
    p.add_argument("--points", required=True,
                   help="point set or comb descriptor (file or inline JSON)")
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
                   help="covolume scalar or JSON basis matrix (file or inline)")
    p.set_defaults(handler=cmd_residue)

    p = sub.add_parser("frame-bounds", parents=[table], help="frame bound estimation for a system")
    p.add_argument("--system", required=True, help="system description (file or inline JSON)")
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--trunc", help="frequency truncation as lo:hi per axis")
    p.set_defaults(handler=cmd_frame_bounds)

    p = sub.add_parser("construct", parents=[report],
                       help="build a frame (cube harmonics or lattice)")
    p.add_argument("--domain", required=True)
    p.add_argument("--windows", help="comma-separated window expressions")
    p.add_argument("--lattice", help="covolume scalar or JSON basis matrix (file or inline)")
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


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Set the subcommand options that the ``--config`` JSON object names,
    each value converted and checked as on the command line: a string is the
    option's text, any other value its JSON text; a flag takes true or false."""
    overrides = read_json(args.config)
    if not isinstance(overrides, dict):
        raise InputError(f"--config must hold one JSON object, got {overrides!r}")
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.default != argparse.SUPPRESS}
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise InputError(f"config key {key!r} does not match any option")
        text = value if isinstance(value, str) else json.dumps(value)
        flag = action.nargs == 0
        try:
            value = {"true": True, "false": False}[text] if flag else (action.type or str)(text)
        except (KeyError, ValueError):
            expected = "true or false" if flag else f"{action.type.__name__} values"
            raise InputError(f"config key {key!r} takes {expected}, got {text!r}") from None
        setattr(args, action.dest, value)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand: 0 for any computed verdict, negative verdicts and
    refusals included; 2, with one ``error:`` line, for unusable input."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(parser, args)
        _emit(args.handler(args), args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: missing file {exc.filename}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
