"""Run one frameforge benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload frame-bounds --seed 1 --seconds 45 --trace 0

Run it from a source checkout: it imports frameforge from ``src/`` beside
this directory, with the BLAS threads capped at the number of usable cores.
The set-up is timed cold, in fresh child processes; the measured verdicts
all run in this one process.  The run draws its inputs from ``--seed``,
times whole rounds of verdicts for at least ``--seconds`` seconds and checks
every verdict against an oracle.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A traced run writes its spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("frame-bounds", "verify")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up in this process and print it
    parser.add_argument("--setup-only", type=int, metavar="INDEX", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS threads at the usable cores; call before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_program() -> float:
    """Import frameforge and every module it loads; return the time taken."""
    if not (SRC / "frameforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no frameforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import frameforge  # noqa: F401
    import frameforge.cli  # noqa: F401
    return time.perf_counter() - start


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "frameforge").glob("*.py")))
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": threads, "src_lines": src_lines}


def run_case(case) -> tuple[float, object]:
    """Time one verdict; an exception is returned as the result."""
    start = time.perf_counter()
    try:
        result = case.call()
    except Exception as exc:  # a raising verdict is a failed verdict
        traceback.print_exc(file=sys.stderr)
        result = exc
    return time.perf_counter() - start, result


def judge(case, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(case.check(result))
    except Exception:  # an oracle that cannot read the result rejects it
        traceback.print_exc(file=sys.stderr)
        return False


def verdict(case, tracer=None) -> tuple[float, float, bool]:
    """Run and judge one verdict: (untraced s, traced s, passed).

    With a tracer the verdict runs untraced and traced, alternating which
    goes first, and it passes only if both results pass.
    """
    if tracer is None:
        elapsed, result = run_case(case)
        return elapsed, 0.0, judge(case, result)
    timed, passed = {}, True
    for traced in ((False, True) if tracer.verdict % 2 == 0 else (True, False)):
        if traced:
            with tracer.installed():
                timed[traced], result = run_case(case)
        else:
            timed[traced], result = run_case(case)
        passed &= judge(case, result)
    return timed[False], timed[True], passed


def measure(workload, rng, seconds: float, tracer=None) -> dict:
    """Run whole rounds of verdicts for about ``seconds`` seconds.

    Every round has the same mix, so a run is whole rounds: the last one
    starts while its expected end is at most half a round past ``seconds``.
    Reproductions of known defects are judged and counted but neither timed
    nor traced.
    """
    times, traced_times, kinds, attempted, failed, unexpected = [], [], [], 0, 0, 0
    start = time.perf_counter()
    rounds = 0
    while True:
        for case in workload.round(rng):
            if case.known_defect:
                _, _, passed = verdict(case)
            else:
                if tracer is not None:
                    tracer.verdict = len(times)
                elapsed, traced_elapsed, passed = verdict(case, tracer)
                times.append(elapsed)
                traced_times.append(traced_elapsed)
                kinds.append(case.kind)
            attempted += 1
            if not passed:
                failed += 1
                unexpected += not case.known_defect
                print(f"failed verdict {attempted - 1}: {case.kind} {case.params}",
                      file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    return {"times": times, "traced_times": traced_times, "kinds": kinds,
            "attempted": attempted, "failed": failed, "unexpected": unexpected}


def warm_up(workload, rng) -> bool:
    """Generate one case and run its verdict; report whether it passed."""
    case = workload.warmup(rng)
    _, _, passed = verdict(case)
    if not passed:
        print(f"failed warm-up verdict: {case.kind} {case.params}", file=sys.stderr)
    return passed


def setup_once(make_workload, rng, import_s: float) -> dict:
    """One cold set-up in this fresh process: the import (already timed),
    input generation and one warm-up verdict."""
    workload = make_workload(str(OUT / f"setup-{os.getpid()}"))
    try:
        start = time.perf_counter()
        passed = warm_up(workload, rng)
        setup_s = import_s + time.perf_counter() - start
    finally:
        workload.close()
    return {"setup_s": setup_s, "passed": passed}


def setup_time(args) -> tuple[float, int]:
    """The median of ``SETUP_RUNS`` cold set-ups, each in a fresh process so
    that first-use initialisation and any cache start empty, and the number
    of them whose warm-up failed its oracle."""
    samples, failed = [], 0
    for index in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(index)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run {index} exited with {proc.returncode}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(doc["setup_s"])
        failed += not doc["passed"]
    return statistics.median(samples), failed


def write_trace(path: Path, env: dict, metrics: dict, tracer) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {"env": env, "metrics": metrics, "span_names": names,
           "span_fields": ["name", "start", "end", "parent", "verdict"],
           "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans],
           "counts": dict(tracer.counts)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = cap_threads()
    try:
        import_s = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import frameforge: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import tracer as tracing
    import workloads

    make_workload = workloads.WORKLOADS[args.workload]
    setup_seq, warm_seq, run_seq = np.random.SeedSequence(args.seed).spawn(3)
    if args.setup_only is not None:
        rng = np.random.default_rng(setup_seq.spawn(SETUP_RUNS)[args.setup_only])
        print(json.dumps(setup_once(make_workload, rng, import_s)))
        return 0
    env = environment(threads)
    print("environment " + json.dumps(env, sort_keys=True))
    setup_s, setup_failed = setup_time(args)
    workload = make_workload(str(OUT / f"run-{os.getpid()}"))
    try:
        setup_failed += not warm_up(workload, np.random.default_rng(warm_seq))
        tracer = tracing.Tracer() if args.trace else None
        run = measure(workload, np.random.default_rng(run_seq), args.seconds, tracer)
    finally:
        workload.close()
    times = run["times"]
    for kind in dict.fromkeys(run["kinds"]):
        own = [t for t, k in zip(times, run["kinds"]) if k == kind]
        print(f"kind {kind}: {len(own)} verdicts, median {statistics.median(own):.4f} s")
    if args.trace:
        n = len(times)
        untraced, traced = sum(times), sum(run["traced_times"])
        metrics = tracing.layer_metrics(tracer, n)
        metrics["trace.verdict_s"] = (traced / n, "s/verdict")
        metrics["trace.overhead_s"] = ((traced - untraced) / n, "s/verdict")
        metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz", env,
                    metrics, tracer)
    else:
        metrics = {
            "verdicts_per_s": (len(times) / sum(times), "1/s"),
            "verdict_s.p50": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
            "ok_share": (1.0 - run["failed"] / run["attempted"], "ratio"),
        }
    print(json.dumps({
        "correct": run["unexpected"] == 0 and setup_failed == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
