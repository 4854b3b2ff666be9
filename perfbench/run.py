#!/usr/bin/env python3
"""Seeded benchmark of credalmeet: end-to-end metrics, or per-layer ones with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload base-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One run is one process and a closed loop: the workload's operations are
called one after another, each after the previous one returned, with BLAS
held to one thread. The library is imported from ``src/`` next to this
directory; the run stops with a non-zero status if it is not there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record, and
for a traced run its spans, go to ``.perfbench_out/`` at the repository
root. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so that one run is one busy thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import bisect
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ctypes

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 9

#: Measured passes over the operations at least, even past --seconds. One
#: more pass comes first as a warm-up; its results are checked, not timed.
MIN_PASSES = 3

#: Seconds between two speed-probe samples.
PROBE_INTERVAL_S = 0.025

#: Duration of one probe kernel run at the reference speed: about its median
#: on the 2-core Intel Xeon the first baseline was measured on, while that box
#: ran fast.
PROBE_REFERENCE_S = 6.0e-5

#: Workload code slows less than the probe kernel when the machine does: in
#: two measurements of 20 runs per workload, in spells where the probe read
#: about 0.45 to 0.95 of the reference speed, the slope of log wall time on
#: log probe speed was 0.66 to 0.93 for the passes and 0.60 to 0.96 for the
#: set-ups. With the probe taken at face value (exponent 1), two sets of ten
#: runs in a slow and a fast spell differed by up to 18% in a median;
#: rescaled with 0.8, their medians differed by up to 11%.
SPEED_EXPONENT = 0.8


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold after large arrays are freed, and then serves
    the next ones from a heap it does not trim; depending on the order of
    frees, the peak resident memory of one pair-dense run read 93 MB or
    102-104 MB. With the threshold fixed, large arrays are always mapped and
    unmapped, and the peak follows the largest live allocation.
    """
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics' names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import credalmeet from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import credalmeet

    found = Path(credalmeet.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise ImportError(f"credalmeet was imported from {found}, not from {SRC}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SpeedProbe:
    """Samples the speed of the machine while the benchmark runs.

    The benchmark runs on shared machines whose speed changes by up to 2x
    within a second as neighbours come and go; process CPU time moves with
    wall time, so it does not help. While the probe is active a timer signal
    takes a sample every ``PROBE_INTERVAL_S`` (about 0.5% of the time): it
    times a fixed kernel of an interpreter-bound loop, a small ``einsum`` and
    a small dense solve, about 20 µs each, since the workloads mix all three
    kinds of code and they slow down by different factors (1.8, 1.5 and 1.9
    measured in one slow spell). A sample's speed is the kernel's speed
    relative to ``PROBE_REFERENCE_S``, raised to ``SPEED_EXPONENT``.
    :meth:`scaled` converts a wall interval into seconds at the reference
    speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._loop = [float(i % 97) * 0.25 for i in range(700)]
        self._factor = rng.random((2, 8))
        self._tensor = rng.random((8, 8, 8))
        self._matrix = rng.random((40, 40)) + 40 * np.eye(40)
        self._rhs = rng.random(40)
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._busy = False

    def _kernel(self) -> None:
        total = 0.0
        for w in self._loop:
            if w > 0.0:
                total += w * w
        f = self._factor
        np.einsum("Aa,Bb,Cc,abc->ABC", f, f, f, self._tensor)
        np.linalg.solve(self._matrix, self._rhs)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        # The first run refills the caches the workload evicted (it takes up
        # to twice as long); only the second, warm run is timed.
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        self.times.append(start)
        self.speeds.append((PROBE_REFERENCE_S / (time.perf_counter() - start)) ** SPEED_EXPONENT)
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the wall interval ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        # an interval shorter than the sampling step takes its nearest samples
        speeds = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0):lo + 1]
        return (end - start) * statistics.fmean(speeds)


class Tally:
    """Operations attempted and failed, and the worst value-iteration error.

    ``check(op, result)`` raises when a result is wrong and returns the
    value-iteration error ratio, or None for other operations.
    """

    def __init__(self, check):
        self._check = check
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.vi_err_over_tol = 0.0

    def add(self, results) -> None:
        for op, result, error in results:
            self.attempted += 1
            ratio = None
            if error is None:
                try:
                    ratio = self._check(op, result)
                except (ValueError, KeyError, OSError) as exc:
                    error = exc
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.name}: {error!r}")
            elif ratio is not None:
                self.vi_err_over_tol = max(self.vi_err_over_tol, ratio)


def timed(probe: SpeedProbe, fn) -> tuple[float, float, object, Exception | None]:
    """Wall and reference-speed seconds of one call, its result and its error."""
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # one failed operation must not end the run
        result, error = None, exc
    end = time.perf_counter()
    return end - start, probe.scaled(start, end), result, error


def run_pass(probe: SpeedProbe, ops) -> tuple[float, float, list]:
    """Call every operation once; returns summed wall and scaled time, and the results."""
    wall = scaled = 0.0
    results = []
    for op in ops:
        w, s, result, error = timed(probe, op.run)
        wall += w
        scaled += s
        results.append((op, result, error))
    return wall, scaled, results


def measure(workload, seconds: float, tally: Tally) -> dict:
    """Untraced run: repeated set-ups, a warm-up pass, then passes until ``seconds`` have gone."""
    deadline = time.perf_counter() + seconds
    setups, passes = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPS):
            wall, scaled, models, error = timed(probe, workload.setup)
            if error is not None:
                raise error
            setups.append((wall, scaled))
        ops = workload.ops(models)
        tally.add(run_pass(probe, ops)[2])
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            wall, scaled, results = run_pass(probe, ops)
            passes.append((wall, scaled))
            tally.add(results)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_s": statistics.median(s for _, s in passes),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    walls = {
        "solve_wall_s": statistics.median(w for w, _ in passes),
        "setup_wall_s": statistics.median(w for w, _ in setups),
    }
    return {"metrics": metrics, "walls": walls, "passes": passes, "setups": setups}


def measure_traced(workload, seconds: float, tally: Tally) -> dict:
    """Traced run: untraced and traced iterations (set-up plus pass) alternate."""
    import tracing

    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    with SpeedProbe() as probe:
        tally.add(run_pass(probe, workload.ops(workload.setup()))[2])
        while not traced or time.perf_counter() < deadline:
            start = time.perf_counter()
            _, _, results = run_pass(probe, workload.ops(workload.setup()))
            untraced.append(probe.scaled(start, time.perf_counter()))
            tally.add(results)

            tracer = tracing.Tracer()
            start = time.perf_counter()
            with tracing.instrument(tracer), tracer.span(tracing.ROOT):
                _, _, results = run_pass(probe, workload.ops(workload.setup()))
            scaled = probe.scaled(start, time.perf_counter())
            tally.add(results)
            traced.append((scaled, tracing.layer_metrics(tracer)))
    metrics = {name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]}
    metrics["trace.overhead"] = (statistics.median(s for s, _ in traced)
                                 / statistics.median(untraced) - 1.0)
    metrics["vi_err_over_tol"] = tally.vi_err_over_tol
    return {"metrics": metrics, "walls": {}, "spans": tracer.spans}


def run_one(args, spec: dict) -> int:
    pin_mmap_threshold()
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import credalmeet from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    meta = {
        "workload": args.workload, "seed": args.seed, "input_set": args.seed % workloads.POOL,
        "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
    }
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = workloads.load_refs(args.workload, args.seed)
    tally = Tally(lambda op, result: workloads.check(op, result, refs))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # the process's own floor, so that a reader can tell the workload's
        # share of peak_rss_mb
        base_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measure_run = measure_traced if args.trace else measure
        record = measure_run(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = record["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    fail_frac = tally.failed / tally.attempted
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# operations attempted={tally.attempted} failed={tally.failed} "
          f"fail_frac={fail_frac} vi_err_over_tol={tally.vi_err_over_tol:.6g}")
    print(f"# base_rss_mb={base_rss_mb:.6g} (peak before the first set-up: imports, "
          f"references and inputs)")
    for error in tally.errors[:10]:
        print(f"# FAILED {error}")
    for name, unit in units.items():
        print(f"{name:<24}{metrics[name]:>18.6g} {unit}")
    for name, value in record["walls"].items():
        print(f"# {name:<22}{value:>18.6g} s (unscaled wall time)")

    record.update(meta=meta, base_rss_mb=base_rss_mb, attempted=tally.attempted,
                  failed=tally.failed, fail_frac=fail_frac,
                  vi_err_over_tol=tally.vi_err_over_tol, errors=tally.errors)
    spans = record.pop("spans", None)
    if spans is not None:
        record["spans"] = {"fields": ["name", "start", "end", "parent"], "rows": spans}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    for trace_flag in (0, 1):
        for name in names:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            print(f"## {name} trace={trace_flag}", flush=True)
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
