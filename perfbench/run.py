"""warpgeo benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; warpgeo is imported from ``src/``.
One process, one closed-loop caller: each op starts when the previous one
and its output check have finished.  Only the call into warpgeo is timed.

``--trace 0`` times ops for ``--seconds`` seconds, rounded up to a whole
number of the workload's input mix periods, and reports the end-to-end
metrics.  ``--trace 1`` runs each of a fixed number of inputs
twice, once untraced and once traced, and reports the per-layer metrics;
the input count is fixed so that the work counters repeat exactly for a
seed.  The last line of standard output is one JSON object; the lines
before it state the same numbers for people, plus the ones that may be
absent.

Times are reported at a nominal machine speed.  On a shared host the speed
of the same code swings by up to 1.5x over a few seconds, so a fixed
reference computation is timed before, during and after every op and
every set-up process, and the measured time is scaled by
``REFERENCE_NOMINAL_S`` over their mean.  The raw wall times are printed
beside the scaled ones.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread for every BLAS/OpenMP pool, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_RUNS = 9       # fresh-process set-ups per run; setup_s is their median
SETUP_TIMEOUT = 120  # seconds allowed for one of them

# Time of reference_seconds() on an idle core of a 2-core x86-64 VM
# (Python 3.11, numpy 2.4); only its ratio to the measured time matters.
REFERENCE_NOMINAL_S = 0.0045
SAMPLE_EVERY_S = 0.2     # reference timings during a call (about 15 ms each)

def reference_seconds() -> float:
    """Best of three timings of a fixed mix of small numpy calls and
    interpreted arithmetic, the kind of work warpgeo's inner loops do."""
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    v = np.array([0.3, 0.7])
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(500):
            g = np.linalg.solve(a, v + 0.001 * i)
            acc += float(np.einsum("i,ij,j->", g, a, g)) + math.sin(acc)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Times calls and rescales them to the nominal machine speed.

    The reference is timed before and after each call and, from a timer
    signal, every ``sample_every`` seconds during it, so that a long call
    is scaled by the speed along its whole length.  The time spent in
    those samples is taken out of the call's time.  A call that runs a
    child process is not sampled (``sample_every=None``): on two cores the
    samples would compete with the child.
    """

    def __init__(self, sample_every=SAMPLE_EVERY_S):
        self._last = reference_seconds()
        self._every = sample_every

    def measure(self, fn):
        """Returns ``(result or WarpGeoError, raw seconds, speed factor)``;
        the scaled time is raw seconds times the factor."""
        from warpgeo.errors import WarpGeoError
        samples = [self._last]
        sampling = 0.0

        def sample(signum, frame):
            nonlocal sampling
            t0 = time.perf_counter()
            samples.append(reference_seconds())
            sampling += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        if self._every:
            signal.setitimer(signal.ITIMER_REAL, self._every, self._every)
        t0 = time.perf_counter()
        try:
            result = fn()
        except WarpGeoError as exc:
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = time.perf_counter() - t0 - sampling
        self._last = reference_seconds()
        samples.append(self._last)
        factor = REFERENCE_NOMINAL_S / statistics.fmean(samples)
        return result, raw, factor


def _import_warpgeo():
    """Import warpgeo from this checkout's ``src/``, or exit with code 2."""
    package = SRC / "warpgeo"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no warpgeo sources in {package}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import warpgeo
    if Path(warpgeo.__file__).resolve().parent != package:
        sys.stderr.write(f"perfbench: imported warpgeo from {warpgeo.__file__}, "
                         f"not from {package}\n")
        sys.exit(2)


def _problems(workload, seed: int):
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        yield i, workload.problem(rng, i)


class Tally:
    """Outcomes of the ops of one pass."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.failures: list[tuple[int, str, dict]] = []
        self.gaps: list[float] = []
        self.misses: list[float] = []

    def run(self, workload, clock, i, p, op):
        """Time ``op`` (problem ``i``), then check its output."""
        from workloads import CheckFailed
        result, raw, factor = clock.measure(op)
        self.raw.append(raw)
        self.scaled.append(raw * factor)
        if isinstance(result, Exception):
            self.failures.append((i, f"{type(result).__name__}: {result}", p))
            return
        try:
            gap, miss = workload.check(p, result)
        except CheckFailed as exc:
            self.failures.append((i, f"CheckFailed: {exc}", p))
            return
        if gap is not None:
            self.gaps.append(gap)
        if miss is not None:
            self.misses.append(miss)


def _warm_up(workload, seed):
    """Fill caches and finish lazy imports on the first input, untimed and
    unchecked; the measured ops start again from that same input."""
    _, first = next(_problems(workload, seed))
    workload.prepare(first)()


def _timed_pass(workload, seed, seconds):
    """Ops until ``seconds`` have passed and the input mix period is whole,
    so that each kind of input keeps its share of the run."""
    tally = Tally()
    clock = SpeedClock()
    start = time.perf_counter()
    for i, p in _problems(workload, seed):
        tally.run(workload, clock, i, p, workload.prepare(p))
        if ((i + 1) % workload.period == 0
                and time.perf_counter() - start >= seconds):
            break
    return tally


def _paired_pass(workload, seed, ops, tracer):
    """Each of the first ``ops`` inputs once untraced and once traced; the
    order alternates so that neither run profits from the other's caches."""
    plain, traced = Tally(), Tally()
    clock = SpeedClock()
    for i, p in itertools.islice(_problems(workload, seed), ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            op = workload.prepare(p)
            if not with_trace:
                plain.run(workload, clock, i, p, op)
                continue
            tracer.install()
            try:
                traced.run(workload, clock, i, p,
                           functools.partial(tracer.call, op, i))
            finally:
                tracer.uninstall()
    return plain, traced


def tail_percentile(times):
    """Highest whole percentile with at least ten ops above it, nearest rank.

    Returns ``(percentile, seconds, ops_above)``, or ``None`` when fewer
    than twenty ops leave no such percentile at or above the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def _setup_seconds(workload_name, seed):
    """Set-up times of fresh processes (import, then chart and warp
    building), each scaled by the references timed around its process.

    Returns the scaled and the raw times.
    """
    def probe():
        return subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
        )

    clock = SpeedClock(sample_every=None)
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        proc, _, factor = clock.measure(probe)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
        seconds = float(proc.stdout.split()[-1])
        raw.append(seconds)
        scaled.append(seconds * factor)
    return scaled, raw


def _environment(workload):
    import scipy
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas_threads=1 "
            f"steps={workload.steps or 'n/a'}")


def _fmt(value, unit=""):
    if value is None:
        return "n/a"
    return f"{value:.6g} {unit}".rstrip()


def _print_failures(tally):
    for i, failure, p in tally.failures:
        print(f"failed op {i}: {failure}; inputs {json.dumps(p)}")


def _result_line(correct, attempted, failed, metrics):
    doc = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    print(json.dumps(doc), flush=True)


def _untraced(args, workload):
    setup, setup_raw = _setup_seconds(args.workload, args.seed)
    setup_s = statistics.median(setup)
    _warm_up(workload, args.seed)
    tally = _timed_pass(workload, args.seed, args.seconds)
    n = len(tally.scaled)
    failed = len(tally.failures)
    p50 = statistics.median(tally.scaled)
    ops_per_s = (n - failed) / sum(tally.scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = tail_percentile(tally.scaled)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}: "
          f"untraced, one closed-loop caller")
    print(f"env {_environment(workload)}")
    print(f"speed: times scaled to a reference time of {REFERENCE_NOMINAL_S:g} s; "
          f"median factor {p50 / statistics.median(tally.raw):.4g}")
    print(f"setup_s            {_fmt(setup_s, 's')} (median of {SETUP_RUNS}; raw "
          f"{', '.join(f'{v:.4g}' for v in setup_raw)})")
    print(f"op_p50_s           {_fmt(p50, 's')} over {n} ops "
          f"(raw {_fmt(statistics.median(tally.raw), 's')})")
    if tail is None:
        print(f"op_tail_s          none: {n} ops leave fewer than 10 above the median")
    else:
        pct, value, above = tail
        print(f"op_tail_s          {_fmt(value, 's')} at p{pct} of {n} ops "
              f"({above} above)")
    print(f"ops_per_s          {_fmt(ops_per_s, '1/s')} "
          f"(raw {_fmt((n - failed) / sum(tally.raw), '1/s')})")
    print(f"fail_ratio         {failed / n:.6g} ({failed} of {n})")
    print(f"max_oracle_dev     {_fmt(max(tally.gaps, default=None))}")
    print(f"max_endpoint_miss  {_fmt(max(tally.misses, default=None))}")
    print(f"peak_rss_mb        {_fmt(rss_mb, 'MB')}")
    _print_failures(tally)
    _result_line(failed == 0, n, failed, {
        "setup_s": (setup_s, "s"), "op_p50_s": (p50, "s"),
        "ops_per_s": (ops_per_s, "1/s"), "peak_rss_mb": (rss_mb, "MB")})


def _traced(args, workload):
    from layers import MODULES, Tracer, layer_metrics, source_lines
    ops = workload.trace_ops
    _warm_up(workload, args.seed)
    tracer = Tracer()
    plain, traced = _paired_pass(workload, args.seed, ops, tracer)
    sloc = {m: source_lines(SRC / "warpgeo" / f"{m}.py") for m in MODULES}
    metrics = layer_metrics(tracer.counts, sloc)
    metrics["trace.overhead_ratio"] = (sum(traced.scaled) / sum(plain.scaled) - 1.0,
                                       "ratio")
    spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["id", "parent", "op", "name", "start", "end", "hot_calls"],
         "spans": tracer.spans}))

    print(f"workload {args.workload} seed {args.seed}: {ops} inputs, each run "
          f"once untraced and once traced")
    print(f"env {_environment(workload)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    _print_failures(plain)
    _print_failures(traced)
    attempted = len(plain.raw) + len(traced.raw)
    failed = len(plain.failures) + len(traced.failures)
    _result_line(failed == 0, attempted, failed, metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_warpgeo()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](workdir)
        if args.setup_probe:
            print(f"{time.perf_counter() - _T0:.9f}")
        elif args.trace:
            _traced(args, workload)
        else:
            _untraced(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
