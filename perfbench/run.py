"""The superhaar benchmark.

    python3 perfbench/run.py --workload invariant --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread, one client in a closed loop: each job is
an in-process call to ``superhaar.cli.main(argv)`` with stdout captured,
and the next job starts when the previous one returns.

A run builds a fixed job list from ``--seed``:
``round(seconds / NOMINAL_PASS_S)`` passes of the workload (see
``workloads.PASSES``), so that the list lasts about ``--seconds`` at the
reference speed and every run of a workload times the same jobs whatever
the speed of the code.  Every job has an input of its own.  The run
validates every algebra with ``superhaar validate``, then runs the list,
and times ``superhaar validate`` of the smallest algebra in fresh
interpreters before and after it (``setup_s``: start-up, import and load,
the cost every CLI call pays).  Every job's outcome is checked
(``workloads.check``); for the reference seed its stdout must also equal the
digest in ``reference.json``, and a traced run holds each job to the same
stdout bytes in its untraced and its traced pass.

Job times are wall seconds, scaled to a reference machine speed: a fixed
exact-arithmetic kernel is timed between jobs (see ``SpeedLog``).  The
unscaled figures are printed on a line of their own.  ``setup_s`` is scaled
by a bare interpreter start instead (see ``setup_seconds``).

With ``--trace 0`` no instrumentation is installed, which is asserted
before and after the timed loop, and the last line reports the end-to-end
metrics.  With ``--trace 1`` the run times the job list once untraced, then
once traced, with a span around every function in ``tracer.SPANS``, writes
the spans under ``perfbench/out/``, and reports the per-layer metrics;
``--seconds`` does not apply.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# Job time of one pass at the baseline commit, at the reference speed
# (see ``SpeedLog``), rounded; only the number of passes per run follows from it.
NOMINAL_PASS_S = {"invariant": 20.0, "integrate": 8.0, "report": 9.0}
SETUP_REPEATS = 8   # before and again after the timed jobs
REFERENCE_SEED = 0
# Seconds the calibration kernel takes at the reference speed (the baseline
# machine when quiet); the reported times are scaled to that speed.
CALIB_REF_S = 0.015
# Seconds a bare interpreter start takes at the reference speed; ``setup_s``
# is scaled to it.
STARTUP_REF_S = 0.06
_CALIB = [[Fraction((7 * i + 3 * j) % 19 - 9, (i * j) % 8 + 1) for j in range(14)]
          for i in range(14)]

# Spans whose inclusive time (and, for the second list, call count) the
# traced run reports by name.
NAMED_SPANS_S = [
    "frobenius.frobenius_matrix", "enveloping.multiply", "frobenius.invariant_z",
    "frobenius.dual_pair", "modules.brute_force_quotient_invariants",
    "enveloping.quotient_project", "modules.validate_module",
    "modules.check_semisimple_over_even", "modules.invariant_projector",
    "modules.integral_matrix", "linalg.mat_mul", "linalg.nullspace",
    "algebra.validate_superalgebra", "algebra.even_part_structure",
]
NAMED_SPANS_CALLS = ["enveloping.multiply", "enveloping.quotient_project", "linalg.mat_mul"]
_RATIONAL = re.compile(r'"-?(\d+)(?:/(\d+))?"')


def import_cli():
    """``superhaar.cli`` from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "superhaar", "cli.py")):
        sys.exit(f"perfbench: no superhaar sources under {SRC}")
    sys.path.insert(0, SRC)
    import superhaar.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported superhaar from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv) -> tuple[int | None, str]:
    """One job: exit code (None on an uncaught exception) and stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a crashed benchmark
        code = None
        sys.stderr.write(traceback.format_exc())
    return code, out.getvalue()


def calibrate() -> float:
    """Wall seconds of a fixed exact-arithmetic kernel: a 14 x 14 rational
    matrix product into a dict, the operations the library spends its time
    on."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i, row in enumerate(_CALIB):
        for k, a in enumerate(row):
            for j, b in enumerate(_CALIB[k]):
                acc[i, j] = acc.get((i, j), 0) + a * b
    return time.perf_counter() - t0


class SpeedLog:
    """Wall times of calls, with the machine's speed sampled between them.

    Other tenants of the machine move its speed by tens of percent within
    seconds.  Every call is timed between two runs of ``calibrate``, and
    ``scaled`` divides its time by the mean calibration time around it (the
    two neighbours plus every sample within half the call's own duration
    before its start or after its end, so that a long call is judged by the
    speed over a span as long as itself) and multiplies by ``CALIB_REF_S``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (mid time, seconds)
        self.calls: list[tuple[float, float, int]] = []  # (start, end, sample before)
        self._calibrate()

    def _calibrate(self) -> None:
        t = time.perf_counter()
        c = calibrate()
        self.samples.append((t + c / 2, c))

    def time(self, run_once):
        """Time ``run_once()`` and return its result."""
        before = len(self.samples) - 1
        t0 = time.perf_counter()
        result = run_once()
        self.calls.append((t0, time.perf_counter(), before))
        self._calibrate()
        return result

    def raw(self) -> list[float]:
        return [t1 - t0 for t0, t1, _ in self.calls]

    def scaled(self) -> list[float]:
        out = []
        for t0, t1, before in self.calls:
            half = (t1 - t0) / 2
            near = {before, before + 1} | {i for i, (ts, _) in enumerate(self.samples)
                                           if t0 - half <= ts <= t1 + half}
            mean = sum(self.samples[i][1] for i in near) / len(near)
            out.append((t1 - t0) * CALIB_REF_S / mean)
        return out


def setup_seconds(algebra_path: str, repeats: int) -> list[float]:
    """Wall times of ``superhaar validate`` in fresh interpreters, each scaled
    to the reference speed by a bare interpreter start (``python -c pass``)
    timed right after it.

    The calibration kernel, timed in this process, was found not to follow
    the speed of process start-up; a bare start does, as it is the same kind
    of work (exec, page faults, unmarshalling), and the program's import and
    load cost still shows in full in the ratio."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "superhaar.cli", "validate", algebra_path]
    bare = [sys.executable, "-c", "pass"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        t1 = time.perf_counter()
        subprocess.run(bare, cwd=ROOT, env=env, capture_output=True, timeout=120, check=True)
        times.append((t1 - t0) * STARTUP_REF_S / (time.perf_counter() - t1))
        if proc.returncode != 0:
            sys.exit(f"perfbench: fresh-interpreter validate exited {proc.returncode}: "
                     f"{proc.stderr.decode(errors='replace')}")
    return times


class Checker:
    """Checks each job's outcome once, then holds every later run of the
    job to the same stdout bytes."""

    def __init__(self, workload: str, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.failed = 0
        self.attempted = 0

    def __call__(self, job, code, stdout) -> None:
        self.attempted += 1
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if job.id in self.digests:
            problems = [] if digest == self.digests[job.id] else [
                "stdout differs from the job's first run"]
        else:
            self.digests[job.id] = digest
            try:
                problems = workloads.check(self.workload, job, code, stdout)
            except (LookupError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
                problems = [f"malformed output: {exc!r}"]
            if self.reference is not None and self.reference.get(job.id, digest) != digest:
                problems.append("stdout differs from the reference digest")
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload} {job.id}: {'; '.join(problems)}", file=sys.stderr)


def program_state() -> dict[str, int]:
    """Size of every container and ``functools`` cache that the program's
    modules, and the classes defined in them, hold at module level.  Every
    module is imported first, so that one imported late is not taken for
    new state."""
    package = sys.modules["superhaar"]
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"superhaar.{info.name}")
    sizes = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "superhaar" or mod_name.startswith("superhaar.")):
            continue
        holders = [(mod_name, vars(mod))]
        holders += [(f"{mod_name}.{k}", vars(v)) for k, v in vars(mod).items()
                    if isinstance(v, type) and v.__module__ == mod_name]
        for prefix, attrs in holders:
            for k, v in attrs.items():
                if k.startswith("__"):
                    continue
                v = getattr(v, "__func__", v)   # staticmethod and classmethod
                if hasattr(v, "cache_info"):
                    sizes[f"{prefix}.{k}"] = v.cache_info().currsize
                elif isinstance(v, (dict, list, set)):
                    sizes[f"{prefix}.{k}"] = len(v)
    return sizes


def run_jobs(cli, jobs, checker, state, trace=None,
             stdouts=None) -> tuple[list[float], list[float]]:
    """Run ``jobs`` in order; per-job wall seconds scaled to the reference
    speed, and raw.  With ``trace``, each job's spans carry its position as
    job id.

    The jobs of a run stand for separate CLI calls, which share nothing; the
    run is refused if the program's module-level state has grown from
    ``state``, taken at import, since a job could then be served from what
    an earlier call left behind."""
    log = SpeedLog()
    for t, job in enumerate(jobs):
        if trace is not None:
            trace.job = t
        # every job starts on a collected heap, as a fresh CLI process would,
        # so that no job pays for the garbage of the one before it
        gc.collect()
        code, stdout = log.time(lambda: call(cli, job.argv))
        checker(job, code, stdout)
        if stdouts is not None:
            stdouts.append(stdout)
    grown = {k: v for k, v in program_state().items() if v != state.get(k)}
    if grown:
        sys.exit(f"perfbench: the program keeps state across calls: {grown}")
    return log.scaled(), log.raw()


def class_shares(jobs, times: list[float]) -> str:
    """Each job class's share of the run's job time, largest first."""
    by_class: dict[str, float] = {}
    for job, t in zip(jobs, times):
        by_class[job.cls] = by_class.get(job.cls, 0.0) + t
    total = sum(times)
    return ", ".join(f"{cls} {t / total:.3f}"
                     for cls, t in sorted(by_class.items(), key=lambda kv: -kv[1]))


def end_to_end(times: list[float], setup_s: float) -> dict:
    n = len(times)
    ordered = sorted(times)
    tail = ordered[n - 11] if n > 10 else ordered[-1]
    print(f"job_s.tail is the p{100 * max(n - 10, 0) / n:.1f} job time: "
          f"{min(10, n - 1)} of {n} jobs are slower")
    return {
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(trace, untraced: list[float], traced: list[float], traced_raw: list[float],
              stdouts: list[str]) -> dict:
    """Span times are raw wall seconds; ``trace.overhead`` compares the
    scaled job times of the traced and the untraced pass."""
    spans = trace.summary()
    metrics = {}
    for name in NAMED_SPANS_S:
        metrics[name + ".s"] = (spans[name]["s"], "s")
    for name in NAMED_SPANS_CALLS:
        metrics[name + ".calls"] = (spans[name]["calls"], "count")
    metrics["fileio.load.s"] = (spans["fileio.load_algebra"]["s"]
                                + spans["fileio.load_module"]["s"], "s")
    metrics["fileio.emit.s"] = (sum(v["s"] for k, v in spans.items()
                                    if k.startswith("fileio.") and k.endswith("_to_json")), "s")
    for layer in tracer.LAYERS:
        metrics[layer + ".self.s"] = (sum(v["self_s"] for k, v in spans.items()
                                          if k.startswith(layer + ".")), "s")
    counts = trace.counts
    entries = counts["frobenius.inverse_entries"]
    metrics["frobenius.inverse_useful_frac"] = (
        counts["frobenius.inverse_reads"] / entries if entries else 0.0, "frac")
    for key in ("frobenius.inverse_entries", "frobenius.two_pow_m",
                "frobenius.pairing_nonzeros", "modules.module_dim"):
        metrics[key] = (counts[key], "count")
    bits = [int(g).bit_length() for out in stdouts
            for m in _RATIONAL.finditer(out) for g in m.groups() if g]
    metrics["coeff_bits.max"] = (max(bits, default=0), "bits")
    metrics["trace.overhead"] = ((sum(traced) - sum(untraced)) / len(traced), "s")
    # the share of job time that the spans below the catch-all root account for
    metrics["trace.self_coverage"] = (1 - spans["cli.main"]["self_s"] / sum(traced_raw), "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    state = program_state()
    t_start = time.perf_counter()
    outdir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(outdir, ignore_errors=True)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    jobs = workloads.build(args.workload, args.seed, outdir, passes)
    for job in jobs:
        code, stdout = call(cli, ["validate", job.algebra_path])
        if code != 0 or '"valid": true' not in stdout:
            sys.exit(f"perfbench: generated algebra {job.id} does not validate: {stdout}")

    reference = None
    if args.seed == REFERENCE_SEED:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)["digests"][args.workload]
        # the reference records the jobs of a run at the default --seconds: a
        # shorter run has fewer of them, a longer one more jobs than digests
        ids = {job.id for job in jobs}
        if not (ids <= reference.keys() or reference.keys() <= ids):
            sys.exit("perfbench: the reference digests do not match this run's jobs")
    checker = Checker(args.workload, reference)
    trace = tracer.Tracer()
    trace.assert_clean()
    if args.trace:
        untraced, _ = run_jobs(cli, jobs, checker, state)
        stdouts: list[str] = []
        trace.install()
        try:
            traced, traced_raw = run_jobs(cli, jobs, checker, state, trace, stdouts)
        finally:
            trace.uninstall()
        trace.assert_clean()
        trace.write(os.path.join(OUT, f"{args.workload}-{args.seed}.spans"))
        metrics = per_layer(trace, untraced, traced, traced_raw, stdouts)
    else:
        smallest = min(jobs, key=lambda job: (job.alg.dim, job.id))
        # half the start-ups before the timed jobs and half after, so that
        # the median does not rest on one phase of the machine's speed
        setup = setup_seconds(smallest.algebra_path, SETUP_REPEATS)
        times, raw = run_jobs(cli, jobs, checker, state)
        trace.assert_clean()
        setup += setup_seconds(smallest.algebra_path, SETUP_REPEATS)
        print(f"unscaled: jobs_per_s {len(times) / sum(raw):.4g} 1/s, "
              f"job_s.p50 {statistics.median(raw):.4g} s")
        print(f"share of job time by class: {class_shares(jobs, times)}")
        metrics = end_to_end(times, statistics.median(setup))

    shutil.rmtree(outdir)   # the inputs follow from the seed
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}.digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(checker.digests, fh, indent=1, sort_keys=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{checker.attempted} jobs, {checker.failed} failed "
          f"(fail_frac {checker.failed / checker.attempted:.4f}), "
          f"run wall {time.perf_counter() - t_start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
