"""Benchmark of the bikegeo library: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
of that checkout and nothing is installed.  The workload's fixed job
list (see ``workloads.py``) runs closed-loop from one thread, in passes,
until S seconds are spent; every op's output is checked against an
independent oracle after the op's timer stops.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics: the
machine, the inputs' fingerprint, failures, worst oracle errors and
``failed_frac``.  An op fails if it raises, exits with the wrong code
or misses a check; ``correct`` is false when an op other than a
contract op fails.  Contract ops (``cli_session``) probe documented
error paths and count in ``failed`` only.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: cold import of bikegeo and bikegeo.cli, input generation
  and one warm-up op; the median of this process and four fresh ones.
* ``wall_s``: op time of one pass over the job list, mean over passes.
* ``op_p50_ms``: median over the job list of each op's mean latency;
  contract ops, which only probe error paths, are left out.
* ``peak_rss_mb``: peak resident set of this process.

Repetitions of identical work are averaged, not medianed: a shared
host can switch between a fast and a slow state (1.6x apart, held for
seconds to minutes, on a 2-vCPU Xeon virtual machine), and the median
of such a two-state mixture jumps to whichever state held more of the
run.

With ``--trace 1`` every op runs untraced and then traced; the traced
runs wrap each layer's public functions (``spans.py``) and give the
per-layer metrics, medians over passes, plus ``trace.overhead_s``
(traced minus untraced pass time) and ``cli.<command>.p50_ms`` from the
untraced runs.

BLAS pools are pinned to one thread.  Every working set is a few MB at
most, inside a core's L2, and the loops are bound by Python dispatch,
so no memory-bandwidth figure is reported.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 5
WORKLOADS = ("geodesic_survey", "fiber_transport", "cli_session")
CLI_COMMANDS = ("geodesic", "flip", "lift", "correspond", "classify", "shortcut",
                "plot")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def _setup(args, workdir):
    """Import the library, generate the inputs, run the warm-up op."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bikegeo
    import bikegeo.cli  # noqa: F401
    if Path(bikegeo.__file__).resolve().parent != SRC / "bikegeo":
        raise SystemExit(f"bikegeo imported from {bikegeo.__file__}, not {SRC}")
    import workloads
    jobs, warm_up, fingerprint = workloads.build(args.workload, args.seed, str(workdir))
    warm_up()
    return time.perf_counter() - start, jobs, fingerprint


def _fresh_setup_seconds(args):
    """Set-up time of a fresh interpreter doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Outcome:
    """Latencies, failures and oracle errors gathered over passes."""

    def __init__(self, tolerances, ops_per_pass):
        self.tolerances = tolerances
        self.ops_per_pass = ops_per_pass
        self.latencies = []          # (label, contract, seconds)
        self.failures = {}           # message -> count
        self.errors = {}             # oracle -> worst error
        self.failed = 0
        self.incorrect = 0

    def _fail(self, job, message):
        self.failed += 1
        if not job.contract:
            self.incorrect += 1
        key = f"{job.label}: {message}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def run_op(self, job, tracer=None):
        """Run one op, then check it; returns the op's latency."""
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # an op that raises is a failed op
            out, raised = None, exc
        else:
            raised = None
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        self.latencies.append((job.label, job.contract, seconds))
        if raised is not None:
            self._fail(job, f"raised {type(raised).__name__}: {raised}"[:200])
            return seconds
        try:
            errors, problems = job.check(out)
        except Exception as exc:  # a malformed output fails its check
            errors, problems = {}, [f"check raised {type(exc).__name__}: {exc}"[:200]]
        misses = [f"{name} {err:.3e} > {self.tolerances[name]:.0e}"
                  for name, err in errors.items()
                  if not err <= self.tolerances[name]]
        for name, err in errors.items():
            self.errors[name] = max(self.errors.get(name, 0.0), err)
        if problems or misses:
            self._fail(job, "; ".join(problems + misses))
        return seconds

    def pass_seconds(self):
        """Op time of each pass over the job list."""
        times = [seconds for _label, _contract, seconds in self.latencies]
        n = self.ops_per_pass
        return [sum(times[i:i + n]) for i in range(0, len(times), n)]

    def op_p50(self):
        """Median over the measured jobs of each job's mean latency."""
        per_job = {}
        for i, (_label, contract, seconds) in enumerate(self.latencies):
            if not contract:
                per_job.setdefault(i % self.ops_per_pass, []).append(seconds)
        return statistics.median(statistics.mean(v) for v in per_job.values())


def _measure(args, jobs, tolerances, bg):
    """Run passes until the time is spent.  With tracing, each op runs
    once untraced and once traced, back to back, so that both sides of
    trace.overhead_s meet the same state of a shared host; which side
    goes first alternates, so the warm second run favours neither."""
    untraced = Outcome(tolerances, len(jobs))
    traced = Outcome(tolerances, len(jobs)) if args.trace else None
    tracer = layer_runs = None
    if args.trace:
        from spans import Tracer
        tracer, layer_runs = Tracer(), []

    def traced_op(job):
        tracer.install(bg)
        try:
            return traced.run_op(job, tracer)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            for job in jobs:
                untraced.run_op(job)
        else:
            tracer.reset()
            wall = 0.0
            for i, job in enumerate(jobs):
                if (i + len(passes)) % 2:
                    wall += traced_op(job)
                    untraced.run_op(job)
                else:
                    untraced.run_op(job)
                    wall += traced_op(job)
            layer_runs.append(tracer.layer_metrics(wall))
        passes.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # start another round only if it should end within half a round
        # of the deadline
        if elapsed + 0.5 * statistics.median(passes) > args.seconds:
            break
    return untraced, traced, layer_runs


def _machine(args):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": args.seed,
            "workload": args.workload}


def _metric(value, unit):
    return {"value": value, "unit": unit}


_UNITS = {"busy_s": "s", "self_s": "s", "self_share": "frac", "steps_per_s": "1/s",
          "samples_per_s": "1/s", "rows_per_s": "1/s", "fit_residual_max": "rad",
          "useful_arc_ratio": "frac", "bytes": "B"}


def _layer_metrics(untraced, traced, layer_runs):
    out = {}
    for name in layer_runs[0]:
        value = statistics.median(run[name] for run in layer_runs)
        out[name] = _metric(value, _UNITS.get(name.rsplit(".", 1)[1], "count"))
    for command in CLI_COMMANDS:
        times = [s for label, contract, s in untraced.latencies
                 if label == command and not contract]
        p50 = statistics.median(times) * 1e3 if times else 0.0
        out[f"cli.{command}.p50_ms"] = _metric(p50, "ms")
    out["trace.overhead_s"] = _metric(
        statistics.median(traced.pass_seconds()) - statistics.median(untraced.pass_seconds()),
        "s")
    return out


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "bikegeo" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no library source at {SRC}/bikegeo\n")
        return 2
    workdir = BUILD / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, jobs, fingerprint = _setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [_fresh_setup_seconds(args)
                              for _ in range(SETUP_REPEATS - 1)]
        import bikegeo
        import workloads
        untraced, traced, layer_runs = _measure(
            args, jobs, workloads.TOLERANCES, bikegeo)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [untraced] + ([traced] if traced else [])
    attempted = sum(len(o.latencies) for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures, errors = {}, {}
    for o in outcomes:
        for key, n in o.failures.items():
            failures[key] = failures.get(key, 0) + n
        for key, err in o.errors.items():
            errors[key] = max(errors.get(key, 0.0), err)
    diagnostics = {
        "machine": _machine(args), "inputs": fingerprint,
        "ops_per_pass": len(jobs), "pass_seconds": untraced.pass_seconds(),
        "op_seconds": [round(sec, 6) for _l, _c, sec in untraced.latencies],
        "setup_samples_s": setups,
        "failed_frac": {"value": failed / attempted, "unit": "frac",
                        "attempted": attempted},
        "failures": failures,
        "oracle_errors": {k: {"worst": v, "tol": workloads.TOLERANCES[k]}
                          for k, v in sorted(errors.items())},
    }
    if args.trace:
        metrics = _layer_metrics(untraced, traced, layer_runs)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.mean(untraced.pass_seconds()), "s"),
            "op_p50_ms": _metric(untraced.op_p50() * 1e3, "ms"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": not any(o.incorrect for o in outcomes),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
