"""saddleflow benchmark: seeded experiment jobs, timed end to end and traced
layer by layer.

    python3 perfbench/run.py --workload discrete-dense --seed 1 --seconds 25 --trace 0

Run from a checkout root that holds ``src/saddleflow``.  The benchmark runs
the workload's job list back to back in this one process and thread (a
closed loop with one client), after one warm-up pass, until ``--seconds``
of measured passes have elapsed.  Every job's result is checked against
``reference.json`` and the reference-free invariants (oracle.py).  Timings
are reported in reference-speed seconds (calibrate.py); the raw ones are
printed above the result line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of passes run with every public library function wrapped, next to
untraced passes that give the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
import os

# One BLAS thread, set before numpy loads, so timings are single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh-interpreter starts per run for setup_s and setup.import_s.
SETUP_STARTS = 11
IMPORT_STARTS = 5
#: Lower bounds on measured passes, whatever --seconds says.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
#: job_tail_s is the latency with this many slower jobs in the pass.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
)


def _load_library():
    """Import saddleflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "saddleflow" / "__init__.py").is_file():
        sys.exit(f"error: no saddleflow sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import saddleflow

    if Path(saddleflow.__file__).resolve().parent != (SRC / "saddleflow").resolve():
        sys.exit(f"error: imported saddleflow from {saddleflow.__file__}, not {SRC}")
    return saddleflow


def environment():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - build info is best-effort metadata
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _time_interpreter(argv, env):
    t0 = perf_counter()
    done = subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    return perf_counter() - t0, done.stdout


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(jobs_path):
    """Set-up time of the workload: (reference-speed seconds, raw seconds).

    Each start of ``setup_probe.py`` follows a start of the reference
    interpreter (calibrate.REFERENCE_START); the probe's wall time is scaled
    by REF_START_S over the reference's.  setup_s is the median of the
    scaled times over the starts, the raw seconds that of the probe's own.
    """
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(jobs_path)]
    reference = [sys.executable, *calibrate.REFERENCE_START]
    env = _child_env()
    raw, scaled = [], []
    for _ in range(SETUP_STARTS):
        ref_s = _time_interpreter(reference, env)[0]
        wall = _time_interpreter(probe, env)[0]
        raw.append(wall)
        scaled.append(wall * calibrate.REF_START_S / ref_s)
    return statistics.median(scaled), statistics.median(raw)


def measure_import() -> float:
    """Fresh-interpreter import of saddleflow.cli minus a bare interpreter."""
    env = _child_env()
    bare = [sys.executable, "-c", "pass"]
    full = [sys.executable, "-c", "import saddleflow.cli"]
    t_bare, t_full = [], []
    for _ in range(IMPORT_STARTS):
        t_bare.append(_time_interpreter(bare, env)[0])
        t_full.append(_time_interpreter(full, env)[0])
    return statistics.median(t_full) - statistics.median(t_bare)


class Runner:
    """Runs passes over one job list and checks every result."""

    def __init__(self, job_list, reference, workdir):
        import jobs
        import oracle

        self.jobmod, self.oracle = jobs, oracle
        self.jobs = job_list
        self.reference = reference
        self.dirs = [workdir / "jobs" / f"{i:03d}" for i in range(len(job_list))]
        self.argvs = [jobs.prepare(job, d) for job, d in zip(job_list, self.dirs)]
        self.attempted = 0
        self.failures = []

    def run_pass(self, layers=None):
        """One pass.  Returns (job latencies in reference-speed seconds, raw
        job latencies, identical files, files written)."""
        oracle = self.oracle
        latencies, kernels = [], []
        identical = written = 0
        pending_pairs = {}
        tracer = layers.tracer if layers is not None else None
        for i, (job, argv, job_dir) in enumerate(zip(self.jobs, self.argvs, self.dirs)):
            self.jobmod.clear_outputs(job_dir)
            self.attempted += 1
            kernels.append(calibrate.kernel_s())
            if tracer is not None:
                tracer.current_job = i
                span = tracer.open("job")
            t0 = perf_counter()
            try:
                raw = self.jobmod.execute(job, argv)
            except Exception:  # noqa: BLE001 - a raising job is a failed job
                raw = None
                problems = [traceback.format_exc(limit=3)]
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
            if raw is not None:
                try:
                    outcome = self.jobmod.collect(job, raw, job_dir)
                    problems = oracle.check_job(job, outcome, self.reference)
                    if job.get("pair") and not problems:
                        partner = pending_pairs.pop(job["pair"], None)
                        if partner is None:
                            pending_pairs[job["pair"]] = outcome
                        else:
                            problems += oracle.check_ogda_pair(partner, outcome)
                    same, files = oracle.identical_outputs(job, outcome, self.reference)
                    identical += same
                    written += files
                except Exception:  # noqa: BLE001 - unreadable outputs fail the job
                    problems = [traceback.format_exc(limit=3)]
            if problems:
                self.failures.append((job["template"], job["variant"], problems))
        kernels.append(calibrate.kernel_s())
        return calibrate.normalize(latencies, kernels), latencies, identical, written


def tail_rank(n_jobs):
    """(0-based rank in ascending order, percentile) of the tail latency."""
    rank = n_jobs - 1 - TAIL_BEYOND
    if rank < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} jobs per pass, got {n_jobs}")
    return rank, 100.0 * (n_jobs - TAIL_BEYOND) / n_jobs


def latency_stats(passes):
    """End-to-end timings from a (pass x job) latency matrix.

    Per pass: the sum of its job latencies (wall_s), their median
    (job_p50_s) and the tail latency (job_tail_s).  Each metric is the
    median of its per-pass values.
    """
    rank, _ = tail_rank(len(passes[0]))
    per_pass = [sorted(latencies) for latencies in passes]
    return {"wall_s": statistics.median(sum(p) for p in per_pass),
            "job_p50_s": statistics.median(statistics.median(p) for p in per_pass),
            "job_tail_s": statistics.median(p[rank] for p in per_pass)}


def measure(args, jobs, reference, workdir):
    """Untraced run: set-up, warm-up, passes for --seconds.  End-to-end metrics."""
    runner = Runner(jobs, reference, workdir)
    setup_s, setup_raw_s = measure_setup(workdir / "jobs.json")
    runner.run_pass()
    passes, raw = [], []
    t_start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t_start < args.seconds:
        latencies, raw_latencies, _, _ = runner.run_pass()
        passes.append(latencies)
        raw.append(raw_latencies)
    failed = len(runner.failures)
    values = {"setup_s": setup_s, **latency_stats(passes),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ok_frac": (runner.attempted - failed) / runner.attempted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    uncalibrated = {"setup_s": setup_raw_s, **latency_stats(raw)}
    return runner, metrics, {"measured_passes": len(passes), "uncalibrated": uncalibrated}


def measure_traced(args, jobs, reference, workdir):
    """Traced run: untraced and traced passes in turn.  Per-layer metrics."""
    from layers import METRICS, Layers

    runner = Runner(jobs, reference, workdir)
    import_s = measure_import()
    runner.run_pass()
    layers = Layers()
    plain, traced, per_pass = [], [], []
    identical = written = 0
    t_start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - t_start < args.seconds:
        plain.append(runner.run_pass()[0])
        layers.install()
        layers.reset()
        try:
            latencies, _, same, files = runner.run_pass(layers)
        finally:
            layers.restore()
        traced.append(latencies)
        identical += same
        written += files
        per_pass.append(layers.metrics())
    layers.tracer.save(workdir / "spans.npz")
    values = {name: statistics.median(m[name] for m in per_pass)
              for name, _ in METRICS if name in per_pass[0]}
    values["cli.outputs_identical_frac"] = identical / written if written else 0.0
    values["setup.import_s"] = import_s
    values["trace.overhead_frac"] = (latency_stats(traced)["wall_s"]
                                     / latency_stats(plain)["wall_s"] - 1.0)
    values["trace.unaccounted_frac"] = (sum(m["job.unaccounted_s"] for m in per_pass)
                                        / sum(m["job.total_s"] for m in per_pass))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
    return runner, metrics, {"measured_passes": len(traced)}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_library()
    import oracle

    env = environment()
    jobs = workloads.generate(args.workload, args.seed)
    reference = oracle.load_reference()[args.workload]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with open(workdir / "jobs.json", "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)

    measure_fn = measure_traced if args.trace else measure
    runner, metrics, info = measure_fn(args, jobs, reference, workdir)

    failed = len(runner.failures)
    n_jobs = len(jobs)
    _, tail_pct = tail_rank(n_jobs)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "jobs_per_pass": n_jobs, "tail_percentile": tail_pct,
               "failed_frac": failed / runner.attempted, **info, "environment": env,
               "metrics": metrics,
               "failures": [[t, v, p] for t, v, p in runner.failures[:20]]}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    for template, variant, problems in runner.failures[:5]:
        sys.stderr.write(f"FAILED {template} variant {variant}: {problems[:3]}\n")
    print(f"workload {args.workload} seed {args.seed}: {info['measured_passes']} measured "
          f"passes of {n_jobs} jobs (closed loop, 1 client); job_tail_s is p{tail_pct:.1f}, "
          f"{TAIL_BEYOND} jobs beyond it")
    print(f"failed_frac {failed / runner.attempted:.6g} ({failed} of {runner.attempted} jobs)")
    print("environment " + json.dumps(env, sort_keys=True))
    if "uncalibrated" in info:
        print("uncalibrated seconds " + json.dumps(info["uncalibrated"]))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
