"""uob benchmark: the ladder, census and tower workloads, end to end and per layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; uob is imported from ./src. The inputs
are set up in fresh processes, then passes over them run until ``--seconds``
have elapsed. Job times are corrected for the host's speed (see
``Timings``). With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it splits the time between an untraced and a traced section
and prints the per-layer metrics and the tracing overhead. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md.
"""

import os

# BLAS threads are pinned before numpy is first imported (by uob).
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("UOB_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ladder", "census", "tower")
SETUP_REPEATS = 9  # set-ups per benchmark run, each in a fresh process
REF_NOMINAL_S = 0.6e-3  # reference_job's mean time on a 2-vCPU x86-64 VM in a fast phase
REF_EXPONENT = 0.8  # uob jobs slow down less than the reference job; see Timings
REF_WINDOW = 50  # reference jobs per host-speed window
REF_EVERY_S = 0.5  # the most time between two windows, jobs permitting
REPEAT_MAX = 3  # the most runs of one input in a pass after the first
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
END_TO_END_UNITS = (
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one small spec per workload")
    p.add_argument("--set-up-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_uob():
    sys.path.insert(0, str(SRC))
    import uob

    if not Path(uob.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: uob was imported from {uob.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def set_up(args, workdir: Path) -> float:
    """Import uob, generate the inputs and write them to workdir; return seconds."""
    t0 = time.perf_counter()
    inputs = import_uob()[args.workload].inputs(workdir, args.seed, smoke=args.smoke)
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    return time.perf_counter() - t0


def set_up_in_fresh_process(args, workdir: Path) -> float:
    """The input generator holds the whole census box in memory, so it runs in
    its own process and the measured one's peak memory is uob's."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--set-up-into", str(workdir),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def reference_job() -> float:
    """Seconds taken by a fixed piece of work that does not touch uob: small
    matrix products driven from a Python loop, the same mix as uob's."""
    import numpy as np  # not at the top: set-up times uob's import of numpy

    t0 = time.perf_counter()
    a = np.eye(8)
    acc = 0.0
    for _ in range(300):
        b = a @ a.T
        acc += float(b[0, 0]) + sum(range(30))
    return time.perf_counter() - t0


class Timings:
    """Every job's wall time, with the host's speed around it.

    On a shared VM the host's speed switches between levels about 1.7x apart,
    in phases of seconds to minutes, so a whole run can fall in a slow phase.
    A window of REF_WINDOW reference jobs runs between the workload's jobs
    whenever REF_EVERY_S have passed since the last one. A job's host time
    is the mean reference time of the windows just before and just after it,
    and its corrected time is its wall time times (REF_NOMINAL_S / host
    time) ** REF_EXPONENT. uob jobs slow down less than the reference in a
    slow phase: over an input's runs, a fit of log wall time on log host time
    gave slopes of 0.62 to 0.66, which the noise in the host time pulls low.
    On a 2-vCPU VM the corrected times of one input varied about half as
    much as the wall times.
    """

    def __init__(self):
        self.samples: list[tuple[int, float, int]] = []  # (input, wall s, window before)
        self.windows: list[float] = []  # mean reference time of each window
        self.last = -math.inf

    def window(self):
        self.windows.append(statistics.fmean(reference_job() for _ in range(REF_WINDOW)))
        self.last = time.perf_counter()

    def add(self, k: int, seconds: float, every: float = REF_EVERY_S):
        self.samples.append((k, seconds, len(self.windows) - 1))
        if time.perf_counter() - self.last >= every:
            self.window()

    def by_input(self, n: int, corrected=True) -> list[float]:
        """Each input's median job time over its runs, corrected or as measured."""
        times: list[list[float]] = [[] for _ in range(n)]
        for k, seconds, w in self.samples:
            host = (self.windows[w] + self.windows[w + 1]) / 2
            times[k].append(seconds * (REF_NOMINAL_S / host) ** REF_EXPONENT if corrected else seconds)
        return [statistics.median(t) for t in times]


def run_section(workload, seconds, tracer=None) -> tuple[Timings, int]:
    """Passes over the workload's inputs until ``seconds`` have elapsed.

    The first pass runs every input once and is always whole. Each later
    pass runs an input that took less than the mean job time up to
    REPEAT_MAX times, as often as fits in the mean, so the cheap inputs that
    set the median get more samples; it starts no job after the deadline.
    Returns the timings and the number of passes.
    """
    timings = Timings()
    timings.window()
    deadline = time.perf_counter() + seconds
    first = workload.run_pass(tracer, on_job=timings.add)
    mean = statistics.fmean(first)
    reps = [min(REPEAT_MAX, max(1, int(mean / t))) for t in first]
    passes = 1
    while time.perf_counter() < deadline:
        workload.run_pass(tracer, deadline, timings.add, reps)
        passes += 1
    timings.window()
    return timings, passes


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would fall
    below the median; the median is reported then, as percentile 50.
    """
    ranked = sorted(times)
    k = len(ranked) - TAIL_BEYOND - 1
    if k < len(ranked) // 2:
        return statistics.median(ranked), 50.0
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uob" / "__init__.py").is_file():
        print(f"error: no uob sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.set_up_into:
        print(json.dumps({"setup_s": set_up(args, args.set_up_into)}))
        return 0
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        setups = Timings()  # set-up times, corrected like job times
        setups.window()
        for _ in range(SETUP_REPEATS):
            setups.add(0, set_up_in_fresh_process(args, workdir), every=0)
        inputs = json.loads((workdir / "inputs.json").read_text())
        workload = import_uob()[args.workload](workdir, args.seed, inputs)

        # a traced run splits its time between an untraced and a traced section
        seconds = args.seconds / 2 if args.trace else args.seconds
        n = len(workload.specs)
        timings, passes = run_section(workload, seconds)
        times = timings.by_input(n)
        jobs_per_s = n / sum(times)
        record = {
            "env": environment(args),
            "passes": passes,
            "job_s_by_input": times,
            "wall_job_s_by_input": timings.by_input(n, corrected=False),
            "host_windows_s": timings.windows,
        }
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_passes = run_section(workload, seconds, tracer)
            finally:
                tracer.uninstall()
            traced_jobs_per_s = n / sum(traced.by_input(n))
            overhead = jobs_per_s - traced_jobs_per_s
            metrics = tracer.layer_metrics(overhead, overhead / jobs_per_s)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans)
            record.update(
                traced_passes=traced_passes,
                traced_jobs_per_s=traced_jobs_per_s,
                spans=str(spans.relative_to(ROOT)),
            )
        workload.post_check()

        ledger = workload.ledger
        fail_frac = ledger.failed / ledger.attempted
        tail_s, tail_pct = tail(times)
        record.update(
            job_s_tail_percentile=tail_pct,
            job_s_inputs=len(times),
            fail_frac=fail_frac,
            wall_setup_samples_s=[s for _, s, _ in setups.samples],
            failures=ledger.notes,
        )
        if not args.trace:
            values = {
                "jobs_per_s": jobs_per_s,
                "job_s.p50": statistics.median(times),
                "job_s.tail": tail_s,
                "setup_s": setups.by_input(1)[0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1.0 - fail_frac,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} fail_frac = {fail_frac:.6g} ({ledger.failed} of {ledger.attempted} operations)")
        print(f"{args.workload} job_s.tail is p{tail_pct:.1f} of {len(times)} inputs")
        wall = record["wall_job_s_by_input"]
        print(
            f"{args.workload} as measured: jobs_per_s = {n / sum(wall):.6g}, job_s.p50 = "
            f"{statistics.median(wall):.6g} s; reference job {statistics.fmean(timings.windows) * 1e3:.4g} ms "
            f"(corrected to {REF_NOMINAL_S * 1e3:.4g} ms)"
        )
        print(json.dumps({"record": record}))
        print(
            json.dumps(
                {
                    "correct": ledger.failed == 0,
                    "attempted": ledger.attempted,
                    "failed": ledger.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
