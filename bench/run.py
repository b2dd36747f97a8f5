#!/usr/bin/env python3
"""censearch benchmark: closed-loop CLI workloads with output checks.

Run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One client issues one ``censearch.cli.main([...])`` job at a time, in this
process, on spec files generated from the workload seed (see ``jobs.py``).
Jobs run in rounds of identical composition; an untraced run makes as many
rounds as fit ``--seconds`` at the nominal round time, a count fixed by the
settings alone.  Every job's output is checked after the timed rounds
(``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` round 0 runs traced and then untraced on the same inputs,
which gives the per-layer metrics (``spans.py``) and the tracing overhead.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with status 2 and no result.
A full record of every run (environment, per-job latencies and check
results) goes to ``.bench_out/``.
"""

from __future__ import annotations

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
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "solve_uniform.json"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# Time of speed_reference() on the reference machine at its typical speed,
# and the least job time between two speed samples (shorter jobs share one).
REF_NOMINAL_S = 0.012
REF_EVERY_S = 0.25
# A job whose speed samples before and after differ by more than this factor
# is flagged: the host changed speed during it, or work it left running (say,
# busy worker threads) slowed the sample after it.
REF_DISAGREE = 1.5
# Round time on the reference machine (2-core Intel Xeon VM).  A run makes
# round(--seconds / this) rounds, a number fixed by the settings alone, so two
# commits measured with the same seed and seconds run identical inputs.
NOMINAL_ROUND_S = {"certify": 13.0, "lp-oracle": 11.0, "monte-carlo": 6.5}

import jobs as J  # noqa: E402  (stdlib only; safe before the thread caps)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    cap = str(nproc())
    for var in THREAD_VARS:
        os.environ[var] = cap
    return {var: cap for var in THREAD_VARS}


def import_program():
    """Import censearch.cli from the checkout's src/ (exit 2 if absent)."""
    if not (SRC / "censearch" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC.relative_to(ROOT)}/censearch",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import censearch
    import censearch.cli

    if Path(censearch.__file__).resolve().parent != SRC / "censearch":
        print(f"benchmark: imported censearch from {censearch.__file__}, not src/",
              file=sys.stderr)
        sys.exit(2)
    return censearch


# -- environment record --------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, caps: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
    }


# -- timing ------------------------------------------------------------------


def speed_reference() -> float:
    """Time a fixed pure-Python loop (about 12 ms): the host's current speed.

    On shared hosts CPU speed drifts by more than 1.5x within minutes; one
    fixed set of certify jobs took 7.1 to 13.3 s within five minutes on the
    reference machine.  Job latencies are therefore reported in
    reference-speed seconds, latency * REF_NOMINAL_S / (mean of the latest
    time of this loop before the job and the one after it), which cut the
    spread of that set's total from 14% to 6% (standard deviation over
    mean) when sampled around every job."""
    t0 = time.perf_counter()
    x = 0
    for k in range(150_000):
        x += k * k
    return time.perf_counter() - t0


# -- rounds --------------------------------------------------------------------


class Runner:
    """Runs jobs one at a time through the CLI entry point and keeps, per
    job, its exit code, latency and output directory for the checks."""

    def __init__(self, cli, out: Path):
        self.cli = cli  # main is looked up per call, so a traced run sees the wrapper
        self.out = out
        self.tracer = None  # set for the traced round: spans get the job index
        self.records: list[dict] = []
        self._ref = None    # last speed_reference() time ...
        self._since = 0.0   # ... and job time since it was taken

    def run(self, job: J.Job, rnd) -> dict:
        base = self.out / f"r{rnd}"
        base.mkdir(parents=True, exist_ok=True)
        spec = job.write(base)
        out = base / job.name
        argv = [job.command, "--spec", str(spec), "--out", str(out), *job.args]
        if self.tracer is not None:
            self.tracer.job = len(self.records)
        error = None
        if self._ref is None:
            self._ref = speed_reference()
        before = self._ref
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc, error = -1, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        self._since += latency
        if self._since >= REF_EVERY_S:
            self._ref, self._since = speed_reference(), 0.0
        rec = {"job": job, "round": rnd, "rc": rc, "out": out, "error": error,
               "wall": latency,
               "latency": latency * REF_NOMINAL_S / (0.5 * (before + self._ref)),
               "speed_ratio": max(before, self._ref) / min(before, self._ref)}
        self.records.append(rec)
        return rec

    def run_all(self, jobs, rnd) -> float:
        """Run the jobs in order; returns their summed latency (reference-speed
        seconds).  The client's own work between jobs is not counted."""
        return sum(self.run(job, rnd)["latency"] for job in jobs)


def _solved_a_max(rec: dict) -> float:
    try:
        return float(json.loads((rec["out"] / "solve.json").read_text())["a_max"])
    except (OSError, ValueError, KeyError):
        return 0.3  # the solve job is failed by its check; keep the round going


def run_round(runner: Runner, workload: str, seed: int, rnd, threads: int,
              label=None) -> float:
    """One round of the workload; returns its summed job latency.  The
    records carry ``label`` (default: the round number) as their round."""
    rng = J.round_rng(workload, seed, rnd)
    label = rnd if label is None else label
    if workload == "lp-oracle":
        return runner.run_all(J.lp_jobs(rng), label)
    if workload == "monte-carlo":
        return runner.run_all(J.mc_jobs(rng, threads), label)
    stage1, state = J.certify_stage1(rng)
    first = len(runner.records)
    total = runner.run_all(stage1, label)
    a_maxes = {r["job"].name[len("solve-"):]: _solved_a_max(r)
               for r in runner.records[first:] if r["job"].check == "solve"}
    return total + runner.run_all(J.certify_stage2(rng, state, a_maxes), label)


def traced_round(runner: Runner, workload: str, seed: int, threads: int):
    """Round 0 traced, then the same inputs again untraced (round "0-ref").

    Returns the tracer and both latency sums; their difference is the
    tracing overhead on identical work.  The traced pass comes first so
    the layer figures are taken on inputs the program has not seen."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    tracer.on = True
    try:
        traced = run_round(runner, workload, seed, 0, threads)
    finally:
        tracer.on = False
        tracer.uninstall()
        runner.tracer = None
    untraced = run_round(runner, workload, seed, 0, threads, label="0-ref")
    return tracer, traced, untraced


def per_layer_metrics(tracer, records: list[dict], traced_s: float,
                      untraced_s: float) -> dict[str, tuple[float, str]]:
    """The ``--trace 1`` metrics: the tracer's layer figures plus the tracing
    overhead, the error rate and the simulator's consumer throughput."""
    from spans import layer_metrics

    sims = [r for r in records if r["round"] == "0-ref" and r["job"].command == "simulate"]
    consumers = sum(r["job"].info["consumers"] for r in sims)
    sim_time = sum(r["latency"] for r in sims)
    failed = sum(1 for r in records if r["verdict"].errors)
    out = layer_metrics(tracer)
    out["cli.out_bytes"] = (sum(dir_bytes(r["out"]) for r in records if r["round"] == 0),
                            "bytes")
    out["trace_overhead_s"] = (traced_s - untraced_s, "s")
    out["error_rate"] = (failed / len(records), "ratio")
    out["consumers_per_s"] = (consumers / sim_time if sim_time else 0.0, "1/s")
    return out


def round_jobs_for_setup(workload: str, seed: int, threads: int) -> list[J.Job]:
    rng = J.round_rng(workload, seed, 0)
    if workload == "lp-oracle":
        return J.lp_jobs(rng)
    if workload == "monte-carlo":
        return J.mc_jobs(rng, threads)
    return J.certify_fixed() + J.certify_stage1(rng)[0]


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import censearch.cli and
    write the workload's first-round specs (one untimed start first).

    Raw seconds: the parent idles while a child runs, and a speed sample
    taken right after that wait reads up to three times slow."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- checks --------------------------------------------------------------------


class CheckContext:
    """What checks may consult: other jobs of the same round (and the facts
    their checks recorded) and the golden file."""

    def __init__(self, records: list[dict], golden: bytes):
        self.golden_solve = golden
        self.by_name = {(rec["round"], rec["job"].name): rec for rec in records}
        self.round = None

    def job(self, name):
        return self.by_name[(self.round, name)]["job"]

    def fact(self, name, key):
        verdict = self.by_name[(self.round, name)].get("verdict")
        return None if verdict is None else verdict.facts.get(key)



def check_one(rec: dict, ctx: CheckContext):
    """Run a job's check; a crash or unreadable output is a failed check."""
    import checks as C

    ctx.round = rec["round"]
    if rec["error"] is not None:
        return C.Verdict(errors=[f"crashed: {rec['error']}"])
    try:
        return C.CHECKS[rec["job"].check](rec["job"], rec["rc"], rec["out"], ctx)
    except Exception as exc:
        return C.Verdict(errors=[f"check could not read output: {exc!r}"])


def check_all(records: list[dict]) -> dict:
    """Check every job in order (later checks read earlier facts), then
    judge all statistical tests of the run at one Bonferroni level."""
    import checks as C

    ctx = CheckContext(records, GOLDEN.read_bytes())
    for rec in records:
        rec["verdict"] = check_one(rec, ctx)
    tests = sum(len(r["verdict"].pvalues) for r in records)
    alpha = C.alpha_for(tests)
    for rec in records:
        v = rec["verdict"]
        for label, p, z in v.pvalues:
            if p < alpha:
                v.errors.append(f"{label}: {z:+.2f} se from the analytic value (p={p:.3g})")
    return {"tests": tests, "alpha": alpha, "z": C.z_for(tests) if tests else None}


# -- metrics -------------------------------------------------------------------


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    caps = cap_threads()
    threads = nproc()
    if args.setup_only:
        import_program()
        spec_dir = OUT / "setup" / f"{args.workload}-{args.seed}"
        spec_dir.mkdir(parents=True, exist_ok=True)
        for job in round_jobs_for_setup(args.workload, args.seed, threads):
            job.write(spec_dir)
        return 0

    import_program()  # fail fast, before any timing
    out = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_s = None if args.trace else measure_setup(args)

    import censearch.cli as cli

    env = environment(args, caps)
    runner = Runner(cli, out)
    warm = J.warmup_jobs(args.workload, J.round_rng(args.workload, args.seed, "warmup"), threads)
    runner.run_all(warm, "warmup")
    runner.records.clear()
    if args.workload == "certify":
        runner.run_all(J.certify_fixed(), "fixed")

    walls: list[float] = []
    traced_wall = None
    if args.trace:
        tracer, traced_wall, untraced_wall = traced_round(runner, args.workload, args.seed,
                                                          threads)
        walls.append(untraced_wall)
    else:
        rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        for rnd in range(rounds):
            walls.append(run_round(runner, args.workload, args.seed, rnd, threads))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stats = check_all(runner.records)
    records = runner.records
    failed = [r for r in records if r["verdict"].errors]
    unexpected = [r for r in failed if not r["job"].info.get("known_defect")]
    for r in failed:
        tag = "known defect" if r["job"].info.get("known_defect") else "FAILED"
        print(f"# {tag}: round {r['round']} {r['job'].name}: "
              + "; ".join(r["verdict"].errors[:3]))

    timed = [r for r in records if r["round"] != "fixed"]
    latencies = [r["latency"] for r in timed]
    raw_wall = sum(r["wall"] for r in timed)
    disagree = sum(1 for r in timed if r["speed_ratio"] > REF_DISAGREE)
    print(f"# raw job wall time {raw_wall:.4f} s; speed samples before and after "
          f"differ by more than {REF_DISAGREE}x on {disagree} of {len(timed)} jobs")
    if args.trace:
        layer = per_layer_metrics(tracer, records, traced_wall, untraced_wall)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.save(out / "spans.npz")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(walls), "unit": "s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "job_p90_s": {"value": statistics.quantiles(latencies, n=10, method="inclusive")[8],
                          "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {
        "environment": env,
        "round_latency_sums_s": walls,
        "traced_round_latency_sum_s": traced_wall,
        "raw_job_wall_s": raw_wall,
        "speed_disagreements": disagree,
        "statistical_tests": stats,
        "metrics": metrics,
        "jobs": [{"round": r["round"], "name": r["job"].name, "rc": r["rc"],
                  "latency_s": r["latency"], "wall_s": r["wall"],
                  "speed_ratio": r["speed_ratio"],
                  "errors": r["verdict"].errors,
                  "known_defect": bool(r["job"].info.get("known_defect"))}
                 for r in records],
    }
    for r in records:  # outputs are checked; keep the record, drop the bulk
        shutil.rmtree(r["out"], ignore_errors=True)
    (out / "record.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({k: record["environment"][k] for k in
                      ("commit", "seed", "nproc", "cpu", "python", "numpy", "scipy")}
                     | {"thread_cap": threads}), file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
