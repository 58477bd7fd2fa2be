"""Run one slumix benchmark workload, or all of them, and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload grid_mono --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Inputs are generated from ``--seed`` (several times, to time set-up), then
the workload's pass is repeated until ``--seconds`` have been spent and the
median of each metric is reported. Every pass is checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, the ``per_layer`` metrics with ``--trace 1``). The traced run
alternates untraced and traced passes and writes the spans of its first
traced pass to ``.bench_work/traces/``.

Everything runs in this one process, with no worker threads or processes;
``--workload all`` runs each workload in a child process, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
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

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("grid_mono", "grid_xl", "score_external")
SETUPS = 7  # set-up rounds per run; setup_s is their median
SETUP_ROUND_S = 0.2


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "note": "own process only: no whole-system tracing, cache dropping or "
                "CPU frequency control in this environment",
    }


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _set_up(workload, work: Path) -> tuple[Path, float, list[str]]:
    """Generate the inputs in SETUPS rounds; returns the kept copy, the median
    per-set-up time of the rounds and a problem if two rounds' inputs differ.

    A round repeats the set-up until it has taken SETUP_ROUND_S, so a set-up
    of a few milliseconds is not timed alone against the host's noise.
    """
    times, digests = [], set()
    for i in range(SETUPS):
        directory = work / f"inputs{i}"
        directory.mkdir(parents=True)
        repeats, t0 = 0, time.perf_counter()
        while not repeats or time.perf_counter() - t0 < SETUP_ROUND_S:
            workload.setup(directory)
            repeats += 1
        times.append((time.perf_counter() - t0) / repeats)
        digests.add(_digest(directory))
        if i:
            shutil.rmtree(directory)
    problems = [] if len(digests) == 1 else ["set-up is not deterministic for one seed"]
    return work / "inputs0", statistics.median(times), problems


def run_workload(workload, seconds: float, traced: bool, spec: dict) -> dict:
    """Set up, run passes until ``seconds`` are spent (untraced and traced
    passes alternating when ``traced``), check them and collect the metrics."""
    from perfbench import tracing as trace

    name, seed = workload.name, workload.seed
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs_dir, setup_s, problems = _set_up(workload, work)
        problems += workload.prepare_checks(work / "checks")
        passes = []
        deadline = time.perf_counter() + seconds
        tracers = []
        while True:
            t0 = time.perf_counter()
            out = work / f"pass{len(passes)}"
            if traced and len(passes) % 2:
                # Traced passes alternate with untraced ones, so the overhead
                # compares passes made under the same host conditions.
                tracers.append(trace.Tracer())
                with trace.instrument(tracers[-1]):
                    passes.append(workload.run(inputs_dir, out, tracers[-1]))
            else:
                passes.append(workload.run(inputs_dir, out, trace.NullTracer()))
            shutil.rmtree(out)
            now = time.perf_counter()
            if (not traced or tracers) and now + (now - t0) > deadline:
                break  # the next pass would overrun
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in passes:
        problems += p.problems
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + len(problems))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "failed_ratio": failed / attempted}
    untraced = passes[0::2] if traced else passes
    for key in passes[0].named:
        summary[key] = statistics.median(p.named[key] for p in untraced)

    env = environment()
    if traced:
        # Layer metrics and the written spans come from the first traced pass.
        values = trace.layer_metrics(
            tracers[0], passes[1].reuse,
            untraced_s=statistics.median(p.seconds for p in untraced),
            traced_s=statistics.median(p.seconds for p in passes[1::2]))
        trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
        tracers[0].write(trace_path, {"workload": name, "seed": seed, "env": env,
                                      "metrics": values})
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": setup_s,
                  "phase1_s": statistics.median(p.phase1_s for p in passes),
                  "phase2_s": statistics.median(p.phase2_s for p in passes),
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"workload": name, "seed": seed, "passes": len(passes), "env": env,
            "pass_times": [(p.phase1_s, p.phase2_s) for p in passes],
            "summary": summary, "problems": problems,
            "result": {"correct": not problems and failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


# The workload-specific names of the summary lines, with their units.
SUMMARY_UNITS = (("setup_s", "s"), ("grid_s", "s"), ("extend_s", "s"),
               ("ingest_records_per_s", "1/s"), ("evaluate_utts_per_s", "1/s"),
               ("peak_rss_mb", "MB"), ("failed_ratio", "ratio"))


def print_report(out: dict) -> None:
    print(f"workload {out['workload']} seed {out['seed']}: {out['passes']} pass(es)")
    for name, unit in SUMMARY_UNITS:
        if name in out["summary"]:
            print(f"  {name:<22} {out['summary'][name]:.6g} {unit}")
    for name, m in out["result"]["metrics"].items():
        print(f"  [{name}] {m['value']:.6g} {m['unit']}")
    print("  passes (phase1_s, phase2_s): "
          + " ".join(f"({a:.3f}, {b:.3f})" for a, b in out["pass_times"]))
    print("  env " + json.dumps(out["env"]))
    for problem in out["problems"][:20]:
        print(f"  check failed: {problem}", file=sys.stderr)


def run_all(args) -> dict:
    """Each workload in its own child process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "slumix" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a slumix checkout (src/slumix and BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # The checkout's own sources, ahead of any installed copy.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    out = run_workload(workload, args.seconds, bool(args.trace), spec)
    print_report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
