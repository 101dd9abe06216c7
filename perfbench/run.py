"""gamma-forest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the package under `src/` of the checkout
it sits in.  Each iteration of a workload runs in a fresh interpreter
(`child.py`), one at a time, the way users start the CLI.  Iterations repeat
while the next one is expected to end within S seconds; there is always at
least one.  Set-up probes, children that only import the package, run
before each iteration.  `--workload all` runs every workload in turn.

With `--trace 0` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json, each the median over the run's iterations (over its probes
and iterations for `setup_s`).  `setup_s`, `wall_adj_s` and `cpu_adj_s` are
set-up, wall and CPU time scaled to a fixed CPU speed (see
child.SpeedSampler); the raw medians go to stderr and the record.  With `--trace 1` each iteration is run
twice, untraced and then traced, and the line holds the medians of the
per-layer metrics of the traced runs.  A summary with the environment goes
to stderr, and the full record, spans included, to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "gamma_forest"
RESULTS = HERE / "results"

WORKLOADS = ("verify-suite", "poly-large-n", "enumerate-rows")
# Pool size per workload: verify-suite is the command users run with
# --threads 2; the others measure the serial paths.
THREADS = {"verify-suite": 2, "poly-large-n": 1, "enumerate-rows": 1}
SETUP_PROBES = 3
PROBES_PER_ITERATION = 2
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, traced: bool, threads: int) -> dict:
    """Run one iteration in a fresh interpreter and return its figures."""
    env = dict(os.environ)
    env.pop("GAMMA_FOREST_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), "",
            "1" if traced else "0", str(threads)]
    argv[4] = repr(time.perf_counter())
    # Its own process group, so that a timed-out child is killed with its pool.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    threads = min(THREADS[workload], len(os.sched_getaffinity(0)))

    def probe() -> dict:
        return spawn("probe", seed, False, threads)

    probe()  # unmeasured: writes the bytecode cache
    setup = [probe() for _ in range(SETUP_PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        setup += [probe() for _ in range(PROBES_PER_ITERATION)]
        untraced.append(spawn(workload, seed, False, threads))
        if trace:
            traced.append(spawn(workload, seed, True, threads))
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            break
    setup += untraced
    runs = untraced + traced
    end_to_end = {
        **{key: statistics.median(r[key] for r in setup) for key in ("setup_s", "setup_raw_s")},
        **{key: statistics.median(r[key] for r in untraced)
           for key in ("wall_adj_s", "cpu_adj_s", "peak_rss_mb", "wall_s", "cpu_s",
                       "speed_factor")},
    }
    layers = {}
    if traced:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["trace_overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] - r["sampled_s"] for r in untraced)
        )
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "iterations": len(untraced),
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "fail_ratio": min(len(failures), attempted) / attempted,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "samples": {
            "setup_s": [(r["setup_s"], r["setup_raw_s"]) for r in setup],
            "untraced": untraced,
            "traced": [{k: v for k, v in r.items() if k != "spans"} for r in traced],
        },
        "spans": [r["spans"] for r in traced],
    }


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        src.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
    }


def select(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def summary(result: dict, spec: dict) -> str:
    lines = [
        f"== {result['workload']} seed={result['seed']} threads={result['threads']} "
        f"iterations={result['iterations']}",
        f"  {'fail_ratio':<36} {result['fail_ratio']:<14.6g} "
        f"({result['failed']} of {result['attempted']} operations)",
    ]
    raw = result["end_to_end"]
    lines.append(f"  {'raw setup_s, wall_s, cpu_s':<36} {raw['setup_raw_s']:.6g} s, "
                 f"{raw['wall_s']:.6g} s, {raw['cpu_s']:.6g} s")
    lines.append(f"  {'speed_factor':<36} {raw['speed_factor']:.4g}")
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if m["name"] in result[section]:
                lines.append(f"  {m['name']:<36} {result[section][m['name']]:<14.6g} {m['unit']}")
    lines += [f"  FAILED {f}" for f in result["failures"]]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no gamma_forest package under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    env = environment()
    sys.stderr.write("environment " + json.dumps(env) + "\n")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            sys.stderr.write(summary(result, spec))
            results.append(result)
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    env["loadavg_end"] = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "results": results}, indent=1) + "\n")
    sys.stderr.write(f"environment loadavg_end={env['loadavg_end']} record={record}\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = select(spec[section], results[0][section])
    else:
        metrics = {
            f"{r['workload']}/{name}": value
            for r in results
            for name, value in select(spec[section], r[section]).items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
