"""One benchmark iteration, run by run.py in a fresh interpreter.

Usage: python3 child.py WORKLOAD SEED SPAWNED_AT TRACED THREADS

SPAWNED_AT is the parent's time.perf_counter() taken just before it started
this process.  On Linux that clock is CLOCK_MONOTONIC, which all processes
share, so the difference is interpreter start plus package import.  The
workload "probe" makes no call and only measures that set-up.

An untraced iteration also samples the CPU's speed while the workload runs
(see SpeedSampler) and reports its wall and CPU time scaled to a fixed speed.

The last line of stdout is one JSON object with the iteration's figures.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[3])

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import gamma_forest  # noqa: E402
from gamma_forest import cli, poly  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class HashSink(io.TextIOBase):
    """Write-only text stream: hashes and counts what it is given, keeps none."""

    CHUNK = 1 << 16

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.fail_lines = 0
        self._tail = "\n"

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        for i in range(0, len(s), self.CHUNK):
            chunk = s[i : i + self.CHUNK]
            data = chunk.encode()
            self.sha.update(data)
            self.bytes += len(data)
            # The tail is shorter than the pattern, so no match is counted twice.
            text = self._tail + chunk
            self.fail_lines += text.count("\nFAIL ")
            self._tail = text[-5:]
        return len(s)


class ElapsedSink(io.TextIOBase):
    """Stderr stand-in that keeps only the elapsed_ms figures cli prints.

    Lines of another form are passed on to the real stderr.
    """

    def __init__(self):
        self._partial = ""
        self.checks = 0
        self.check_ms = 0
        self.suite_ms = None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        lines = (self._partial + s).split("\n")
        self._partial = lines.pop()
        for line in lines:
            head, sep, ms = line.rpartition(" elapsed_ms=")
            if not (line.startswith("# ") and sep and ms.isdigit()):
                sys.__stderr__.write(line + "\n")
            elif head == "# suite":
                self.suite_ms = int(ms)
            else:
                self.checks += 1
                self.check_ms += int(ms)
        return len(s)


class SpeedSampler:
    """Times a fixed pure-Python loop every INTERVAL_S of wall time.

    On a shared host the speed of a vCPU changes within seconds, for instance
    when another tenant's work lands on its hyperthread sibling.  The loop's
    time tracks that speed at the moment it runs.  SIGALRM interrupts the
    workload in this process only: the interval timer is not inherited by
    forked pool workers.  Each sample costs about 0.2 ms, 1 % of the wall time.

    scale() turns a time into the time at the reference speed, at which the
    loop takes REFERENCE_S: the samples are evenly spaced in wall time, so the
    mean of REFERENCE_S / sample is the speed the workload got relative to the
    reference.  The samplers' own time is taken out first.  REFERENCE_S is
    about the loop's time on an uncontended vCPU of a 2-vCPU Xeon host; it is
    a unit, and any fixed value keeps a parent and a change comparable.
    """

    INTERVAL_S = 0.02
    LOOP = 2000
    REFERENCE_S = 150e-6

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return statistics.fmean(self.REFERENCE_S / x for x in self.samples)

    def scale(self, seconds: float) -> float:
        return (seconds - sum(self.samples)) * self.factor()


def _scaled_setup(seconds: float) -> float:
    """Scale a set-up time by the speed measured right after it.

    Set-up ends before a sampler can run, so a burst of nine samples taken
    at once stands in; the speed of a vCPU holds for seconds, and set-up
    takes about 0.15 s.  The burst is not part of the set-up time.
    """
    burst = SpeedSampler()
    for _ in range(9):
        burst.sample()
    return seconds * SpeedSampler.REFERENCE_S / statistics.median(burst.samples)


class Ops:
    """Counts the operations of an iteration and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, float] = {}
        self.cli = {"stdout_bytes": 0, "checks": 0, "unattributed_s": 0.0}

    def check(self, name: str, test) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ok = test()
        except Exception as exc:  # a raising operation is a failed one
            self.failures.append(f"{name}: {exc!r}")
            return
        finally:
            self.seconds[name] = time.perf_counter() - t0
        if not ok:
            self.failures.append(f"{name}: wrong result")

    def run_cli(self, argv: list[str]) -> tuple[object, HashSink, ElapsedSink]:
        """Run cli.main with stdout and stderr streamed into sinks."""
        out, err = HashSink(), ElapsedSink()
        sys.stdout, sys.stderr = out, err
        try:
            status = cli.main(argv)
        except Exception as exc:  # the caller's digest operation fails on it
            status = repr(exc)
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        if status != 0:
            sys.stderr.write(f"gamma-forest {' '.join(argv)}: {status}\n")
        self.cli["stdout_bytes"] += out.bytes
        self.cli["checks"] += err.checks
        if err.suite_ms is not None:
            self.cli["unattributed_s"] += (err.suite_ms - err.check_ms) / 1000
        return status, out, err


def _output_matches(status, out: HashSink, expected: dict) -> bool:
    return (
        status == 0
        and out.sha.hexdigest() == expected["sha256"]
        and out.bytes == expected["bytes"]
    )


# -- workloads -------------------------------------------------------------
# Each takes the seeded generator, the thread count and the operation
# counter.  The seed only reorders calls; outputs do not depend on it.


def verify_suite(rng: random.Random, threads: int, ops: Ops, digests: dict) -> None:
    expected = digests["verify-suite"]
    status, out, err = ops.run_cli(
        ["verify", "--suite", "all", "--n-max", "6", "--threads", str(threads)]
    )
    # One operation per check: a FAIL line, or a check that never reported,
    # is a failure.
    ops.attempted += expected["checks"]
    missing = max(0, expected["checks"] - err.checks)
    ops.failures += [f"verify: FAIL line {i + 1}" for i in range(out.fail_lines)]
    ops.failures += [f"verify: {missing} checks did not report"] if missing else []
    ops.check("verify stdout digest", lambda: _output_matches(status, out, expected))


def _closed_form_matches_peel(n: int) -> bool:
    return poly.gamma_closed_form(n) == poly.to_gamma_basis(poly.drake_polynomial(n))


def _round_trip_holds(n: int) -> bool:
    p = poly.drake_polynomial(n)
    return poly.from_gamma_basis(poly.to_gamma_basis(p)) == p


def poly_large_n(rng: random.Random, threads: int, ops: Ops, digests: dict) -> None:
    cases = [("closed-vs-peel", n) for n in range(1, 37)] + [("round-trip", 200), ("round-trip", 300)]
    rng.shuffle(cases)
    for kind, n in cases:
        test = _closed_form_matches_peel if kind == "closed-vs-peel" else _round_trip_holds
        ops.check(f"{kind} n={n}", lambda n=n, test=test: test(n))


ROW_CASES = {
    "rooted-7-text": ["--family", "rooted", "--n", "7", "--format", "text"],
    "normalized-8-combtype-json": [
        "--family", "normalized", "--n", "8", "--stat", "combtype", "--format", "json",
    ],
    "stirling-7-csv": ["--family", "stirling", "--n", "7", "--format", "csv"],
}


def enumerate_rows(rng: random.Random, threads: int, ops: Ops, digests: dict) -> None:
    names = sorted(ROW_CASES)
    rng.shuffle(names)
    for name in names:
        argv = ["enumerate", *ROW_CASES[name], "--mode", "rows", "--threads", str(threads)]
        status, out, _err = ops.run_cli(argv)
        expected = digests["enumerate-rows"][name]
        ops.check(f"{name} digest", lambda: _output_matches(status, out, expected))


WORKLOADS = {
    "verify-suite": verify_suite,
    "poly-large-n": poly_large_n,
    "enumerate-rows": enumerate_rows,
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one's.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def main() -> int:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[4] == "1"
    threads = int(sys.argv[5])
    if Path(gamma_forest.__file__).resolve().parent != SRC / "gamma_forest":
        sys.stderr.write(f"error: gamma_forest imported from {gamma_forest.__file__}, not {SRC}\n")
        return 2
    result = {"setup_raw_s": time.perf_counter() - SPAWNED_AT}
    result["setup_s"] = _scaled_setup(result["setup_raw_s"])
    if workload == "probe":
        print(json.dumps(result))
        return 0
    digests = json.loads((HERE / "digests.json").read_text())
    run = WORKLOADS[workload]
    rng = random.Random(seed)
    ops = Ops()
    tracer = sampler = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler()
    result["setup_raw_s"] = time.perf_counter() - SPAWNED_AT
    result["setup_s"] = _scaled_setup(result["setup_raw_s"])
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer:
        tracer.start()
    else:
        sampler.start()
    run(rng, threads, ops, digests)
    if tracer:
        tracer.stop()
    else:
        sampler.stop()
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    if sampler:
        result["sampled_s"] = sum(sampler.samples)
        result["speed_factor"] = sampler.factor()
        result["wall_adj_s"] = sampler.scale(result["wall_s"])
        result["cpu_adj_s"] = sampler.scale(result["cpu_s"])
    result["peak_rss_mb"] = _peak_rss_mb()
    result["attempted"] = ops.attempted
    result["failures"] = ops.failures
    result["op_seconds"] = ops.seconds
    if tracer:
        layers = tracer.report()
        layers.update({f"cli.{key}": value for key, value in ops.cli.items()})
        result["layers"] = layers
        result["spans"] = tracer.dump_spans()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
