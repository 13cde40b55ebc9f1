"""Closed-loop benchmark of the wordmaps command, in one process and thread.

    python3 perfbench/run.py --workload {certify,pairs,scan,primes} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: wordmaps is imported from ./src.
Each workload repeats one fixed request through `wordmaps.cli.main(argv)`
with stdout captured.  Before every request, outside the timed region,
every functools cache of the package is cleared and the garbage collector
runs, so each request does the work of a fresh `wordmaps` call apart from
interpreter start and the package import; `setup_s` measures the import.
After the loop every captured report is checked against the independent oracles in checks.py.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced requests alternate, the traced ones record
spans (written to perfbench/out/), and the line holds the per-layer
metrics.  A human summary goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_IMPORTS = 15


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    oracle: Callable  # seed -> expected facts
    check: Callable  # (stdout text, expected facts) -> list of problems


WORKLOADS = {
    "certify": Workload(
        ("verify", "--lemma", "factorization", "--k-min", "12", "--k-max", "12",
         "--shape", "x2yk", "--variant", "plus"),
        checks.certify_oracle,
        checks.check_certify,
    ),
    "pairs": Workload(
        ("image", "--q", "3", "--family", "x2yk:+,k=2", "--method", "pairs"),
        checks.pairs_oracle,
        checks.check_fields,
    ),
    "scan": Workload(
        ("image", "--q", "27", "--family", "x2yk:+,k=2", "--method", "scan"),
        checks.scan_oracle,
        checks.check_fields,
    ),
    "primes": Workload(
        ("density", "--kpm", "12", "--x", "100000"),
        checks.primes_oracle,
        checks.check_fields,
    ),
}

# The median and the throughput are left out: the host of the reference
# figures switches between two speeds every few seconds, so they land on
# whichever speed a run caught and spread beyond any bound between runs
# (see README.md).  They still appear in the stderr summary.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def load_program():
    """Import wordmaps.cli from the checkout's src/ and list the package's
    functools caches (the unwrapped functions, so tracing cannot hide one)."""
    if not (SRC / "wordmaps" / "cli.py").is_file():
        raise RuntimeError(f"no wordmaps sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import wordmaps.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "wordmaps":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's sources")
    caches = {}
    for name, module in sys.modules.items():
        if name == "wordmaps" or name.startswith("wordmaps."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return cli, list(caches.values())


def setup_timer() -> Callable[[], float]:
    """A function that imports wordmaps.cli in a fresh interpreter and
    returns the import's time.  The child reads the clock on both sides of
    the import, so process spawn and interpreter start are left out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-c",
           "import time; t0 = time.perf_counter(); import wordmaps.cli; print(time.perf_counter() - t0)"]

    def measure() -> float:
        done = subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60, capture_output=True, text=True)
        return float(done.stdout)

    return measure


class Loop:
    """Runs requests, keeps their times, and tallies the distinct reports."""

    def __init__(self, cli, argv, caches):
        self.cli, self.argv, self.caches = cli, list(argv), caches
        self.attempted = 0
        self.bad_exits = 0
        self.reports: dict[str, int] = {}

    def request(self) -> float:
        for cached in self.caches:
            cached.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed request
            code = repr(exc)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if code == 0:
            text = out.getvalue()
            self.reports[text] = self.reports.get(text, 0) + 1
        else:
            self.bad_exits += 1
            print(f"request exited with {code!r}: {err.getvalue().strip()}", file=sys.stderr)
        return elapsed

    def check(self, workload: Workload, seed: int) -> int:
        """Number of failed requests: bad exits plus reports that fail."""
        expected = workload.oracle(seed)
        failed = self.bad_exits
        for text, count in self.reports.items():
            problems = workload.check(text, expected)
            if problems:
                failed += count
                print(f"{count} report(s) failed: {'; '.join(problems[:3])}", file=sys.stderr)
        return failed


def percentile(times: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[math.ceil(len(ordered) * pct / 100) - 1]


def summary(times: list[float]) -> str:
    """Sample count, median, p90 and throughput, for the stderr summary."""
    return (
        f"n={len(times)} p50={statistics.median(times):.5g}s p90={percentile(times, 90):.5g}s "
        f"requests_per_s={len(times) / sum(times):.5g}"
    )


def run_plain(loop: Loop, seconds: float) -> tuple[dict, str]:
    """Timed requests for `seconds`, with SETUP_IMPORTS fresh imports spread
    evenly over the same span (between requests, outside their timing), so
    that `setup_s` sees the same host conditions as the requests do."""
    measure_setup = setup_timer()
    measure_setup()  # the first import may write bytecode caches
    loop.request()  # warm-up, not timed
    times, setups = [], []
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        if len(setups) <= SETUP_IMPORTS * (now - start) / seconds:
            setups.append(measure_setup())
        times.append(loop.request())
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p90_s": percentile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, summary(times)


def run_traced(loop: Loop, seconds: float, trace_path: Path) -> tuple[dict, str]:
    from tracer import Tracer, layer_metrics, UNITS

    tracer = Tracer("wordmaps")
    loop.request()  # warm-up, not timed
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        plain.append(loop.request())
        tracer.request = len(traced)
        tracer.install()
        try:
            traced.append(loop.request())
        finally:
            tracer.uninstall()
    tracer.write(trace_path)
    metrics = layer_metrics(tracer.per_request())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    text = f"untraced {summary(plain)}; traced {summary(traced)}; spans in {trace_path}"
    return {k: {"value": metrics[k], "unit": unit} for k, unit in UNITS.items()}, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli, caches = load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    loop = Loop(cli, workload.argv, caches)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}.csv.gz"
        metrics, text = run_traced(loop, args.seconds, trace_path)
    else:
        metrics, text = run_plain(loop, args.seconds)
    failed = loop.check(workload, args.seed)
    print(f"{args.workload} seed={args.seed}: {text}; "
          f"attempted={loop.attempted} failed={failed}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
