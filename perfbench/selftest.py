"""Show that every check of the benchmark rejects a corrupted report.

    python3 perfbench/selftest.py

Runs each workload's request once, requires its check to accept the real
report, then corrupts the report in the ways listed below and requires the
check to reject each corrupted copy.  Exits 0 when every line says "ok".
"""

from __future__ import annotations

import json
import re
import sys

from run import WORKLOADS, Loop, load_program


def _edit(**changes):
    def apply(rec: dict) -> dict:
        for key, change in changes.items():
            rec[key] = change(rec[key])
        return rec

    return apply


def _bump_first_coefficient(poly: str) -> str:
    """The first written coefficient: digits after a space and before '*'."""
    return re.sub(r"(?<= )\d+(?=\*)", lambda m: str(int(m.group()) + 1), poly, count=1)


CORRUPTIONS = {
    "certify": {
        "verdict flipped": _edit(verdict=lambda v: not v),
        "one lhs coefficient altered": _edit(lhs=_bump_first_coefficient),
        "same coefficient altered in lhs and rhs": _edit(
            lhs=_bump_first_coefficient, rhs=_bump_first_coefficient
        ),
    },
    "pairs": {
        "trace count off by one": _edit(image_trace_count=lambda v: v + 1),
        "surjective flipped": _edit(surjective=lambda v: not v),
        "misses_involutions flipped": _edit(misses_involutions=lambda v: not v),
        "pairs_evaluated off by one": _edit(pairs_evaluated=lambda v: v - 1),
    },
    "scan": {
        "trace count off by one": _edit(image_trace_count=lambda v: v + 1),
        "misses_involutions flipped": _edit(misses_involutions=lambda v: not v),
        "pairs_evaluated off by one": _edit(pairs_evaluated=lambda v: v - 1),
    },
    "primes": {
        "matching count off by one": _edit(matching_prime_count=lambda v: v + 1),
        "total count off by one": _edit(total_prime_count=lambda v: v - 1),
        "empirical density altered": _edit(empirical_density=lambda v: "1/4"),
    },
}


def main() -> int:
    cli, caches = load_program()
    ok = True
    for name, workload in WORKLOADS.items():
        loop = Loop(cli, workload.argv, caches)
        loop.request()
        (text,) = loop.reports
        expected = workload.oracle(1)
        problems = workload.check(text, expected)
        ok &= not problems and not loop.bad_exits
        print(f"{name}: real report {'accepted: ok' if not problems else 'REJECTED: ' + '; '.join(problems)}")
        for label, corrupt in CORRUPTIONS[name].items():
            bad = json.dumps(corrupt(json.loads(text)), ensure_ascii=False) + "\n"
            problems = workload.check(bad, expected)
            ok &= bool(problems)
            verdict = f"rejected: ok ({problems[0]})" if problems else "ACCEPTED"
            print(f"{name}: {label}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
