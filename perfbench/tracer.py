"""Spans around the public functions of each wordmaps layer.

The wrappers live here, in the benchmark, not in the program: `install`
rebinds each traced function at its module attribute and at every other
name the package bound to the same object at import (for example
`gf.tau` and `gf.is_prime`), and `uninstall` puts the originals back.
Spans are kept in memory in flat arrays and written out once, at the end
of the run.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs of the layers, in the order metrics are listed.
TRACED = (
    ("cli", "main"),
    ("words", "family_word"),
    ("tracepoly", "tau"),
    ("tracepoly", "factorization_sum_form"),
    ("tracepoly", "render_poly"),
    ("gf", "make_field"),
    ("gf", "sl2_group"),
    ("gf", "enumerate_image_pairs"),
    ("gf", "trace_scan"),
    ("arith", "scan_primes"),
    ("arith", "primes_up_to"),
    ("arith", "inertia_degree"),
    ("arith", "is_prime"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
_CODE = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Spans of the traced functions; set `request` before each traced
    request so that its spans share that identifier."""

    def __init__(self, package: str):
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        self.originals = {name: getattr(sys.modules[f"{package}.{mod}"], fn) for name, (mod, fn) in zip(NAMES, TRACED)}
        self.bindings = [
            (module, attr, name)
            for module in modules
            for attr, value in vars(module).items()
            for name, original in self.originals.items()
            if value is original
        ]
        self.request = -1
        self.stack: list[int] = []
        # One entry per span; the span id is its index.
        self.req = array("q")
        self.parent = array("q")
        self.code = array("B")
        self.start = array("q")
        self.end = array("q")
        self.facts: dict[int, tuple] = {}
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}

    def _wrap(self, name: str, fn):
        code = _CODE[name]
        stack, req, parent, codes, start, end, facts = (
            self.stack, self.req, self.parent, self.code, self.start, self.end, self.facts,
        )
        clock = time.perf_counter_ns
        misses = (lambda: fn.cache_info().misses) if name == "tracepoly.tau" else None
        count = _FROM_RESULT[name][1] if name in _FROM_RESULT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(req)
            req.append(self.request)
            parent.append(stack[-1] if stack else -1)
            codes.append(code)
            start.append(0)
            end.append(0)
            stack.append(sid)
            before = misses() if misses else 0
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if misses:
                computed = misses() - before
                bits = max((abs(c).bit_length() for c in result.terms.values()), default=0) if computed else 0
                facts[sid] = (computed, bits, len(result.terms))
            elif count:
                facts[sid] = (count(result),)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in self.bindings:
            setattr(module, attr, self.wrappers[name])

    def uninstall(self) -> None:
        for module, attr, name in self.bindings:
            setattr(module, attr, self.originals[name])

    def write(self, path: Path) -> None:
        """One CSV line per span, times in ns from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        facts = self.facts
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("request,span,parent,name,start_ns,end_ns,facts\n")
            out.writelines(
                f"{r},{sid},{p},{NAMES[c]},{s - t0},{e - t0},{' '.join(map(str, facts.get(sid, ())))}\n"
                for sid, (r, p, c, s, e) in enumerate(zip(self.req, self.parent, self.code, self.start, self.end))
            )

    def per_request(self) -> list[dict[str, float]]:
        """Per-layer figures for each traced request, in request order."""
        calls_ns: dict[tuple[int, int], list[int]] = {}
        for r, c, s, e in zip(self.req, self.code, self.start, self.end):
            acc = calls_ns.get((r, c))
            if acc is None:
                calls_ns[(r, c)] = [1, e - s]
            else:
                acc[0] += 1
                acc[1] += e - s
        main = _CODE["cli.main"]
        mains = {sid for sid, c in enumerate(self.code) if c == main}
        child_ns: dict[int, int] = {}
        for p, s, e in zip(self.parent, self.start, self.end):
            if p in mains:
                child_ns[self.req[p]] = child_ns.get(self.req[p], 0) + e - s

        rows = {r: _empty_row() for r, _ in calls_ns}
        for (r, c), (calls, ns) in calls_ns.items():
            row, name = rows[r], NAMES[c]
            row["trace.spans"] += calls
            for metric, kind in _FROM_SPANS.get(name, ()):
                row[metric] = calls if kind == "calls" else ns / 1e9
        for r, row in rows.items():
            row["cli.self_s"] -= child_ns.get(r, 0) / 1e9
        for sid, facts in self.facts.items():
            row, name = rows[self.req[sid]], NAMES[self.code[sid]]
            if name == "tracepoly.tau":
                computed, bits, terms = facts
                row[_TAU_COMPUTED] += computed
                row[_TAU_BITS] = max(row[_TAU_BITS], bits)
                row[_TAU_TERMS] = max(row[_TAU_TERMS], terms)
            else:
                row[_FROM_RESULT[name][0]] += facts[0]
        return [rows[r] for r in sorted(rows)]


# Metrics read off the spans of one traced function: its call count or
# its total time.  cli.self_s starts as the time of cli.main and loses the
# time of the spans directly under it.
_FROM_SPANS = {
    "cli.main": (("cli.self_s", "s"),),
    "words.family_word": (("words.family_word_s", "s"),),
    "tracepoly.tau": (("tracepoly.tau_calls", "calls"), ("tracepoly.tau_s", "s")),
    "tracepoly.factorization_sum_form": (("tracepoly.sum_form_calls", "calls"), ("tracepoly.sum_form_s", "s")),
    "tracepoly.render_poly": (("tracepoly.render_s", "s"),),
    "gf.make_field": (("gf.make_field_s", "s"),),
    "gf.sl2_group": (("gf.sl2_group_s", "s"),),
    "gf.enumerate_image_pairs": (("gf.pairs_s", "s"),),
    "gf.trace_scan": (("gf.scan_s", "s"),),
    "arith.scan_primes": (("arith.scan_primes_s", "s"),),
    "arith.primes_up_to": (("arith.sieve_s", "s"),),
    "arith.inertia_degree": (("arith.inertia_calls", "calls"), ("arith.inertia_s", "s")),
    "arith.is_prime": (("arith.is_prime_calls", "calls"),),
}
# Metrics summed from a count read off the traced call's result; tau's
# span records (cache misses, largest coefficient bits, terms) instead.
_FROM_RESULT = {
    "gf.enumerate_image_pairs": ("gf.pairs_evals", lambda report: report.count),
    "gf.trace_scan": ("gf.scan_points", lambda report: report.count),
    "arith.primes_up_to": ("arith.primes_sieved", len),
}
# Metrics read off tau's span facts.
_TAU_COMPUTED, _TAU_BITS, _TAU_TERMS = "tracepoly.tau_computed", "tracepoly.tau_coeff_bits", "tracepoly.tau_terms"


# Per-layer metrics in reporting order, with their units.
UNITS = {
    "cli.self_s": "s",
    "words.family_word_s": "s",
    "tracepoly.tau_calls": "count",
    "tracepoly.tau_computed": "count",
    "tracepoly.tau_s": "s",
    "tracepoly.tau_terms": "count",
    "tracepoly.tau_coeff_bits": "bits",
    "tracepoly.sum_form_calls": "count",
    "tracepoly.sum_form_s": "s",
    "tracepoly.render_s": "s",
    "gf.make_field_s": "s",
    "gf.sl2_group_s": "s",
    "gf.pairs_s": "s",
    "gf.pairs_evals": "count",
    "gf.pairs_evals_per_s": "1/s",
    "gf.scan_s": "s",
    "gf.scan_points": "count",
    "gf.scan_points_per_s": "1/s",
    "arith.scan_primes_s": "s",
    "arith.sieve_s": "s",
    "arith.primes_sieved": "count",
    "arith.inertia_calls": "count",
    "arith.inertia_s": "s",
    "arith.is_prime_calls": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _empty_row() -> dict[str, float]:
    names = [metric for pairs in _FROM_SPANS.values() for metric, _ in pairs]
    names += [metric for metric, _ in _FROM_RESULT.values()]
    names += [_TAU_COMPUTED, _TAU_BITS, _TAU_TERMS, "trace.spans"]
    return dict.fromkeys(names, 0)


def layer_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Median per request of every figure, plus the two kernel rates."""
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["gf.pairs_evals_per_s"] = out["gf.pairs_evals"] / out["gf.pairs_s"] if out["gf.pairs_s"] else 0.0
    out["gf.scan_points_per_s"] = out["gf.scan_points"] / out["gf.scan_s"] if out["gf.scan_s"] else 0.0
    return out
