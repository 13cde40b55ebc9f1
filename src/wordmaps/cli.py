"""Command-line front end.

Exit codes: 0 = verified/true, 1 = checked-and-false, 2 = usage or input
error.  JSON output is one document per line; CSV flattens one record per
row.  Every subcommand prints the same bytes on every run: `image`
reports carry no timing.  Certificates are computed in `tracepoly`; this
module only renders them.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from typing import Sequence

from . import arith, gf, tracepoly, words

WORD_HELP = (
    "word grammar: word := term+ ; term := factor ('^' integer)? ; "
    "factor := 'x1' | 'x2' | '(' word ')' | '[' word ',' word ']'. "
    "Whitespace is ignored; the commutator convention is [a,b] = a^-1 b^-1 a b; "
    "exponent 0 expands to the empty word."
)

EPILOG = (
    WORD_HELP
    + " Family mini-syntax: 'SHAPE:SIGN,k=K' with SHAPE one of x2yk|xneg2yk|x2ynegk "
    "and SIGN the inner sign of y1 = x1^2 x2 x1^(SIGN 2) x2^-1, e.g. 'x2yk:+,k=2'. "
    "Exit codes: 0 verified/true, 1 checked-and-false, 2 usage/input error."
)

_SHAPES = {shape.value: shape for shape in words.Shape}


def _csv_cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _emit(records: list[dict], fmt: str, text_lines=None) -> None:
    if fmt == "json":
        for record in records:
            print(json.dumps(record, ensure_ascii=False))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        if records:
            header = list(records[0].keys())
            writer.writerow(header)
            for record in records:
                writer.writerow([_csv_cell(record.get(key)) for key in header])
    else:
        lines = text_lines() if text_lines is not None else None
        if lines is None:
            lines = [
                "  ".join(f"{k}={_csv_cell(v)}" for k, v in record.items())
                for record in records
            ]
        for line in lines:
            print(line)


def _parse_family(text: str) -> tuple[words.Shape, int, int]:
    m = re.fullmatch(
        r"\s*(x2yk|xneg2yk|x2ynegk)\s*:\s*([+-])\s*,\s*k\s*=\s*(\d+)\s*", text
    )
    if not m:
        raise ValueError(
            f"bad family {text!r}; expected e.g. 'x2yk:+,k=2' (see --help)"
        )
    shape = _SHAPES[m.group(1)]
    inner = 1 if m.group(2) == "+" else -1
    return shape, inner, int(m.group(3))


def cmd_trace(args) -> int:
    w = words.parse_word(args.word)
    poly = tracepoly.tau(w)
    record = {"word": str(w), "trace_polynomial": str(poly)}
    _emit([record], args.format, text_lines=lambda: [str(poly)])
    return 0


def _swap_certificates(kmin, kmax, signs):
    for k in range(kmin, kmax + 1):
        for sign in signs:
            lhs, rhs, verdict = tracepoly.swap_certificate(k, sign)
            yield {
                "lemma": "swap",
                "k": k,
                "variant": "plus" if sign > 0 else "minus",
                "verdict": verdict,
                "lhs": str(lhs),
                "rhs": str(rhs),
            }


def _factorization_certificates(kmin, kmax, signs, shapes):
    for k in range(kmin, kmax + 1):
        for shape in shapes:
            for sign in signs:
                lhs, rhs, verdict = tracepoly.factorization_certificate(k, shape, sign)
                yield {
                    "lemma": "factorization",
                    "k": k,
                    "shape": shape.value,
                    "variant": "plus" if sign > 0 else "minus",
                    "verdict": verdict,
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }


def _cyclotomic_certificates(kmin, kmax):
    for k_pm in range(kmin, kmax + 1):
        candidate = tracepoly.alternating_dickson_sum(k_pm)
        yield {
            "lemma": "cyclotomic",
            "k": k_pm,
            "variant": None,
            "verdict": tracepoly.cyclotomic_root_check(k_pm),
            "lhs": tracepoly.render_poly(candidate, names="T"),
            "rhs": f"0 in Z[x]/Phi_d(x) at T = -(x + x^(d-1)), d | {2 * k_pm + 1}, d > 1",
        }


def cmd_verify(args) -> int:
    if args.k_min > args.k_max:
        print("error: empty k range", file=sys.stderr)
        return 2
    signs = {"plus": (1,), "minus": (-1,), "all": (1, -1)}[args.variant]
    if args.lemma == "swap":
        certs = list(_swap_certificates(args.k_min, args.k_max, signs))
    elif args.lemma == "factorization":
        if args.k_min < 1:
            print("error: factorization requires k >= 1", file=sys.stderr)
            return 2
        shapes = (
            tuple(words.Shape) if args.shape == "all" else (_SHAPES[args.shape],)
        )
        certs = list(
            _factorization_certificates(args.k_min, args.k_max, signs, shapes)
        )
    else:
        if args.k_min < 1:
            print("error: cyclotomic requires k >= 1 (k is k_pm here)", file=sys.stderr)
            return 2
        certs = list(_cyclotomic_certificates(args.k_min, args.k_max))
    _emit(certs, args.format)
    return 0 if all(cert["verdict"] for cert in certs) else 1


def cmd_conditions(args) -> int:
    report = arith.check_nonsurjectivity_conditions(
        args.p, args.n, args.k, _SHAPES[args.shape]
    )
    record = report.to_dict()
    _emit(
        [record],
        args.format,
        text_lines=lambda: [f"{k}: {_csv_cell(v)}" for k, v in record.items()],
    )
    return 0 if report.verdict else 1


def cmd_image(args) -> int:
    # The budget is checked from q alone, before q is factored or the
    # field is built: both take far longer than the check for a large q.
    budget = args.budget
    if args.q is not None:
        gf.check_budget(args.method, args.q, budget)
        p, n = arith.odd_prime_power(args.q)
    else:
        if args.p is None or args.n is None:
            print("error: provide --q or both --p and --n", file=sys.stderr)
            return 2
        p, n = args.p, args.n
        if p > 2 and n > 0:  # make_field rejects the rest
            # p^n > 2^n is over the budget once n passes its bit length:
            # the exponent is capped there, so an absurd n is never formed
            gf.check_budget(args.method, p ** min(n, budget.bit_length() + 1), budget)
    field = gf.make_field(p, n)
    family = None
    if args.family is not None:
        shape, inner, k = _parse_family(args.family)
        w = words.family_word(shape, inner, k)
        family = (shape, k)
    else:
        w = words.parse_word(args.word)
    runner = gf.enumerate_image_pairs if args.method == "pairs" else gf.trace_scan
    report = runner(w, field, budget=budget)
    record = report.to_dict()
    _emit(
        [record],
        args.format,
        text_lines=lambda: [f"{k}: {_csv_cell(v)}" for k, v in record.items()],
    )
    if family is not None:
        shape, k = family
        try:
            conditions = arith.check_nonsurjectivity_conditions(p, n, k, shape)
        except ValueError:
            return 0
        if conditions.verdict and not report.misses_involutions:
            return 1
    return 0


def cmd_scan(args) -> int:
    primes, report = arith.scan_primes(args.kpm, args.p_max)
    record = {"kpm": args.kpm, "p_max": args.p_max, "primes": primes}
    record.update(report.to_dict())
    _emit(
        [record],
        args.format,
        text_lines=lambda: [" ".join(str(p) for p in primes)],
    )
    return 0


def cmd_density(args) -> int:
    _, report = arith.scan_primes(args.kpm, args.x)
    record = report.to_dict()
    _emit(
        [record],
        args.format,
        text_lines=lambda: [f"{k}: {_csv_cell(v)}" for k, v in record.items()],
    )
    return 0


def cmd_lengths(args) -> int:
    families = (
        list(words.Shape)[:2]
        if args.family == "both"
        else [_SHAPES[args.family]]
    )
    records = []
    union: set[int] = set()
    for family in families:
        lengths, residues = arith.length_residues(family, args.r_max)
        union |= residues
        records.append(
            {
                "family": family.value,
                "r_max": args.r_max,
                "count": len(lengths),
                "first_lengths": lengths[:8],
                "residues_mod_18": sorted(residues),
            }
        )
    records.append({"family": "union", "r_max": args.r_max, "residues_mod_18": sorted(union)})

    def text() -> list[str]:
        lines = [
            f"{r['family']}: residues mod 18 = {r['residues_mod_18']}" for r in records
        ]
        return lines

    _emit(records, args.format, text_lines=text)
    return 0


def _add_format(sub, default: str) -> None:
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default=default,
        help=f"output format (default {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordmaps",
        description="Trace-polynomial certificates and exhaustive image checks "
        "for two-generator word maps on PSL2 over finite fields.",
        epilog=EPILOG,
    )
    parser.add_argument(
        "--seed-corpus", action="store_true",
        help="print the standard word corpus (one word per line) and exit",
    )
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("trace", help="print the trace polynomial of a word",
                          epilog=WORD_HELP)
    sub.add_argument("word", help="word text, e.g. \"x1^2 [x1^-2, x2^-1]\"")
    _add_format(sub, "text")
    sub.set_defaults(func=cmd_trace)

    sub = subs.add_parser("verify", help="emit identity certificates over a k range")
    sub.add_argument("--lemma", required=True,
                     choices=("swap", "factorization", "cyclotomic"))
    sub.add_argument("--k-min", type=int, required=True)
    sub.add_argument("--k-max", type=int, required=True)
    sub.add_argument("--variant", choices=("plus", "minus", "all"), default="all",
                     help="inner sign of y1 (ignored for cyclotomic)")
    sub.add_argument("--shape", choices=tuple(_SHAPES) + ("all",), default="all",
                     help="word shape (factorization only)")
    _add_format(sub, "json")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("conditions", help="check the non-surjectivity conditions")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--shape", choices=tuple(_SHAPES), default="x2yk")
    _add_format(sub, "json")
    sub.set_defaults(func=cmd_conditions)

    sub = subs.add_parser("image", help="enumerate the word-map image over F_q")
    sub.add_argument("--q", type=int, help="odd prime power (alternative to --p/--n)")
    sub.add_argument("--p", type=int)
    sub.add_argument("--n", type=int)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="word text")
    group.add_argument("--family", help="family mini-syntax, e.g. 'x2yk:+,k=2'")
    sub.add_argument("--method", required=True, choices=("pairs", "scan"))
    sub.add_argument("--budget", type=int, default=gf.DEFAULT_BUDGET,
                     help=f"evaluation budget (default {gf.DEFAULT_BUDGET})")
    _add_format(sub, "json")
    sub.set_defaults(func=cmd_image)

    sub = subs.add_parser("scan", help="scan primes qualifying for a given k_pm")
    sub.add_argument("--kpm", type=int, required=True)
    sub.add_argument("--p-max", type=int, required=True)
    _add_format(sub, "text")
    sub.set_defaults(func=cmd_scan)

    sub = subs.add_parser("density", help="prime-density report for a given k_pm")
    sub.add_argument("--kpm", type=int, required=True)
    sub.add_argument("--x", type=int, required=True, help="scan bound")
    _add_format(sub, "json")
    sub.set_defaults(func=cmd_density)

    sub = subs.add_parser("lengths", help="admissible word lengths and residues mod 18")
    sub.add_argument("--r-max", type=int, required=True)
    sub.add_argument("--family", choices=("x2yk", "xneg2yk", "both"), default="both")
    _add_format(sub, "text")
    sub.set_defaults(func=cmd_lengths)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_corpus:
        for w in words.standard_corpus():
            print(str(w))
        return 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except words.WordSyntaxError as exc:
        print(f"error: syntax error: {exc}", file=sys.stderr)
        return 2
    except gf.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except arith.CongruenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (arith.RamifiedPrimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
