"""Command-line front end.

Each `cmd_*` validates its input and returns a `Result`, `(code, records,
text_of)`: `records` may be lazy, as `verify`'s certificates are, and
`text_of(record)` is that record's text, built only for the text format.
`main` prints each record as it is made and is the one place that maps
outcomes to exit codes: 1 if a printed record says `"verdict": false`, 2
for a usage or input error, and else the command's code, which is 0 for
all but `image`.  JSON output is one document per line; CSV flattens one
record per row under the first record's keys.  Every subcommand prints the
same bytes on every run: `image` reports carry no timing.  A reader that
closes the pipe stops the request at once, with no traceback, and the exit
code is that of the records printed.
Certificates are computed in `tracepoly`; this module only renders them.
`image` names its field by the required `--q`; `verify`'s k range,
`conditions --k` and `lengths --r-max` exit 2 past `check_family_index`.
`main` builds the parser of only the subcommand its argv names, and all
seven for any other argv, such as `-h`; help and refusals print alike.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, Sequence

from . import arith, gf, tracepoly, words

_SHAPE_NAMES = tuple(shape.value for shape in words.Shape)

EPILOG = (
    words.WORD_HELP
    + f" Family mini-syntax: 'SHAPE:SIGN,k=K' with SHAPE one of {'|'.join(_SHAPE_NAMES)} "
    "and SIGN the inner sign of y1 = x1^2 x2 x1^(SIGN 2) x2^-1, e.g. 'x2yk:+,k=2'. "
    "Exit codes: 0 verified/true, 1 checked-and-false, 2 usage/input error."
)

_VARIANTS = {1: "plus", -1: "minus"}

Result = tuple[int, Iterable[dict], Callable[[dict], str]]


def _csv_cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _emit(records: Iterable[dict], fmt: str, text_of: Callable[[dict], str]) -> bool:
    """Print each record as it comes, until a closed pipe stops it; return
    whether a printed record says `"verdict": false`."""
    failed, writer = False, None
    try:
        for record in records:
            if fmt == "json":
                print(json.dumps(record, ensure_ascii=False))
            elif fmt == "csv":
                if writer is None:
                    import csv  # only this branch needs it, so no other request pays for the import

                    writer, header = csv.writer(sys.stdout), list(record)
                    writer.writerow(header)
                writer.writerow([_csv_cell(record.get(key)) for key in header])
            else:
                print(text_of(record))
            failed = failed or record.get("verdict") is False
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left: stop, and point stdout at devnull so that the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return failed


def _fields(record: dict) -> str:
    return "\n".join(f"{k}: {_csv_cell(v)}" for k, v in record.items())


def cmd_trace(args) -> Result:
    w = words.parse_word(args.word)
    record = {"word": str(w), "trace_polynomial": str(tracepoly.tau(w))}
    return 0, [record], lambda r: r["trace_polynomial"]


def _certificates(lemma: str, kmin: int, kmax: int, signs, shapes):
    """One record per certificate, from the (lhs, rhs, verdict) triple of
    tracepoly; only factorization records carry a shape, and cyclotomic
    records have no variant."""
    for k in range(kmin, kmax + 1):
        if lemma == "cyclotomic":
            cases = [(None, None, tracepoly.cyclotomic_certificate(k))]
        elif lemma == "swap":
            cases = ((None, sign, tracepoly.swap_certificate(k, sign)) for sign in signs)
        else:
            cases = (
                (shape, sign, tracepoly.factorization_certificate(k, shape, sign))
                for shape in shapes
                for sign in signs
            )
        for shape, sign, (lhs, rhs, verdict) in cases:
            shape_key = {"shape": shape.value} if shape else {}
            lhs_text = str(lhs)  # the canonical text: equal sides render alike
            yield {"lemma": lemma, "k": k, **shape_key, "variant": _VARIANTS.get(sign),
                   "verdict": verdict, "lhs": lhs_text,
                   "rhs": lhs_text if lhs == rhs else str(rhs)}


def cmd_verify(args) -> Result:
    if args.k_min > args.k_max:
        raise ValueError("empty k range")
    if args.lemma != "swap" and args.k_min < 1:
        note = " (k is k_pm here)" if args.lemma == "cyclotomic" else ""
        raise ValueError(f"{args.lemma} requires k >= 1{note}")
    # |k| peaks at an end of the range, and the swap lemma's left side is y_(k-1)
    for k in (args.k_min, args.k_max, args.k_min - (args.lemma == "swap")):
        words.check_family_index(k)
    signs = {"plus": (1,), "minus": (-1,), "all": (1, -1)}[args.variant]
    shapes = tuple(words.Shape) if args.shape == "all" else (words.Shape(args.shape),)
    certs = _certificates(args.lemma, args.k_min, args.k_max, signs, shapes)
    return 0, certs, lambda cert: "  ".join(f"{k}={_csv_cell(v)}" for k, v in cert.items())


def cmd_conditions(args) -> Result:
    words.check_family_index(args.k)  # the record lists k_pm inertia degrees
    report = arith.check_nonsurjectivity_conditions(
        args.p, args.n, args.k, words.Shape(args.shape)
    )
    return 0, [report.to_dict()], _fields


def cmd_image(args) -> Result:
    # The budget is checked from q alone, before q is factored or the
    # field is built: both take far longer than the check for a large q.
    gf.check_budget(args.method, args.q, args.budget)
    p, n = arith.odd_prime_power(args.q)
    field = gf.make_field(p, n)
    if args.family is not None:
        shape, sign, k = words.parse_family(args.family)
        w = words.family_word(shape, sign, k)
    else:
        w = words.parse_word(args.word)
    runner = gf.enumerate_image_pairs if args.method == "pairs" else gf.trace_scan
    report = runner(w, field, budget=args.budget)
    code = 0
    if args.family is not None and not report.misses_involutions:
        try:  # 1: the conditions hold, yet the image meets the involutions
            code = int(arith.check_nonsurjectivity_conditions(p, n, k, shape).verdict)
        except ValueError:  # the conditions do not apply to this field
            pass
    return code, [report.to_dict()], _fields


def cmd_scan(args) -> Result:
    kept, report = arith.scan_primes(args.kpm, args.p_max)
    record = {"kpm": args.kpm, "p_max": args.p_max, "primes": list(kept)}
    record.update(report.to_dict())
    return 0, [record], lambda r: " ".join(map(str, r["primes"]))


def cmd_density(args) -> Result:
    _, report = arith.scan_primes(args.kpm, args.x)  # counts the kept primes, never lists them
    return 0, [report.to_dict()], _fields


def cmd_lengths(args) -> Result:
    families = (
        list(words.Shape)[:2] if args.family == "both" else [words.Shape(args.family)]
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
    return 0, records, lambda r: f"{r['family']}: residues mod 18 = {r['residues_mod_18']}"


def _add_format(sub, default: str) -> None:
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default=default,
        help=f"output format (default {default})",
    )


# Each subcommand's runner, which `main` calls, in the order that
# `build_parser` adds them and that its usage lists them.
_COMMANDS = {"trace": cmd_trace, "verify": cmd_verify, "conditions": cmd_conditions,
             "image": cmd_image, "scan": cmd_scan, "density": cmd_density, "lengths": cmd_lengths}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `wordmaps` parser with all seven subcommands, or with only the one
    that `command` names, which prints that one's help and refusals alike."""
    parser = argparse.ArgumentParser(
        prog="wordmaps",
        description="Trace-polynomial certificates and exhaustive image checks "
        "for two-generator word maps on PSL2 over finite fields.",
        epilog=EPILOG,
    )
    # unrecognized arguments after a subcommand print this usage, which
    # names all seven subcommands whichever were built
    subs = parser.add_subparsers(
        dest="command", metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))

    def add(name: str, **kwargs) -> argparse.ArgumentParser | None:
        return subs.add_parser(name, **kwargs) if command in (None, name) else None

    if sub := add("trace", help="print the trace polynomial of a word", epilog=words.WORD_HELP):
        sub.add_argument("word", help="word text, e.g. \"x1^2 [x1^-2, x2^-1]\"")
        _add_format(sub, "text")

    if sub := add("verify", help="emit identity certificates over a k range"):
        sub.add_argument("--lemma", required=True,
                         choices=("swap", "factorization", "cyclotomic"))
        sub.add_argument("--k-min", type=int, required=True)
        sub.add_argument("--k-max", type=int, required=True)
        sub.add_argument("--variant", choices=("plus", "minus", "all"), default="all",
                         help="inner sign of y1 (ignored for cyclotomic)")
        sub.add_argument("--shape", choices=_SHAPE_NAMES + ("all",), default="all",
                         help="word shape (factorization only)")
        _add_format(sub, "json")

    if sub := add("conditions", help="check the non-surjectivity conditions"):
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--shape", choices=_SHAPE_NAMES, default="x2yk")
        _add_format(sub, "json")

    if sub := add("image", help="enumerate the word-map image over F_q"):
        sub.add_argument("--q", type=int, required=True, help="field order, an odd prime power")
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--word", help="word text")
        group.add_argument("--family", help="family mini-syntax, e.g. 'x2yk:+,k=2'")
        sub.add_argument("--method", required=True, choices=("pairs", "scan"))
        sub.add_argument("--budget", type=int, default=gf.DEFAULT_BUDGET,
                         help=f"budget on the pairs or triples covered (default {gf.DEFAULT_BUDGET})")
        _add_format(sub, "json")

    if sub := add("scan", help="scan primes qualifying for a given k_pm"):
        sub.add_argument("--kpm", type=int, required=True)
        sub.add_argument("--p-max", type=int, required=True)
        _add_format(sub, "text")

    if sub := add("density", help="prime-density report for a given k_pm"):
        sub.add_argument("--kpm", type=int, required=True)
        sub.add_argument("--x", type=int, required=True, help="scan bound")
        _add_format(sub, "json")

    if sub := add("lengths", help="admissible word lengths and residues mod 18"):
        sub.add_argument("--r-max", type=int, required=True)
        sub.add_argument("--family", choices=("x2yk", "xneg2yk", "both"), default="both")
        _add_format(sub, "text")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        code, records, text_of = _COMMANDS[args.command](args)
        return 1 if _emit(records, args.format, text_of) else code
    except arith.CongruenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        kind = "syntax error: " if isinstance(exc, words.WordSyntaxError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
