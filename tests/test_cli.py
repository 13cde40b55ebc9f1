import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wordmaps
from wordmaps import arith, tracepoly
from wordmaps.cli import build_parser, main

MINUS = "−"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# -- trace --

def test_trace_x1_squared(capsys):
    code, out, _ = run(capsys, "trace", "x1^2")
    assert code == 0
    assert out.strip() == f"s^2 {MINUS} 2"


def test_trace_product(capsys):
    code, out, _ = run(capsys, "trace", "x1 x2")
    assert code == 0
    assert out.strip() == "u"


def test_trace_json_format(capsys):
    code, out, _ = run(capsys, "trace", "[x1,x2]", "--format", "json")
    assert code == 0
    (record,) = json_lines(out)
    assert record["word"] == "x1^-1 x2^-1 x1 x2"
    assert "s^2" in record["trace_polynomial"]


def test_trace_syntax_error_exit_2_with_position(capsys):
    code, _, err = run(capsys, "trace", "x1 x9")
    assert code == 2
    assert "position 3" in err


def test_trace_deep_nesting(capsys):
    # 5,000 groups parse: the parser keeps open groups on a list, not the call stack
    code, out, _ = run(capsys, "trace", "(" * 5000 + "x1" + ")" * 5000)
    assert (code, out) == (0, "s\n")
    code, out, err = run(capsys, "trace", "(" * 5000 + "x1" + ")" * 4999)
    assert (code, out, err) == (2, "", "error: syntax error: unexpected end of input (position 10001)\n")


def test_trace_superscript_exponent_digit_is_syntax_error(capsys):
    # exponents are ASCII digits; int() would read "2\u00b2" as a bare ValueError
    code, _, err = run(capsys, "trace", "x1^2\u00b2")
    assert (code, err) == (2, "error: syntax error: unexpected character '\u00b2' (position 4)\n")


def test_trace_exponent_past_int_digit_limit_is_syntax_error(capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits (4,300 by default)
    code, out, err = run(capsys, "trace", "x1^" + "1" * 5000)
    assert (code, out, err) == (2, "", "error: syntax error: too many digits in exponent (position 3)\n")


def test_trace_word_past_size_cap_is_syntax_error(capsys):
    # nested powers ask for about 10^8 letters; the parser refuses the last
    # exponent before building them
    start = time.perf_counter()
    code, out, err = run(capsys, "trace", "(((x1^99)^99)^99)^99")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == "error: syntax error: word longer than 1000000 letters before reduction (position 18)\n"


# -- verify --

def test_verify_swap_emits_34_true_certificates(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "swap", "--k-min", "-8", "--k-max", "8")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 34
    assert all(r["verdict"] for r in records)
    assert {r["variant"] for r in records} == {"plus", "minus"}


def test_verify_factorization_range(capsys):
    code, out, _ = run(
        capsys, "verify", "--lemma", "factorization", "--k-min", "1", "--k-max", "3"
    )
    assert code == 0
    records = json_lines(out)
    assert len(records) == 3 * 3 * 2
    assert all(r["verdict"] for r in records)
    assert {r["shape"] for r in records} == {"x2yk", "xneg2yk", "x2ynegk"}


def test_verify_cyclotomic(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "cyclotomic", "--k-min", "1", "--k-max", "4")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 4
    assert records[0]["lhs"] == f"T {MINUS} 1"
    assert records[1]["lhs"] == f"T^2 {MINUS} T {MINUS} 1"


def test_verify_empty_range_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--lemma", "swap", "--k-min", "3", "--k-max", "1")
    assert code == 2
    assert out == ""
    assert err == "error: empty k range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--lemma", "cyclotomic", "--k-min", "166667", "--k-max", "166667"),
        ("verify", "--lemma", "factorization", "--k-min", "1", "--k-max", "1000000"),
        ("verify", "--lemma", "swap", "--k-min", "166667", "--k-max", "166667"),
        ("verify", "--lemma", "swap", "--k-min", "-166666", "--k-max", "0"),
    ],
    ids=["cyclotomic", "factorization", "swap", "swap-left-side"],
)
def test_verify_refuses_its_k_range_before_any_certificate(capsys, monkeypatch, argv):
    # both ends of the range are checked against the family-index cap, and
    # for swap also k_min - 1 (its left side is y_(k-1)); the factorization
    # range used to compute every certificate up to k = 166,666 first
    def refuse(*args):
        raise AssertionError("certificate computed past the cap")

    for name in ("cyclotomic_certificate", "swap_certificate", "factorization_certificate"):
        monkeypatch.setattr(tracepoly, name, refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: y_k for k = ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--lemma", "factorization", "--k-min", "0", "--k-max", "2"),
         "error: factorization requires k >= 1"),
        (("verify", "--lemma", "cyclotomic", "--k-min", "0", "--k-max", "2"),
         "error: cyclotomic requires k >= 1 (k is k_pm here)"),
    ],
    ids=["factorization-k0", "cyclotomic-k0"],
)
def test_usage_error_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message + "\n"


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--lemma", "swap", "--k-min", "0", "--k-max", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lemma,k,variant,verdict")
    assert len(lines) == 1 + 4


# -- conditions --

def test_conditions_exit_codes(capsys):
    code, out, _ = run(capsys, "conditions", "--p", "3", "--n", "1", "--k", "2", "--shape", "x2yk")
    assert code == 0
    (record,) = json_lines(out)
    assert record["verdict"] is True
    assert record["inertia_degrees"] == [2, 2]

    code, out, _ = run(capsys, "conditions", "--p", "7", "--n", "1", "--k", "2", "--shape", "x2yk")
    assert code == 1
    (record,) = json_lines(out)
    assert record["cond1"] is False

    code, out, _ = run(capsys, "conditions", "--p", "3", "--n", "2", "--k", "2", "--shape", "x2yk")
    assert code == 1
    (record,) = json_lines(out)
    assert record["cond2"] is False

    code, _, err = run(capsys, "conditions", "--p", "5", "--n", "1", "--k", "2", "--shape", "x2yk")
    assert code == 2
    assert "divides" in err


# -- image --

def test_image_pairs_family_q3(capsys):
    code, out, _ = run(
        capsys, "image", "--q", "3", "--family", "x2yk:+,k=2", "--method", "pairs"
    )
    assert code == 0
    (record,) = json_lines(out)
    assert record["misses_involutions"] is True
    assert record["surjective"] is False
    assert record["pairs_evaluated"] == 576
    assert record["modulus"] == [0, 1]


def test_image_scan_q13_and_negative_control_q11(capsys):
    code, out, _ = run(
        capsys, "image", "--q", "13", "--family", "x2yk:+,k=2", "--method", "scan"
    )
    assert code == 0
    (record,) = json_lines(out)
    assert record["misses_involutions"] is True
    assert record["surjective"] is None

    code, out, _ = run(
        capsys, "image", "--q", "11", "--family", "x2yk:+,k=2", "--method", "scan"
    )
    # conditions fail at q=11 so there is no prediction to contradict
    assert code == 0
    (record,) = json_lines(out)
    assert record["misses_involutions"] is False


def test_image_commutator_surjective(capsys):
    code, out, _ = run(capsys, "image", "--q", "5", "--word", "[x1,x2]", "--method", "pairs")
    assert code == 0
    (record,) = json_lines(out)
    assert record["surjective"] is True


def run_refused(capsys, *argv):
    # argparse refuses an unknown option: SystemExit(2) out of main, no record
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err


def test_image_p_n_flags(capsys):
    # image names its field by --q alone: --p/--n do not stand in for it
    err = run_refused(capsys, "image", "--p", "3", "--n", "2", "--word", "x1", "--method", "scan")
    assert "the following arguments are required: --q" in err


@pytest.mark.parametrize("extra", [("--p", "5", "--n", "1"), ("--p", "3"), ("--n", "2")])
def test_image_q_with_p_or_n_is_usage_error(capsys, extra):
    err = run_refused(capsys, "image", "--q", "9", *extra, "--word", "x1", "--method", "scan")
    assert "unrecognized arguments: " + " ".join(extra) in err


def test_image_budget_exceeded_suggests_scan(capsys):
    code, _, err = run(
        capsys, "image", "--q", "27", "--family", "x2yk:+,k=2", "--method", "pairs"
    )
    assert code == 2
    assert "trace_scan" in err


@pytest.mark.parametrize("method", ["scan", "pairs"])
@pytest.mark.parametrize("field", [("--q", "2305843009213693951")], ids=["q"])
def test_image_budget_checked_before_field_is_built(capsys, field, method):
    # factoring this q by trial division takes far longer than a second;
    # the budget check needs q alone
    start = time.perf_counter()
    code, _, err = run(capsys, "image", *field, "--word", "x1", "--method", method)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "budget" in err


def test_image_budget_message_counts_covered_cases(capsys):
    # the budget counts the pairs or triples a verdict covers; the pairs
    # loop itself makes (q + 2)·|SL2| = 25·12,144 evaluations at q = 23
    code, out, err = run(capsys, "image", "--q", "23", "--word", "[x1,x2]", "--method", "pairs")
    assert (code, out) == (2, "")
    assert err == ("error: pair enumeration covers 147476736 pairs, over the budget "
                   "100000000; use trace_scan instead\n")
    code, out, err = run(capsys, "image", "--q", "467", "--word", "x1", "--method", "scan")
    assert (code, out) == (2, "")
    assert err == "error: trace scan covers 101847563 triples, over the budget 100000000\n"


@pytest.mark.parametrize("method", ["pairs", "scan"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_image_budget_below_one_is_refused(capsys, budget, method):
    # a budget below 1 covers nothing: its own message, not an over-budget count
    code, out, err = run(capsys, "image", "--q", "3", "--word", "x1", "--method", method, "--budget", budget)
    assert (code, out, err) == (2, "", f"error: budget must be >= 1, got {budget}\n")


def test_image_budget_env_override(capsys):
    code, _, err = run(capsys, "image", "--q", "3", "--word", "x1", "--method", "pairs", "--budget", "10")
    assert code == 2
    code, _, _ = run(capsys, "image", "--q", "3", "--word", "x1", "--method", "pairs", "--budget", "1000000")
    assert code == 0


def test_image_bad_family_syntax(capsys):
    code, out, err = run(capsys, "image", "--q", "3", "--family", "zk:2", "--method", "scan")
    assert code == 2
    assert out == ""
    assert err == "error: bad family 'zk:2'; expected e.g. 'x2yk:+,k=2' (see --help)\n"


@pytest.mark.parametrize("k", ["\u0663", "1" * 5000], ids=["non-ascii-digit", "past-int-digit-limit"])
def test_image_bad_family_index(capsys, k):
    family = f"x2yk:+,k={k}"
    code, out, err = run(capsys, "image", "--q", "3", "--family", family, "--method", "pairs")
    assert (code, out) == (2, "")
    assert err == f"error: bad family {family!r}; expected e.g. 'x2yk:+,k=2' (see --help)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("image", "--q", "3", "--family", "x2yk:+,k=100000000", "--method", "pairs"),
        ("verify", "--lemma", "swap", "--k-min", "200000", "--k-max", "200000"),
    ],
    ids=["image-family", "verify-swap"],
)
def test_family_index_past_size_cap(capsys, argv):
    # y_k has 6|k| letters: past MAX_WORD_LETTERS it is refused unbuilt
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "over the cap of 1000000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("conditions", "--p", "3", "--n", "1", "--k", "166667"),
        ("conditions", "--p", "5", "--n", "1", "--k", "1000000"),
        ("conditions", "--p", "5", "--n", "1", "--k", "1" + "0" * 30),
        ("lengths", "--r-max", "333335"),
        ("lengths", "--r-max", "4000000"),
        ("lengths", "--r-max", "1" + "0" * 30),
    ],
    ids=["conditions-k-cap", "conditions-k-1e6", "conditions-k-1e30",
         "lengths-r-cap", "lengths-r-4e6", "lengths-r-1e30"],
)
def test_per_index_outputs_past_family_index_cap(capsys, argv):
    # conditions lists k_pm inertia degrees and lengths one length per k:
    # past the family-index cap (k <= 166,666) both exit 2 before that work
    # (p = 3 and 5 are unramified here: 2k+1 is prime to them)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "over the cap of 1000000" in err


def test_image_bad_q(capsys):
    code, _, err = run(capsys, "image", "--q", "8", "--word", "x1", "--method", "scan")
    assert code == 2


# -- scan / density / lengths --

def test_scan_text_output(capsys):
    code, out, _ = run(capsys, "scan", "--kpm", "2", "--p-max", "100")
    assert code == 0
    assert out.strip() == "3 13 37 43 53 67 83"


def test_scan_congruence_violation_exit_1(capsys):
    code, _, err = run(capsys, "scan", "--kpm", "4", "--p-max", "100")
    assert code == 1
    assert "rational" in err


def test_density_json(capsys):
    code, out, _ = run(capsys, "density", "--kpm", "2", "--x", "10000")
    assert code == 0
    (record,) = json_lines(out)
    assert record["printed_density"] == "1/5"
    assert record["dirichlet_density"] == "1/4"
    assert record["total_prime_count"] == 1229


def test_density_cost_is_per_divisor_not_per_index(capsys):
    # one verdict per residue class costs one modular power per prime factor
    # of 2*k_pm+1 = 40001, not one step per index: 16 s when it was per index
    start = time.perf_counter()
    code, out, _ = run(capsys, "density", "--kpm", "20000", "--x", "20000")
    assert time.perf_counter() - start < 4.0
    assert code == 0
    assert json_lines(out)[0]["total_prime_count"] == 2262


def test_density_scan_reproves_no_prime(capsys):
    # most of the 78,497 odd primes meet a residue class mod 8*40001 of
    # their own; the scan builds those reports unchecked instead of running
    # a primality test twice per class (2.2 s when it did)
    start = time.perf_counter()
    code, out, _ = run(capsys, "density", "--kpm", "20000", "--x", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json_lines(out)[0]["total_prime_count"] == 78498


@pytest.mark.parametrize(
    "argv, named",
    [
        (("scan", "--kpm", "2", "--p-max", "100000001"), "100000001"),
        (("density", "--kpm", "2", "--x", "100000001"), "100000001"),
        (("scan", "--kpm", "2", "--p-max", "1" + "0" * 30), "1" + "0" * 30),
        (("scan", "--kpm", "170775035864160", "--p-max", "100"), "k_pm=170775035864160 "),
        (("density", "--kpm", "2" + "0" * 30, "--x", "100"), "k_pm=2" + "0" * 30 + " "),
    ],
    ids=["scan-p-max", "density-x", "scan-p-max-1e30", "scan-kpm-at-bound", "density-kpm-2e30"],
)
def test_scan_inputs_past_their_bounds(capsys, monkeypatch, argv, named):
    # p_max past 10^8 is refused before the sieve allocates, and 2K+1 from
    # 341550071728321 on (K = 170775035864160 is 0 mod 3) before trial division
    def refuse(*args):
        raise AssertionError("sieve allocated past a bound")

    monkeypatch.setattr(arith, "_odd_sieve", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert named in err  # the refused input, as the caller gave it


def test_scan_cost_is_one_factorization(capsys):
    # 2*k_pm+1 is factored once by trial division, then each prime factor
    # strikes its classes from the sieve; a search for each inertia degree
    # took minutes here.  Each output is checked against the
    # criterion p ≡ 3, 5 (mod 8) and p mod l not in {0, 1, l-1} for every
    # prime l dividing 2*k_pm+1.
    composite, prime = 2_000_000_000_005, 2_000_000_000_003
    assert math.prod((5, 7, 19**3, 41, 317, 641)) == composite
    assert all(prime % d for d in range(2, math.isqrt(prime) + 1))
    outputs = {}
    for m, factors, p_max in ((composite, (5, 7, 19, 41, 317, 641), 100), (prime, (prime,), 2000)):
        start = time.perf_counter()
        code, out, _ = run(capsys, "scan", "--kpm", str((m - 1) // 2), "--p-max", str(p_max))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        expected = [
            p for p in range(3, p_max + 1)
            if all(p % d for d in range(2, p)) and p % 8 in (3, 5)
            and all(p % ell not in (0, 1, ell - 1) for ell in factors)
        ]
        assert out.split() == [str(p) for p in expected], m
        outputs[m] = out.strip()
    assert outputs[composite] == "3 53 67"


def test_lengths_text(capsys):
    code, out, _ = run(capsys, "lengths", "--r-max", "200")
    assert code == 0
    assert "union: residues mod 18 = [2, 4, 14, 16]" in out


def test_lengths_json(capsys):
    code, out, _ = run(capsys, "lengths", "--r-max", "100", "--format", "json")
    assert code == 0
    records = json_lines(out)
    assert records[0]["family"] == "x2yk"
    assert records[0]["residues_mod_18"] == [2, 14]
    assert records[-1]["family"] == "union"


# -- the option surface --

# Every option string of the program and of each subcommand, in declaration
# order: a new knob, or a second spelling of an existing one, is an edit here.
OPTIONS = {
    "wordmaps": ["-h", "--help"],
    "trace": ["-h", "--help", "--format"],
    "verify": ["-h", "--help", "--lemma", "--k-min", "--k-max", "--variant", "--shape", "--format"],
    "conditions": ["-h", "--help", "--p", "--n", "--k", "--shape", "--format"],
    "image": ["-h", "--help", "--q", "--word", "--family", "--method", "--budget", "--format"],
    "scan": ["-h", "--help", "--kpm", "--p-max", "--format"],
    "density": ["-h", "--help", "--kpm", "--x", "--format"],
    "lengths": ["-h", "--help", "--r-max", "--family", "--format"],
}


def test_option_strings_are_pinned():
    def option_strings(parser):
        return [s for action in parser._actions for s in action.option_strings]

    parser = build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {"wordmaps": option_strings(parser)}
    found.update((name, option_strings(sub)) for name, sub in subs.choices.items())
    assert found == OPTIONS


# -- the parser of one subcommand --

def subcommands(parser):
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def test_one_subcommand_parser_prints_the_full_parsers_help():
    full = subcommands(build_parser())
    assert list(full) == list(OPTIONS)[1:]
    for name, sub in full.items():
        only = subcommands(build_parser(name))
        assert list(only) == [name]
        assert only[name].format_help() == sub.format_help()
        assert only[name].format_usage() == sub.format_usage()


def refusal(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_image_requires_q(capsys):
    # argparse refuses a missing field: SystemExit(2) out of main
    code, out, err = refusal(capsys, main, ("image", "--word", "x1", "--method", "scan"))
    assert (code, out) == (2, "")
    assert err.endswith("wordmaps image: error: the following arguments are required: --q\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("image", "--q", "3"),
        ("verify",),
        ("image", "--q", "x", "--word", "x1", "--method", "scan"),
        ("image", "--q", "3", "--word", "x1", "--family", "x2yk:+,k=2", "--method", "scan"),
        ("scan", "--kpm", "2", "--p-max", "100", "--format", "xml"),
        ("scan", "--kpm", "2", "--p-max", "100", "--bogus"),
        ("trace", "x1", "x2"),
        ("bogus",),
        ("-h",),
        ("image", "-h"),
    ],
    ids=" ".join,
)
def test_refusals_and_help_print_the_full_parsers_bytes(capsys, argv):
    # argparse raises SystemExit here, and the goldens record only stdout
    # and a returned code; an unrecognized argument after a subcommand is
    # refused by the top-level parser, whose usage names all seven
    assert refusal(capsys, main, argv) == refusal(capsys, build_parser().parse_args, argv)


@pytest.mark.parametrize(
    "argv, built",
    [
        (("scan", "--kpm", "2", "--p-max", "100"), ["scan"]),
        (("-h",), list(OPTIONS)[1:]),
    ],
    ids=["scan", "help"],
)
def test_a_request_builds_only_its_subcommands_parser(capsys, monkeypatch, argv, built):
    add_parser = argparse._SubParsersAction.add_parser
    calls = []

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    monkeypatch.setattr(sys, "argv", ["wordmaps", *argv])
    for args in (list(argv), None):  # None: main reads sys.argv
        calls.clear()
        try:
            assert main(args) == 0
        except SystemExit as exc:
            assert exc.code == 0
        assert calls == built
    capsys.readouterr()


def test_seed_corpus_is_no_option(capsys):
    # the seeded word corpus is test data, in tests/util.py
    err = run_refused(capsys, "--seed-corpus")
    assert "unrecognized arguments: --seed-corpus" in err


# -- closed pipes --

def test_closed_pipe_keeps_exit_code_without_traceback():
    # about 1 MB of certificates, far beyond a 64 KB pipe buffer; the
    # reader leaves after 100 bytes
    env = dict(os.environ, PYTHONPATH=str(Path(wordmaps.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wordmaps", "verify", "--lemma", "factorization",
         "--k-min", "1", "--k-max", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_closed_pipe_in_process(monkeypatch):
    # the flush in main meets the closed pipe: BrokenPipeError, caught there
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["scan", "--kpm", "2", "--p-max", "100"]) == 0
    finally:
        stdout.close()  # flushes into devnull, which now holds the descriptor


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_subcommands_are_deterministic(capsys):
    outs = []
    for _ in range(2):
        _, out1, _ = run(capsys, "scan", "--kpm", "2", "--p-max", "500")
        _, out2, _ = run(capsys, "trace", "x1^2 [x1^-2, x2^-1]")
        _, out3, _ = run(
            capsys, "image", "--q", "3", "--family", "xneg2yk:-,k=2", "--method", "pairs"
        )
        outs.append((out1, out2, out3))
    assert outs[0] == outs[1]
