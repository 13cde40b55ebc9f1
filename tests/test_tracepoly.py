import gc
import random
import tracemalloc

import pytest

import math
from fractions import Fraction

from wordmaps import cli, tracepoly
from wordmaps.tracepoly import (
    S,
    T,
    TracePolynomial,
    U,
    alternating_dickson_sum,
    cyclotomic_certificate,
    dickson,
    factorization_certificate,
    factorization_sum_form,
    render_poly,
    swap_certificate,
    tau,
)
from wordmaps.words import (
    Shape,
    Word,
    family_word,
    parse_word,
    trace_equivalent,
    y1,
    yk,
)
from util import (
    eval_word_int,
    mat_mul,
    mat_trace,
    oracle_tau,
    random_int_sl2,
    random_reduced_word,
    reduced_letter_tuples,
)

MINUS = "−"


# -- the rewriting rule Y*X = t*X + s*Y - (s*t - u)*1 - X*Y must hold for
#    actual determinant-1 matrices; validated numerically before anything
#    else relies on tau.

def test_yx_rewriting_rule_numeric(rng):
    for _ in range(100):
        x, y = random_int_sl2(rng), random_int_sl2(rng)
        s, t = mat_trace(x), mat_trace(y)
        xy = mat_mul(x, y)
        u = mat_trace(xy)
        yx = mat_mul(y, x)
        for i in range(2):
            for j in range(2):
                ident = 1 if i == j else 0
                assert yx[i][j] == t * x[i][j] + s * y[i][j] - (s * t - u) * ident - xy[i][j]


# -- tau basics --

def test_tau_empty_word():
    assert tau(Word()) == TracePolynomial.constant(2)


def test_tau_generators():
    assert tau(Word((1,))) == S
    assert tau(parse_word("x1 x2")) == U


def test_tau_x1_squared():
    assert tau(parse_word("x1^2")) == S * S - 2


def test_tau_commutator_classic_identity():
    assert tau(parse_word("[x1, x2]")) == S * S + T * T + U * U - S * T * U - 2


def test_tau_commutator_against_integer_matrices(rng):
    w = parse_word("[x1, x2]")
    poly = tau(w)
    for _ in range(100):
        x, y = random_int_sl2(rng), random_int_sl2(rng)
        s, t, u = mat_trace(x), mat_trace(y), mat_trace(mat_mul(x, y))
        assert poly.evaluate(s, t, u) == mat_trace(eval_word_int(w, x, y))


def test_tau_matches_integer_matrices_on_corpus(corpus, rng):
    for w in corpus:
        poly = tau(w)
        for _ in range(10):
            x, y = random_int_sl2(rng), random_int_sl2(rng)
            s, t, u = mat_trace(x), mat_trace(y), mat_trace(mat_mul(x, y))
            assert poly.evaluate(s, t, u) == mat_trace(eval_word_int(w, x, y)), str(w)


def test_tau_soundness_over_finite_fields(corpus):
    # keystone cross-check: 200 random determinant-1 pairs per field,
    # q in {5, 7, 13, 27}, against every corpus word
    from wordmaps.gf import make_field, sl2_group
    from util import tau_sides

    rng = random.Random(31337)
    for p, n in ((5, 1), (7, 1), (13, 1), (3, 3)):
        field = make_field(p, n)
        group = sl2_group(field)
        polys = [(w, tau(w)) for w in corpus]
        for _ in range(200):
            sides = tau_sides(field, rng.choice(group), rng.choice(group))
            for w, poly in polys:
                lhs, rhs = sides(w, poly)
                assert lhs == rhs, ((p, n), str(w))


def test_tau_inverse_invariance(corpus):
    for w in corpus:
        assert tau(~w) == tau(w)


def test_tau_conjugation_invariance(corpus, rng):
    for _ in range(40):
        w = rng.choice(corpus)
        v = rng.choice(corpus)
        assert tau(v * w * ~v) == tau(w)


def test_tau_trace_identity(corpus, rng):
    for _ in range(40):
        w1 = rng.choice(corpus)
        w2 = rng.choice(corpus)
        assert tau(w1 * w2) + tau(w1 * ~w2) == tau(w1) * tau(w2)


# -- the packed walk against the TracePolynomial walk of tests/util.py --

def _oracle_words(kind: str, corpus) -> list[Word]:
    if kind == "corpus":
        return [Word(), *corpus]
    if kind == "families":
        return [family_word(shape, sign, k) for shape in Shape for sign in (1, -1) for k in range(1, 13)]
    if kind == "random":
        rng = random.Random(20261018)
        return [random_reduced_word(rng, 40) for _ in range(300)]
    # n = 2^b - 1 and 2^b + 1 reach s^n, t^n or u^n at the edge of the
    # packing width, so a width one bit too narrow carries between fields
    bases = ((1,), (2,), (1, 2), (-1,), (-2,), (-2, -1))
    return [Word(base * n) for b in range(3, 8) for n in range(2**b - 2, 2**b + 2) for base in bases]


@pytest.mark.parametrize("kind", ["corpus", "families", "random", "powers"])
def test_tau_matches_oracle_walk(kind, corpus):
    for w in _oracle_words(kind, corpus):
        assert tau(w) == oracle_tau(w), str(w)


def test_derived_inverse_rules_undo_their_letter():
    # word reduction cancels x*x^-1 before tau walks it, so step each unit
    # coordinate by a letter and then by its inverse through the rule table
    rules = tracepoly._packed_rules(4)
    for letter in (1, -1, 2, -2):
        for j in range(4):
            unit = [{0: 1} if i == j else {} for i in range(4)]
            there = tracepoly._step(unit, rules[letter])
            assert there != unit
            assert tracepoly._step(there, rules[-letter]) == unit, (letter, j)


# -- dickson recurrence --

def test_dickson_base_cases():
    assert dickson(0) == 2
    assert dickson(1) == S


def test_dickson_one_step():
    assert dickson(2) == S * S - 2


def test_dickson_three():
    assert dickson(3) == S**3 - 3 * S
    for inner in (1, -1):
        assert dickson(3).evaluate(tau(y1(inner)), T, U) == tau(yk(inner, 3))


def test_dickson_is_tau_of_x1_power():
    for i in range(17):
        assert dickson(i) == tau(Word((1,) * i)), i


def test_dickson_substitution_consistency():
    for inner in (1, -1):
        base = tau(y1(inner))
        for i in range(7):
            assert dickson(i).evaluate(base, T, U) == tau(yk(inner, i))


def test_dickson_rejects_negative():
    with pytest.raises(ValueError):
        dickson(-1)


def test_dickson_large_index_without_recursion():
    # far past the interpreter's recursion limit, with no smaller index
    # computed first; D_i(x + 1/x) = x^i + x^-i at x = 2
    i = 1500
    d = dickson(i)
    assert max(a for a, _, _ in d.terms) == i and d.terms[(i, 0, 0)] == 1
    assert d.evaluate(Fraction(5, 2), 0, 0) == 2**i + Fraction(1, 2**i)
    assert d.evaluate(-2, 0, 0) == 2


# -- swap identity --

def test_swap_k1_both_sides_equal_s2_minus_2():
    for inner in (1, -1):
        assert tau(parse_word("x1^-2") * yk(inner, 1)) == S * S - 2
    assert swap_certificate(1, 1)[2] and swap_certificate(1, -1)[2]


def test_swap_k0():
    assert swap_certificate(0, 1)[2] and swap_certificate(0, -1)[2]


def test_swap_negative_k():
    assert swap_certificate(-3, 1)[2] and swap_certificate(-3, -1)[2]


def test_swap_full_range():
    for k in range(-8, 9):
        for inner in (1, -1):
            lhs, rhs, verdict = swap_certificate(k, inner)
            assert verdict and lhs == rhs, (k, inner)


# -- factorization --

def test_sum_form_k1_x2yk():
    for inner in (1, -1):
        expected = (S * S - 2) * (tau(y1(inner)) - 1)
        assert factorization_sum_form(1, Shape.X2_YK, inner) == expected


def test_sum_form_k1_xneg2yk_empty_bracket():
    for inner in (1, -1):
        assert factorization_sum_form(1, Shape.XNEG2_YK, inner) == S * S - 2


def test_sum_form_k2_x2yk():
    for inner in (1, -1):
        expected = (S * S - 2) * (tau(yk(inner, 2)) - tau(y1(inner)) + 1)
        assert factorization_sum_form(2, Shape.X2_YK, inner) == expected


def test_verify_factorization_small_range():
    for k in range(1, 13):
        for which in Shape:
            for inner in (1, -1):
                lhs, rhs, verdict = factorization_certificate(k, which, inner)
                assert verdict and lhs == rhs, (k, which, inner)


def test_certificates_leave_no_cache_behind():
    # the 72 certificates for k <= 12 walk 74 distinct words; a request reads
    # none of them again but tau(y1(+-1)), so the cache keeps only the last
    # few: about 0.9 MB stays held, where a cache of all 74 holds 3.3 MB
    tau.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(1, 13):
            for which in Shape:
                for inner in (1, -1):
                    factorization_certificate(k, which, inner)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tau.cache_info().hits == 70
    assert held < 2_000_000, held


def test_tau_cache_covers_a_request(capsys):
    # 18 certificates; every one after the first for each sign finds tau(y1)
    tau.cache_clear()
    assert cli.main(["verify", "--lemma", "factorization", "--k-min", "1", "--k-max", "3"]) == 0
    capsys.readouterr()
    info = tau.cache_info()
    assert (info.hits, info.misses) == (16, 20)
    assert info.currsize <= info.maxsize


# -- the second factorization clause as a free-group identity, checked
#    against the two polynomial walks it replaces --

_X1SQ, _X1NEGSQ = Word((1, 1)), Word((-1, -1))


def test_second_clause_walks_agree_with_word_identity():
    for k in range(-12, 13):
        for inner in (1, -1):
            a, b = _X1SQ * yk(inner, -k), _X1NEGSQ * yk(inner, k)
            assert tau(a) == tau(b), (k, inner)
            assert trace_equivalent(a, b), (k, inner)


def test_trace_equivalent_on_rotations_and_inverses():
    for letters in reduced_letter_tuples(6):
        w = Word(letters)
        rotations = [Word(letters[i:] + letters[:i]) for i in range(len(letters))]
        for v in rotations + [~r for r in rotations]:
            assert trace_equivalent(w, v) and trace_equivalent(v, w), (w, v)
            assert tau(v) == tau(w), (w, v)


def test_trace_equivalent_rejects():
    for k in range(1, 13):
        for inner in (1, -1):
            a, b = _X1SQ * yk(inner, k), _X1NEGSQ * yk(inner, k)
            assert not trace_equivalent(a, b), (k, inner)
            assert tau(a) != tau(b), (k, inner)
    # the swap pair has equal traces, yet neither word is conjugate to the
    # other or to its inverse
    for inner in (1, -1):
        a, b = _X1SQ * y1(inner), _X1NEGSQ * yk(inner, 2)
        assert tau(a) == tau(b), inner
        assert not trace_equivalent(a, b) and not trace_equivalent(b, a), inner


def test_perturbed_sum_is_detected():
    # dropping one term from the bracket must break the equality
    k, which, inner = 2, Shape.X2_YK, 1
    good = factorization_sum_form(k, which, inner)
    perturbed = good - (S * S - 2) * tau(y1(inner))
    w = parse_word("x1^2") * yk(inner, 2)
    assert tau(w) == good
    assert tau(w) != perturbed


# -- the cyclotomic root check --

def test_alternating_sum_k1():
    assert alternating_dickson_sum(1) == S - 1


def test_alternating_sum_k2():
    assert alternating_dickson_sum(2) == S * S - S - 1


def test_root_check_k1():
    # -(zeta_3 + zeta_3^-1) = 1 is a root of T - 1
    assert alternating_dickson_sum(1).evaluate(1, 0, 0) == 0
    assert cyclotomic_certificate(1)[2]


def test_root_check_k2_exact_arithmetic():
    # x^2 A_2(x + 1/x) = (x^2 + 1)^2 - (x^2 + 1) x - x^2 = x^4 - x^3 + x^2 - x + 1
    x = S
    lhs = sum(c * (x * x + 1) ** j * x ** (2 - j) for (j, _, _), c in alternating_dickson_sum(2).terms.items())
    assert lhs == x**4 - x**3 + x**2 - x + 1
    assert cyclotomic_certificate(2)[2]


def test_root_check_range():
    for k_pm in range(1, 31):
        assert cyclotomic_certificate(k_pm)[2], k_pm


def test_root_check_float_oracle():
    # independent of the Z[x] identity: A_k vanishes at -2cos(2 pi j/(2k+1))
    for k in range(1, 13):
        poly = alternating_dickson_sum(k)
        for j in range(1, k + 1):
            root = -2 * math.cos(2 * math.pi * j / (2 * k + 1))
            assert abs(poly.evaluate(root, 0.0, 0.0)) < 1e-6, (k, j)


def test_cyclotomic_certificate_text_and_verdict():
    lhs, rhs, verdict = cyclotomic_certificate(2)
    assert lhs == f"T^2 {MINUS} T {MINUS} 1"
    assert rhs == "0 in Z[x]/Phi_d(x) at T = -(x + x^(d-1)), d | 5, d > 1"
    assert verdict
    with pytest.raises(ValueError):
        cyclotomic_certificate(0)


def test_cyclotomic_certificate_builds_the_sum_once(monkeypatch, capsys):
    from wordmaps.cli import main

    original = tracepoly.alternating_dickson_sum
    calls = []
    monkeypatch.setattr(
        tracepoly, "alternating_dickson_sum", lambda n: calls.append(n) or original(n)
    )
    assert main(["verify", "--lemma", "cyclotomic", "--k-min", "1", "--k-max", "6"]) == 0
    capsys.readouterr()
    assert calls == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize(
    "perturb",
    [
        lambda a, k: a + 1,
        lambda a, k: a + S**k,
        lambda a, k: a + S ** (k + 1),
        lambda a, k: a - S ** (k - 1),
    ],
    ids=["A+1", "A+S^k", "A+S^(k+1)", "A-S^(k-1)"],
)
def test_root_check_rejects_perturbed_sum(monkeypatch, perturb):
    original = tracepoly.alternating_dickson_sum
    monkeypatch.setattr(
        tracepoly, "alternating_dickson_sum", lambda n: perturb(original(n), n)
    )
    for k in range(1, 6):
        assert not cyclotomic_certificate(k)[2], k


def test_root_check_detects_wrong_polynomial(monkeypatch):
    # T + 1 is monic of degree 1 but does not vanish at -(zeta_3+zeta_3^-1) = 1
    monkeypatch.setattr(tracepoly, "alternating_dickson_sum", lambda n: S + 1)
    assert not cyclotomic_certificate(1)[2]


@pytest.mark.parametrize("extra", [T, U, S * T], ids=["t", "u", "s*t"])
def test_root_check_rejects_terms_in_t_or_u(monkeypatch, extra):
    # the identity only reads the s-terms, so any other term must fail
    original = tracepoly.alternating_dickson_sum
    monkeypatch.setattr(
        tracepoly, "alternating_dickson_sum", lambda n: original(n) + extra
    )
    for k in range(1, 4):
        assert not cyclotomic_certificate(k)[2], k


# -- rendering --

def test_render_examples():
    assert render_poly(tau(parse_word("x1^2"))) == f"s^2 {MINUS} 2"
    poly = TracePolynomial({(2, 1, 0): 1, (0, 0, 1): -2, (0, 0, 0): 3})
    assert render_poly(poly) == f"s^2*t {MINUS} 2*u + 3"
    assert render_poly(TracePolynomial()) == "0"
    assert render_poly(TracePolynomial.constant(-1)) == f"{MINUS}1"


def test_render_graded_lex_descending():
    poly = S + T * T  # degree 2 term first
    assert render_poly(poly) == "t^2 + s"


def test_polynomial_arithmetic_exact():
    big = 10**40
    p1 = TracePolynomial({(1, 0, 0): big})
    assert (p1 * p1).terms == {(2, 0, 0): big * big}
    assert (p1 - p1).terms == {}
    assert (S + 1) * (S - 1) == S * S - 1
    assert S**5 == S * S * S * S * S


def test_no_zero_coefficients_stored(corpus):
    for w in corpus:
        assert all(c != 0 for c in tau(w).terms.values())
