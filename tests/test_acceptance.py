"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s to see them; -v shows the per-criterion outcome either way)."""

import time
from fractions import Fraction

from wordmaps.arith import check_nonsurjectivity_conditions, scan_primes, length_residues
from wordmaps.gf import enumerate_image_pairs, make_field, sl2_group, trace_scan
from wordmaps.tracepoly import cyclotomic_certificate, factorization_certificate, swap_certificate, tau
from wordmaps.words import Shape, Word, family_word, parse_word
from util import oracle_proper_power, reduced_letter_tuples, standard_corpus, tau_sides

import random

from wordmaps.words import is_proper_power


def _report(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_swap_identity_desk_scale():
    tau.cache_clear()
    start = time.perf_counter()
    certificates = 0
    for k in range(-8, 9):
        for inner in (1, -1):
            assert swap_certificate(k, inner)[2], (k, inner)
            certificates += 1
    elapsed = time.perf_counter() - start
    assert certificates == 34
    assert elapsed < 10.0, f"swap verification took {elapsed:.1f}s"
    _report(1, f"34 swap certificates, all exact, {elapsed:.2f}s")


def test_criterion_2_factorization_and_cyclotomic():
    tau.cache_clear()
    start = time.perf_counter()
    for k in range(1, 9):
        for which in Shape:
            for inner in (1, -1):
                assert factorization_certificate(k, which, inner)[2], (k, which, inner)
    for k_pm in range(1, 9):
        assert cyclotomic_certificate(k_pm)[2], k_pm
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"factorization verification took {elapsed:.1f}s"
    _report(2, f"48 factorization checks + 8 root checks, all exact, {elapsed:.2f}s")


def test_criterion_3_tau_soundness_oracle():
    rng = random.Random(424242)
    corpus = standard_corpus()
    failures = 0
    checked = 0
    for p, n in ((5, 1), (7, 1), (3, 2), (13, 1)):
        field = make_field(p, n)
        group = sl2_group(field)
        polys = [(w, tau(w)) for w in corpus]
        for _ in range(200):
            sides = tau_sides(field, rng.choice(group), rng.choice(group))
            for w, poly in polys:
                checked += 1
                lhs, rhs = sides(w, poly)
                if lhs != rhs:
                    failures += 1
    assert failures == 0
    _report(3, f"{checked} trace evaluations over F_5, F_7, F_9, F_13: 0 failures")


def test_criterion_4_theorem_instance_p3_pairs():
    report = check_nonsurjectivity_conditions(3, 1, 2, Shape.X2_YK)
    assert report.verdict is True
    field = make_field(3, 1)
    start = time.perf_counter()
    for inner in (1, -1):
        image = enumerate_image_pairs(family_word(Shape.X2_YK, inner, 2), field)
        assert image.count == 576
        assert image.misses_involutions is True
        assert image.surjective is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"576-pair enumerations took {elapsed:.2f}s"
    _report(4, f"(p=3, n=1, k=2): conditions hold, x1^2 y_2 misses all involutions "
               f"of PSL2(F_3) and is not surjective, {elapsed:.2f}s")


def test_criterion_5_trace_scans_q13_and_control_q11():
    w = family_word(Shape.X2_YK, 1, 2)
    start = time.perf_counter()
    scan13 = trace_scan(w, make_field(13, 1))
    scan11 = trace_scan(w, make_field(11, 1))
    elapsed = time.perf_counter() - start
    assert scan13.count == 13**3 and scan13.misses_involutions is True
    assert scan11.count == 11**3 and scan11.misses_involutions is False
    assert elapsed < 5.0, f"scans took {elapsed:.2f}s"
    _report(5, f"q=13 scan misses 0; q=11 control attains 0; {elapsed:.2f}s combined")


def test_criterion_6_commutator_positive_control():
    start = time.perf_counter()
    report = enumerate_image_pairs(parse_word("[x1, x2]"), make_field(5, 1))
    assert report.count == 120 * 120
    assert report.surjective is True
    large = enumerate_image_pairs(parse_word("[x1, x2]"), make_field(19, 1))
    elapsed = time.perf_counter() - start
    assert large.count == (19 * (19 * 19 - 1)) ** 2
    assert large.surjective is True
    assert elapsed < 5.0, f"commutator verdicts took {elapsed:.2f}s"
    _report(6, f"commutator surjective on PSL2(F_5) and PSL2(F_19), x over the "
               f"GL2-class representatives, {elapsed:.2f}s")


def test_criterion_7_density_to_two_million():
    deviations = []
    for bound in (100_000, 500_000, 2_000_000):
        _, report = scan_primes(2, bound)
        dev = abs(report.empirical_density - report.dirichlet_density)
        deviations.append((bound, float(report.empirical_density), float(dev)))
    final = deviations[-1]
    assert final[2] <= 0.02, f"|empirical - 1/4| = {final[2]:.4f} at X = 2e6"
    _, report = scan_primes(2, 2_000_000)
    printed_dev = abs(report.empirical_density - report.printed_density)
    assert report.printed_density == Fraction(1, 5)
    assert report.dirichlet_density == Fraction(1, 4)
    trail = ", ".join(f"X={b:.0e}: emp={e:.4f} (|d|={d:.4f})" for b, e, d in deviations)
    _report(7, f"{trail}; deviation from the printed 1/5 is {float(printed_dev):.4f}")


def test_criterion_8_word_lengths_and_residues():
    start = time.perf_counter()
    for k in range(1, 51):
        for inner in (1, -1):
            assert len(family_word(Shape.X2_YK, inner, k)) == 6 * k + 2    # 3r-1, r=2k+1
            assert len(family_word(Shape.X2_YNEGK, inner, k)) == 6 * k + 2
            assert len(family_word(Shape.XNEG2_YK, inner, k)) == 6 * k - 2  # 3r-5
    union = set()
    for family in (Shape.X2_YK, Shape.XNEG2_YK):
        union |= length_residues(family, 1000)[1]
    assert union == {2, 4, 14, 16}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"length checks took {elapsed:.2f}s"
    _report(8, f"lengths 3r-1/3r-5 hold for k <= 50; residues mod 18 ="
               f" {sorted(union)}; {elapsed:.2f}s")


def test_criterion_9_proper_power_suite():
    start = time.perf_counter()
    count = 0
    powers = 0
    for tup in reduced_letter_tuples(12):
        w = Word(tup)
        flag, root, exp = is_proper_power(w)
        oflag, oroot, oexp = oracle_proper_power(w)
        assert flag == oflag, tup
        if flag:
            assert (root, exp) == (oroot, oexp), tup
            assert root ** exp == w and exp >= 2 and len(root) >= 1
            powers += 1
        count += 1
    assert count == 2 * (3**12 - 1)  # every reduced word of length <= 12
    # family words with k_pm >= 1 are never proper powers
    for inner in (1, -1):
        for k in range(1, 9):
            assert is_proper_power(family_word(Shape.X2_YK, inner, k))[0] is False
        for k in range(2, 9):
            assert is_proper_power(family_word(Shape.XNEG2_YK, inner, k))[0] is False
            assert is_proper_power(family_word(Shape.X2_YNEGK, inner, k))[0] is False
    elapsed = time.perf_counter() - start
    _report(9, f"oracle agreement on {count} reduced words (length <= 12, "
               f"{powers} proper powers) and all family words primitive; {elapsed:.0f}s")
