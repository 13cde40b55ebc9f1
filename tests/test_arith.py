import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wordmaps import arith, cli, gf
from wordmaps.arith import (
    CongruenceError,
    ConditionReport,
    RamifiedPrimeError,
    check_nonsurjectivity_conditions,
    factorize,
    inertia_degree,
    is_prime,
    length_residues,
    necessary_congruence,
    odd_prime_power,
    primes_up_to,
    scan_primes,
)
from wordmaps.words import Shape, family_word
from util import LAWS, divisors_above_one, multiplicative_order, oracle_inertia_degrees


# -- primality --

def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_is_prime_matches_trial_division():
    for n in range(-2, 2000):
        assert is_prime(n) == _is_prime_trial(n), n


def test_is_prime_catches_strong_pseudoprimes():
    assert not is_prime(341)         # base-2 Fermat pseudoprime
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(2**31 - 1)       # Mersenne prime
    assert is_prime(1_000_000_007)
    assert is_prime(999_999_999_877)
    assert not is_prime(1_000_036_000_099)  # 1000003 * 1000033: no factor below 10^6


def test_is_prime_bound():
    for big in (arith.FACTOR_BOUND, 10**15 + 37):
        with pytest.raises(ValueError, match="trial-division bound"):
            is_prime(big)


def test_is_prime_cost_at_the_bound():
    # the largest prime below the bound is the dearest input: about 9*10^6
    # trial divisions, 1 s on a 2-core host
    start = time.perf_counter()
    assert is_prime(341_550_071_728_289)
    assert time.perf_counter() - start < 10.0


def test_primes_up_to_matches_trial_division():
    primes = []
    for limit in range(-1, 2001):
        if limit >= 2 and all(limit % p for p in primes if p * p <= limit):
            primes.append(limit)
        assert primes_up_to(limit) == primes, limit


def test_primes_up_to_matches_count():
    ps = primes_up_to(10_000)
    assert len(ps) == 1229
    assert ps[:5] == [2, 3, 5, 7, 11]
    assert ps[-1] == 9973


def test_factorize_matches_brute_force():
    # the pairs multiply back to n, with primes ascending and exponents >= 1
    for n in range(1, 20_001):
        pairs = factorize(n)
        assert math.prod(ell**e for ell, e in pairs) == n, n
        primes = [ell for ell, _ in pairs]
        assert primes == sorted(set(primes)), n
        assert all(_is_prime_trial(ell) and e >= 1 for ell, e in pairs), n
    for bad in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_bound():
    # FACTOR_BOUND caps trial division at about 9*10^6 steps
    for big in (arith.FACTOR_BOUND, arith.FACTOR_BOUND + 2, 10**30):
        with pytest.raises(ValueError, match="trial-division bound"):
            factorize(big)


def test_factorize_cache_is_bounded():
    # a request factors q, p and 2*k_pm+1, p more than once; the cache keeps
    # a few entries, not one per integer ever tested (is_prime over
    # range(10**6) would leave 999,998 of them and a 348 MB peak)
    bound = factorize.cache_info().maxsize
    assert bound is not None
    for n in range(10**6, 10**6 + 3 * bound):
        is_prime(n)
    assert factorize.cache_info().currsize <= bound


@pytest.mark.parametrize("argv", [
    ["conditions", "--p", "1000000007", "--n", "3", "--k", "12"],
    ["image", "--q", "11", "--family", "x2yk:+,k=2", "--method", "scan"],
], ids=["conditions", "image"])
def test_factorize_cache_covers_a_request(monkeypatch, capsys, argv):
    # within one request, every repeated factorization is a cache hit
    cached, calls = arith.factorize, []
    cached.cache_clear()
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or cached(n))
    cli.main(argv)
    assert cached.cache_info().misses == len(set(calls)) < len(calls)


def test_odd_prime_power():
    assert odd_prime_power(27) == (3, 3)
    assert odd_prime_power(13) == (13, 1)
    for bad in (1, 2, 8, 15, 100):
        with pytest.raises(ValueError):
            odd_prime_power(bad)


def test_odd_prime_power_matches_brute_force():
    # every p^n < 20,000 for an odd prime p found by trial division
    powers = {}
    for p in range(3, 20_000, 2):
        if _is_prime_trial(p):
            q, n = p, 1
            while q < 20_000:
                powers[q] = (p, n)
                q, n = q * p, n + 1
    for q in range(-1, 20_000, 2):
        if q in powers:
            assert odd_prime_power(q) == powers[q], q
        else:
            with pytest.raises(ValueError):
                odd_prime_power(q)


# -- inertia degrees --

def test_inertia_degree_examples():
    assert inertia_degree(3, 5, 1) == 2   # 3^2 = 9 = -1 mod 5
    assert inertia_degree(11, 5, 1) == 1  # 11 = 1 mod 5
    for p in (5, 7, 11, 13):
        assert inertia_degree(p, 9, 3) == 1  # d = 3: rational subfield


def test_inertia_degree_ramified():
    with pytest.raises(RamifiedPrimeError):
        inertia_degree(5, 5, 1)
    with pytest.raises(RamifiedPrimeError):
        inertia_degree(3, 9, 1)


def test_inertia_degree_validation():
    with pytest.raises(ValueError):
        inertia_degree(3, 4, 1)  # even m
    with pytest.raises(ValueError):
        inertia_degree(3, 5, 3)  # i out of range
    with pytest.raises(ValueError):
        inertia_degree(4, 5, 1)  # p not prime


def test_inertia_divides_order_and_is_order_or_half():
    for m in (5, 7, 9, 15, 21):
        for p in primes_up_to(50):
            for i in range(1, (m - 1) // 2 + 1):
                d = m // math.gcd(m, i)
                if d <= 2 or math.gcd(p, d) != 1:
                    continue
                f = inertia_degree(p, m, i)
                order = multiplicative_order(p, d)
                assert order % f == 0
                assert f in (order, order // 2) if order % 2 == 0 else f == order


# -- congruence bookkeeping --

def test_necessary_congruence():
    assert necessary_congruence(2) is True
    assert necessary_congruence(3) is True
    assert necessary_congruence(4) is False  # 2*4+1 = 9 divisible by 3
    assert necessary_congruence(1) is False
    assert necessary_congruence(7) is False


def test_congruence_failure_forces_inertia_one():
    for k_pm in (1, 4, 7):
        m = 2 * k_pm + 1
        i = m // 3
        for p in primes_up_to(60):
            if math.gcd(p, m) != 1:
                continue
            assert inertia_degree(p, m, i) == 1


def test_kpm():
    assert Shape.X2_YK.kpm(2) == 2
    assert Shape.XNEG2_YK.kpm(1) == 0
    assert Shape.XNEG2_YK.kpm(5) == 4
    assert Shape.X2_YNEGK.kpm(3) == 2


# -- condition reports --

def test_conditions_p3_verdict_true():
    report = check_nonsurjectivity_conditions(3, 1, 2, Shape.X2_YK)
    assert report.verdict is True
    assert report.inertia_degrees == (2, 2)
    assert report.k_pm == 2


def test_conditions_p7_cond1_false():
    report = check_nonsurjectivity_conditions(7, 1, 2, Shape.X2_YK)
    assert report.cond1 is False
    assert report.verdict is False


def test_conditions_p11_cond3_false():
    report = check_nonsurjectivity_conditions(11, 1, 2, Shape.X2_YK)
    assert report.cond3 is False
    assert report.inertia_degrees == (1, 1)


def test_conditions_even_n_cond2_false():
    report = check_nonsurjectivity_conditions(3, 2, 2, Shape.X2_YK)
    assert report.cond2 is False
    assert report.verdict is False


def test_conditions_ramified_and_degenerate():
    with pytest.raises(RamifiedPrimeError):
        check_nonsurjectivity_conditions(5, 1, 2, Shape.X2_YK)
    with pytest.raises(ValueError):
        check_nonsurjectivity_conditions(3, 1, 1, Shape.XNEG2_YK)  # k_pm = 0
    # the entry checks p, then n, then k_pm, then ramification
    for args, message in [
        ((2, 1, 2), "p must be an odd prime, got 2"),
        ((9, 0, 0), "p must be an odd prime, got 9"),
        ((3, 0, 0), "n must be >= 1, got 0"),
        ((3, 1, 0), "shape x2yk with k=0 has effective index 0 < 1"),
        ((3, 1, 4), "p=3 divides 2*k_pm+1=9"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            check_nonsurjectivity_conditions(*args, Shape.X2_YK)
        assert str(excinfo.value) == message


def test_condition_report_matches_per_index_oracle():
    # the report decides cond3 by p^n ≢ ±1 modulo each prime factor of
    # m = 2*k_pm+1; the oracle computes f_i for every i from the
    # multiplicative order, and cond3 is "no f_i divides n"
    for p in primes_up_to(200)[1:]:
        for k_pm in range(1, 61):
            if (2 * k_pm + 1) % p == 0:
                continue
            degrees = oracle_inertia_degrees(p, k_pm)
            for which in Shape:
                k = k_pm if which is Shape.X2_YK else k_pm + 1
                for n in range(1, 13):
                    report = check_nonsurjectivity_conditions(p, n, k, which)
                    cond3 = all(n % f != 0 for f in degrees)
                    assert report.inertia_degrees == degrees, (p, k_pm)
                    assert report.cond3 == cond3, (p, k_pm, n)
                    assert report.verdict == (
                        pow(2, (p - 1) // 2, p) != 1 and n % 2 == 1 and cond3
                    ), (p, k_pm, n)
                    assert report.to_dict()["inertia_degrees"] == list(degrees)


def test_unchecked_record_of_a_ramified_prime_fails_cond3():
    # p | 2*k_pm+1 makes -2 a root of A_kpm mod p (A_kpm(-2) = ±(2*k_pm+1)),
    # and the scan over F_p meets the involutions; the entry still refuses it
    assert ConditionReport(5, 1, 2, Shape.X2_YK).verdict is False
    assert ConditionReport(13, 1, 6, Shape.X2_YK).cond3 is False
    for p in (3, 5, 7, 11, 13, 17, 19):
        field = gf.make_field(p, 1)
        for k in range(1, 13):
            if (2 * k + 1) % p == 0:
                report = ConditionReport(p, 1, k, Shape.X2_YK)
                assert (report.cond3, report.verdict) == (False, False), (p, k)
                assert not gf.trace_scan(family_word(Shape.X2_YK, 1, k), field).misses_involutions
                with pytest.raises(RamifiedPrimeError):
                    check_nonsurjectivity_conditions(p, 1, k, Shape.X2_YK)


def test_conditions_entry_bounds_k():
    # 2*k_pm+1 = 341550071728321 is the bound of factorize: the entry refuses
    # it at the call, not when cond3 is first read, and names the caller's k
    start = time.perf_counter()
    for k, shape in ((170775035864160, Shape.X2_YK), (170775035864161, Shape.XNEG2_YK)):
        message = rf"^k={k} gives 2\*k_pm\+1=341550071728321, .*trial-division bound"
        with pytest.raises(ValueError, match=message):
            check_nonsurjectivity_conditions(3, 1, k, shape)
    with pytest.raises(ValueError, match=r"^k_pm=170775035864160 gives .*trial-division bound"):
        scan_primes(170775035864160, 100)
    assert time.perf_counter() - start < 1.0


def test_verdicts_never_search_inertia_degrees(monkeypatch):
    # cond3 comes from factorize; only the inertia_degrees record searches
    def refuse(*args):
        raise AssertionError("inertia_degree called on a verdict path")

    monkeypatch.setattr(arith, "inertia_degree", refuse)
    assert check_nonsurjectivity_conditions(3, 5, 437, Shape.X2_YK).verdict
    assert list(scan_primes(437, 2000)[0])
    with pytest.raises(AssertionError):
        check_nonsurjectivity_conditions(3, 5, 437, Shape.X2_YK).to_dict()


def test_cond1_is_two_not_a_square():
    # the second supplementary law, against the squares mod p by brute force
    for p in primes_up_to(2000)[1:]:
        squares = {x * x % p for x in range(p)}
        assert ConditionReport(p, 1, 1, Shape.X2_YK).cond1 == (2 not in squares), p


def test_condition_report_is_hashable_and_keeps_its_keys():
    # a record of its inputs; everything else is derived
    assert ConditionReport._fields == ("p", "n", "k", "shape")
    report = check_nonsurjectivity_conditions(3, 5, 437, Shape.X2_YK)
    assert hash(report) == hash(check_nonsurjectivity_conditions(3, 5, 437, Shape.X2_YK))
    assert list(report.to_dict()) == [
        "p", "n", "k", "shape", "k_pm", "cond1", "cond2", "cond3", "inertia_degrees", "verdict"
    ]


def test_condition_report_json_round_trip():
    d = check_nonsurjectivity_conditions(3, 1, 2, Shape.X2_YK).to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["shape"] == "x2yk"
    assert d["verdict"] is True


# -- prime scans --

def test_scan_primes_k2_to_100():
    primes, report = scan_primes(2, 100)
    assert list(primes) == [3, 13, 37, 43, 53, 67, 83]
    assert report.matching_prime_count == 7
    assert report.total_prime_count == 25
    assert report.printed_density == Fraction(1, 5)
    assert report.dirichlet_density == Fraction(1, 4)


def test_scan_primes_congruence_precondition():
    with pytest.raises(CongruenceError):
        scan_primes(4, 100)


def test_scan_primes_does_not_reprove_its_primes(monkeypatch):
    # the sieve proves each p prime and `m % p` tests ramification, so no
    # verdict of the scan runs the entry's primality check
    def refuse(*args):
        raise AssertionError("is_prime called by scan_primes")

    monkeypatch.setattr(arith, "is_prime", refuse)
    primes, report = scan_primes(12, 10**5)
    assert report.matching_prime_count == len(list(primes)) > 0


def test_scan_primes_lists_no_prime_it_does_not_keep(monkeypatch, capsys):
    # the scan strikes the failing classes from the sieve and lists only the
    # kept primes, never the list of all primes <= p_max
    def refuse(*args):
        raise AssertionError("primes_up_to called by scan_primes")

    monkeypatch.setattr(arith, "primes_up_to", refuse)
    primes, report = scan_primes(12, 10**5)
    primes = list(primes)
    assert report.matching_prime_count == len(primes) > 0
    assert report.total_prime_count == 9592
    assert cli.main(["density", "--kpm", "12", "--x", "100000"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["matching_prime_count"], record["total_prime_count"]) == (len(primes), 9592)


def test_scanned_primes_pass_conditions_at_n_1():
    primes, _ = scan_primes(2, 300)
    for p in primes:
        assert check_nonsurjectivity_conditions(p, 1, 2, Shape.X2_YK).verdict
        assert check_nonsurjectivity_conditions(p, 1, 3, Shape.XNEG2_YK).verdict


def test_scan_primes_matches_per_prime_conditions():
    # scan_primes strikes the failing residue classes from the sieve; here
    # every prime is evaluated afresh, and against the former selection rule
    # (p ≡ 3, 5 mod 8, coprime to m, p^2 != 1 mod every divisor > 1).
    # m = 5, 13 and 25 bring ramified primes, m = 35 a composite modulus.
    primes = primes_up_to(20000)
    for k_pm in (2, 3, 5, 6, 12, 17):
        m = 2 * k_pm + 1
        kept = list(scan_primes(k_pm, 20000)[0])
        expected = [
            p
            for p in primes[1:]
            if m % p and check_nonsurjectivity_conditions(p, 1, k_pm, Shape.X2_YK).verdict
        ]
        assert kept == expected, k_pm
        divs = divisors_above_one(m)
        sieve = [
            p
            for p in primes
            if p % 8 in (3, 5) and m % p and all(p * p % d != 1 for d in divs)
        ]
        assert kept == sieve, k_pm


def _fresh_verdicts(k_pm: int, p_max: int) -> list[int]:
    # the unchecked per-prime report: a prime dividing 2*k_pm+1 fails cond3
    return [p for p in primes_up_to(p_max)[1:] if ConditionReport(p, 1, k_pm, Shape.X2_YK).verdict]


@pytest.mark.parametrize(
    "k_pm, p_max",
    [(24, 20000), (60, 20000), (62, 20000), (2502, 20000), (20000, 20000), (10**12 + 2, 100)],
    ids=["m=7^2", "m=11^2", "m=5^3", "m=5*7*11*13", "m=40001>p_max", "m=2*10^12+5>p_max"],
)
def test_scan_primes_strikes_match_per_prime_verdicts(k_pm, p_max):
    # a repeated prime factor is struck once per distinct prime, four prime
    # factors strike twelve classes, and a modulus past p_max strikes classes
    # that may start beyond the end of the sieve
    primes, report = scan_primes(k_pm, p_max)
    assert list(primes) == _fresh_verdicts(k_pm, p_max)
    assert report.total_prime_count == len(primes_up_to(p_max))


def test_scan_primes_at_every_small_bound():
    # every residue mod 8 ends the sieve somewhere in 3..400, so an
    # off-by-one in the start or stride of a strike, or at the end of the
    # walk that lists the 1s, shows; m = 5 and 25 are ramified, m = 35
    # composite, m = 49 a prime square, m = 5005 four primes, m = 40001 > p_max
    for k_pm in (2, 3, 12, 17, 24, 2502, 20000):
        for p_max in range(3, 401):
            primes, report = scan_primes(k_pm, p_max)
            fresh = _fresh_verdicts(k_pm, p_max)
            assert list(primes) == fresh, (k_pm, p_max)
            assert report.matching_prime_count == len(fresh), (k_pm, p_max)
            assert report.total_prime_count == len(primes_up_to(p_max)), (k_pm, p_max)


@LAWS
@given(st.integers(1, 10**6).filter(necessary_congruence), st.integers(3, 20000))
def test_scan_primes_count_matches_listing(k_pm, p_max):
    primes, report = scan_primes(k_pm, p_max)
    fresh = _fresh_verdicts(k_pm, p_max)
    assert list(primes) == fresh
    assert report.matching_prime_count == len(fresh)


def test_density_builds_no_prime_list(capsys):
    # the density request counts the 1s left in the struck sieve: its traced
    # peak is the sieve and one strike buffer (a third of the sieve at most,
    # for the multiples of 3), below the bound, which keeps a quarter of the
    # sieve besides.  The 166,111 kept primes below 10^7 as a list would add
    # about 6 MB.
    x = 10**7
    sieve_bytes = (x + 1) // 2
    tracemalloc.start()
    try:
        assert cli.main(["density", "--kpm", "12", "--x", str(x)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["matching_prime_count"] == 166_111
    assert peak < sieve_bytes + sieve_bytes // 3 + sieve_bytes // 4, peak


def test_scan_listing_holds_one_list():
    # the iterator walks the 1s of the struck sieve in order: listing it
    # holds the sieve and one list of the kept primes, as ints (32 bytes
    # each) in 8-byte slots with half again for the list's growth, and no
    # sorted copy or class slice besides
    x, kept = 10**7, 166_111
    sieve_bytes = (x + 1) // 2
    tracemalloc.start()
    try:
        primes = list(scan_primes(12, x)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == kept and primes == sorted(primes)
    assert peak < sieve_bytes + kept * (32 + 8 * 3 // 2), peak


def test_scan_json_builds_no_text_line(capsys):
    # `scan --format json` prints the record and never joins the text line,
    # whose 166,111 str objects below 10^7 would add about 8 MB.  The peak
    # stays below the sieve, the kept primes as ints (32 bytes each) in two
    # lists (8 bytes a slot each), and the printed record (about 9 bytes a
    # prime) held twice, as a string and in the capture.
    x, kept = 10**7, 166_111
    sieve_bytes = (x + 1) // 2
    tracemalloc.start()
    try:
        assert cli.main(["scan", "--kpm", "12", "--p-max", str(x), "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(capsys.readouterr().out)["primes"]) == kept
    assert peak < sieve_bytes + kept * (32 + 2 * 8) + 2 * kept * 9, peak


def test_sieve_criterion_equivalent_to_min_inertia():
    # p^2 != 1 mod every divisor > 1 of m  <=>  all inertia degrees >= 2
    for k_pm in (2, 3, 5, 6):
        m = 2 * k_pm + 1
        divs = divisors_above_one(m)
        for p in primes_up_to(10**5):
            if math.gcd(p, m) != 1:
                continue
            criterion = all(p * p % d != 1 for d in divs)
            min_f = min(inertia_degree(p, m, i) for i in range(1, k_pm + 1))
            assert criterion == (min_f >= 2), (k_pm, p)


def test_density_report_serialization():
    _, report = scan_primes(2, 1000)
    d = report.to_dict()
    assert d["printed_density"] == "1/5"
    assert d["dirichlet_density"] == "1/4"
    assert d["dirichlet_density_decimal"] == "0.250000"
    assert json.loads(json.dumps(d)) == d
    emp = Fraction(d["empirical_density"])
    assert emp == report.empirical_density
    assert 0 <= emp <= 1


# -- length residues --

def test_length_residues_x2yk():
    lengths, residues = length_residues(Shape.X2_YK, 40)
    assert lengths[:4] == [14, 20, 32, 38]  # r = 5, 7, 11, 13
    assert residues == {2, 14}


def test_length_residues_xneg2yk_starts_at_r7():
    lengths, residues = length_residues(Shape.XNEG2_YK, 40)
    assert lengths[0] == 16  # r = 7; r = 5 is excluded since r+1 = 6 is divisible by 3
    assert 10 not in lengths
    assert residues == {4, 16}


def test_length_residue_union_mod_18():
    union = set()
    for family in (Shape.X2_YK, Shape.XNEG2_YK):
        union |= length_residues(family, 1000)[1]
    assert union == {2, 4, 14, 16}  # +-2, +-4 mod 18


def test_length_residues_come_from_admissible_k():
    for family in Shape:
        for length in length_residues(family, 301)[0]:
            k = (length - 2 * family.outer_sign) // 6
            assert len(family_word(family, 1, k)) == length
            assert family.kpm(k) >= 1 and necessary_congruence(family.kpm(k)), (family, length)
    # x1^2 y_(-k) has k_pm = k - 1: k = 2 (length 14, k_pm = 1) is out
    assert length_residues(Shape.X2_YNEGK, 40)[0][:3] == [20, 26, 38]  # k = 3, 4, 6


def test_length_residues_keep_the_rules_3r_minus_1_and_3r_minus_5():
    for r_max in range(7, 200):
        assert length_residues(Shape.X2_YK, r_max)[0] == [
            3 * r - 1 for r in range(5, r_max + 1, 2) if r % 3 != 0
        ]
        assert length_residues(Shape.XNEG2_YK, r_max)[0] == [
            3 * r - 5 for r in range(7, r_max + 1, 2) if (r + 1) % 3 != 0
        ]


def test_length_residues_validation():
    with pytest.raises(ValueError):
        length_residues(Shape.X2_YK, 5)
