"""Number-theoretic side: factorization by trial division, and primality read
off it (one algorithm, bounded by FACTOR_BOUND), inertia degrees in real
cyclotomic subfields, the non-surjectivity conditions (p mod 8, the parity
of n, and one congruence per prime factor of the cyclotomic modulus), prime
scans with densities, and the admissible word-length residues mod 18."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .words import Shape, check_family_index

# The bound of factorize: at most about 9*10^6 trial divisions.
FACTOR_BOUND = 341_550_071_728_321

# The largest p_max of a prime scan: a 50 MB sieve, struck in place until its 1s are the kept primes.
MAX_SCAN_BOUND = 10**8

# cond1 holds for p ≡ 3, 5 (mod 8); cond3 fails for p^n ≡ 0, ±1 (mod l), any prime l | 2*k_pm+1.
_COND1_RESIDUES = (3, 5)
_COND3_RESIDUES = (0, 1, -1)


def is_prime(n: int) -> bool:
    """True iff n is prime, by the definition: n >= 2 and its factorization is
    n itself.  factorize bounds n, so n >= FACTOR_BOUND raises ValueError.

    >>> is_prime(1_000_000_007), is_prime(1_000_036_000_099)  # 1000003 * 1000033
    (True, False)
    """
    return n >= 2 and factorize(n) == ((n, 1),)


def _odd_sieve(limit: int) -> bytearray:
    """Sieve of Eratosthenes for limit >= 2: sieve[i] is 1 iff 2i + 1 <= limit is prime."""
    sieve = bytearray((1,)) * ((limit + 1) // 2)
    sieve[0] = 0  # 1 is not prime
    # here and in scan_primes' strikes the zeros are a bytearray: a slice
    # assignment copies any other value into a new bytearray first
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytearray(len(range(p * p // 2, len(sieve), p)))  # p^2, p^2 + 2p, ...
    return sieve


def primes_up_to(limit: int) -> list[int]:
    """The primes <= limit, read off _odd_sieve."""
    return [2, *itertools.compress(range(1, limit + 1, 2), _odd_sieve(limit))] if limit >= 2 else []


@functools.lru_cache(maxsize=8)  # a request factors q, p and 2*k_pm+1, p more than once
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of 1 <= n < FACTOR_BOUND, primes ascending, by trial division.

    >>> factorize(2_000_000_000_005)
    ((5, 1), (7, 1), (19, 3), (41, 1), (317, 1), (641, 1))
    >>> factorize(1)
    ()
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n >= FACTOR_BOUND:
        raise ValueError(f"n must be below the trial-division bound {FACTOR_BOUND}, got {n}")
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def odd_prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^n with p an odd prime, or raise ValueError.

    >>> odd_prime_power(27)
    (3, 3)
    >>> odd_prime_power(15)
    Traceback (most recent call last):
    ValueError: 15 is not an odd prime power
    """
    pairs = factorize(q) if q >= 3 and q % 2 else ()
    if len(pairs) != 1:
        raise ValueError(f"{q} is not an odd prime power")
    return pairs[0]


class RamifiedPrimeError(ValueError):
    """The prime shares a factor with the cyclotomic modulus, so the
    unramified inertia-degree computation does not apply."""


class CongruenceError(ValueError):
    """k_pm ≡ 1 (mod 3): the subfield for i = (2*k_pm+1)/3 is rational, its
    inertia degree is always 1, and no prime can satisfy the conditions."""


def inertia_degree(p: int, m: int, i: int) -> int:
    """Inertia degree of p in Q(zeta_m^i + zeta_m^(-i)).

    With d = m / gcd(m, i) >= 3 the field is the maximal real subfield of
    the d-th cyclotomic field and the degree is the least f >= 1 with
    p^f ≡ ±1 (mod d); for d = 3 the field is Q and this gives 1.  The
    search takes up to d/2 steps, so no verdict runs it.
    Raises RamifiedPrimeError when gcd(p, d) > 1.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    if not 1 <= i <= (m - 1) // 2:
        raise ValueError(f"i must lie in [1, {(m - 1) // 2}], got {i}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    d = m // math.gcd(m, i)
    if math.gcd(p, d) != 1:
        raise RamifiedPrimeError(f"p={p} ramifies in the degree-{d} cyclotomic field")
    acc = p % d
    f = 1
    while acc != 1 and acc != d - 1:
        acc = acc * p % d
        f += 1
    return f


def necessary_congruence(k_pm: int) -> bool:
    """True iff k_pm mod 3 != 1, equivalently 3 does not divide 2*k_pm + 1."""
    if k_pm < 1:
        raise ValueError(f"k_pm must be >= 1, got {k_pm}")
    return k_pm % 3 != 1


class ConditionReport(NamedTuple):
    """The three non-surjectivity conditions, derived from the inputs, which
    check_nonsurjectivity_conditions validates.  f_i divides n exactly when
    p^n ≡ ±1 mod d = m/gcd(m, i), m = 2*k_pm+1; that holds for some d exactly
    when it holds for some prime l | m.  f_i is searched for when read.  An
    unchecked record with p | m has p^n ≡ 0 mod l = p and cond3 false: -2 is
    then a root of A_kpm mod p, as A_kpm(-2) = ±m."""

    p: int
    n: int
    k: int
    shape: Shape

    @property
    def k_pm(self) -> int:
        return self.shape.kpm(self.k)

    @property
    def cond1(self) -> bool:  # 2 is not a square mod p (second supplementary law)
        return self.p % 8 in _COND1_RESIDUES

    @property
    def cond2(self) -> bool:  # n is odd
        return self.n % 2 == 1

    @property
    def cond3(self) -> bool:  # no inertia degree f_i divides n, and p does not ramify
        primes = (ell for ell, _ in factorize(2 * self.k_pm + 1))
        return all(pow(self.p, self.n, ell) not in [r % ell for r in _COND3_RESIDUES] for ell in primes)

    @property
    def inertia_degrees(self) -> tuple[int, ...]:  # f_i for i = 1..k_pm
        m = 2 * self.k_pm + 1
        ds = [m // math.gcd(m, i) for i in range(1, self.k_pm + 1)]
        by_d = {d: inertia_degree(self.p, m, m // d) for d in set(ds)}
        return tuple(by_d[d] for d in ds)

    @property
    def verdict(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3

    def to_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "k": self.k, "shape": self.shape.value, "k_pm": self.k_pm,
                "cond1": self.cond1, "cond2": self.cond2, "cond3": self.cond3,
                "inertia_degrees": list(self.inertia_degrees), "verdict": self.verdict}


def check_nonsurjectivity_conditions(p: int, n: int, k: int, which: Shape) -> ConditionReport:
    """The report for the word shape `which` at index k over F_(p^n), once p is
    checked to be an odd prime prime to 2*k_pm+1, n and k_pm to be >= 1, and
    2*k_pm+1 to lie within the bound of factorize:
    (1) 2 is a non-square mod p, (2) n is odd, (3) no inertia degree of p in
    Q(zeta^i + zeta^(-i)) for the (2*k_pm+1)-th roots of unity divides n."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    report = ConditionReport(p, n, k, which)
    if report.k_pm < 1:
        raise ValueError(f"shape {which.value} with k={k} has effective index {report.k_pm} < 1")
    if (m := 2 * report.k_pm + 1) % p == 0:
        raise RamifiedPrimeError(f"p={p} divides 2*k_pm+1={m}")
    if m >= FACTOR_BOUND:
        raise ValueError(f"k={k} gives 2*k_pm+1={m}, past the trial-division bound {FACTOR_BOUND}")
    return report


def _fraction_decimal(fr: Fraction, places: int = 6) -> str:
    scaled = fr.numerator * 10**places
    val, rem = divmod(scaled, fr.denominator)
    if 2 * rem >= fr.denominator:
        val += 1
    whole, frac = divmod(val, 10**places)
    return f"{whole}.{frac:0{places}d}"


class DensityReport(NamedTuple):
    """Exact counts and the three densities for a prime scan; a scan covers
    p_max >= 3, so total_prime_count >= 2."""

    k_pm: int
    x: int
    matching_prime_count: int
    total_prime_count: int
    printed_density: Fraction
    dirichlet_density: Fraction

    @property
    def empirical_density(self) -> Fraction:
        return Fraction(self.matching_prime_count, self.total_prime_count)

    def to_dict(self) -> dict:
        out = {
            "k_pm": self.k_pm,
            "x": self.x,
            "matching_prime_count": self.matching_prime_count,
            "total_prime_count": self.total_prime_count,
        }
        for name in ("empirical_density", "printed_density", "dirichlet_density"):
            fr: Fraction = getattr(self, name)
            out[name] = f"{fr.numerator}/{fr.denominator}"
            out[name + "_decimal"] = _fraction_decimal(fr)
        return out


def scan_primes(k_pm: int, p_max: int) -> tuple[Iterator[int], DensityReport]:
    """Odd primes p <= p_max for which check_nonsurjectivity_conditions(p, 1,
    k_pm, Shape.X2_YK) holds, ascending, and their report; a prime dividing
    2*k_pm+1 (RamifiedPrimeError) is not kept.  p_max <= MAX_SCAN_BOUND, and
    factorize bounds 2*k_pm+1.

    The verdict depends on p only through p mod 8 and p mod each prime factor
    l of 2*k_pm+1, so the conditions act as a second sieve: once the primes are
    counted, the failing classes, p ≡ ±1 (mod 8) and p ≡ 0, ±1 (mod each l),
    are struck, with no Python step per prime; the kept primes are the 1s left
    (tests/test_arith.py checks them against fresh per-prime verdicts).  The
    report counts them; the iterator walks them, ascending, only when read.
    The report carries the empirical density among all primes <= p_max next to
    the printed density (1/2)*prod(1 - 3/l) and the Dirichlet density
    (1/2)*prod((l-3)/(l-1)) over the prime factors l of 2*k_pm+1.
    """
    if p_max < 3:
        raise ValueError(f"p_max must be >= 3, got {p_max}")
    if not necessary_congruence(k_pm):
        raise CongruenceError(f"k_pm={k_pm} is 1 mod 3: 2*k_pm+1 is divisible by 3, the real "
                              f"subfield for i=(2*k_pm+1)/3 is rational, and its inertia degree "
                              f"is always 1, so no prime qualifies")
    if p_max > MAX_SCAN_BOUND:
        raise ValueError(f"p_max must be <= {MAX_SCAN_BOUND}, got {p_max}")
    if (m := 2 * k_pm + 1) >= FACTOR_BOUND:
        raise ValueError(f"k_pm={k_pm} gives 2*k_pm+1={m}, past the trial-division bound {FACTOR_BOUND}")
    printed = dirichlet = Fraction(1, 2)
    sieve = _odd_sieve(p_max)
    total = 1 + sieve.count(1)  # 1 for the prime 2
    failing = [(8, [c for c in range(1, 8, 2) if c not in _COND1_RESIDUES])]  # cond1 fails: p ≡ ±1 (mod 8)
    for ell, _ in factorize(m):
        printed *= 1 - Fraction(3, ell)
        dirichlet *= Fraction(ell - 3, ell - 1)
        failing.append((ell, _COND3_RESIDUES))
    for modulus, residues in failing:
        step = modulus if modulus % 2 else modulus // 2  # the index stride of a class of odd p
        for r in residues:  # 2i + 1 ≡ r (mod modulus)  <=>  i ≡ (r - 1)(modulus + 1)/2 (mod step)
            i = (r - 1) * (modulus + 1) // 2 % step
            sieve[i::step] = bytearray(len(range(i, len(sieve), step)))

    def ascending() -> Iterator[int]:  # the 1s left, in index order
        i = -1
        while (i := sieve.find(1, i + 1)) >= 0:
            yield 2 * i + 1

    return ascending(), DensityReport(k_pm, p_max, sieve.count(1), total, printed, dirichlet)


def length_residues(family: Shape, r_max: int) -> tuple[list[int], set[int]]:
    """Admissible reduced word lengths for r = 2k+1 <= r_max, and their
    residues mod 18.

    The family word of index k has reduced length 6k + 2*outer_sign, that
    is 3r-1 for the x1^2 shapes and 3r-5 for the x1^-2 shape; its length
    is admissible when family.kpm(k) >= 1 passes necessary_congruence.
    """
    if r_max < 7:
        raise ValueError(f"r_max must be >= 7, got {r_max}")
    check_family_index((r_max - 1) // 2)
    lengths = [
        6 * k + 2 * family.outer_sign
        for k in range(1, (r_max - 1) // 2 + 1)
        if family.kpm(k) >= 1 and necessary_congruence(family.kpm(k))
    ]
    return lengths, {length % 18 for length in lengths}
