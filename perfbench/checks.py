"""Independent oracles for the four benchmark requests.

Nothing here imports wordmaps.  Each oracle recomputes what a request's
report claims with its own arithmetic: integer 2x2 matrices for the
certificate, integers mod 3 for SL2(F_3), a private model of F_27 for the
trace scan, and a private sieve and inertia-degree loop for the densities.
A check takes one captured stdout text and returns the list of problems it
found; an empty list means the report is correct.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

# Letters are (generator, exponent sign); y1 = x1^2 x2 x1^2 x2^-1.
_Y1 = [(1, 1), (1, 1), (2, 1), (1, 1), (1, 1), (2, -1)]


def family_letters(k: int) -> list[tuple[int, int]]:
    """x1^2 y1^k, letter by letter (already freely reduced)."""
    return [(1, 1), (1, 1)] + _Y1 * k


def render_letters(letters: list[tuple[int, int]]) -> str:
    """Run-length text, e.g. "x1^4 x2 x1^2 x2^-1"."""
    runs: list[list[int]] = []
    for gen, sign in letters:
        if runs and runs[-1][0] == gen:
            runs[-1][1] += sign
        else:
            runs.append([gen, sign])
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in runs if e)


def _record(text: str) -> dict:
    lines = text.strip().splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _expect(problems: list[str], record: dict, key: str, want) -> None:
    got = record.get(key, "<missing>")
    if got != want or type(got) is not type(want):
        problems.append(f"{key}: got {got!r}, expected {want!r}")


def _checked(check):
    """Turn a parse or shape error in the report into a reported problem."""

    def run(text: str, oracle) -> list[str]:
        try:
            return check(text, oracle)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [f"unreadable report: {exc!r}"]

    return run


@_checked
def check_fields(text: str, expected: dict) -> list[str]:
    """Every expected key of the one-line JSON report has the expected value."""
    rec = _record(text)
    problems: list[str] = []
    for key, want in expected.items():
        _expect(problems, rec, key, want)
    return problems


# --- conditions of the non-surjectivity theorem, recomputed ---------------


def _inertia(p: int, d: int) -> int:
    """Least f >= 1 with p^f = +-1 (mod d)."""
    f, acc = 1, p % d
    while acc not in (1, d - 1):
        acc = acc * p % d
        f += 1
    return f


def conditions_hold(p: int, n: int, k_pm: int) -> bool:
    """2 is a non-square mod p (Euler), n is odd, and no inertia degree of p
    in Q(zeta_m^i + zeta_m^-i), m = 2 k_pm + 1, divides n."""
    m = 2 * k_pm + 1
    if m % p == 0:
        raise ValueError(f"p={p} ramifies for m={m}")
    cond1 = pow(2, (p - 1) // 2, p) == p - 1
    degrees = []
    for i in range(1, k_pm + 1):
        d = m // math.gcd(m, i)
        degrees.append(1 if d <= 2 else _inertia(p, d))
    return cond1 and n % 2 == 1 and all(n % f for f in degrees)


# --- certify: the factorization certificate for x1^2 y_12 ----------------

CERTIFY_K = 12


def _imul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _iinv(a):
    return (a[3], -a[1], -a[2], a[0])


def _random_sl2z(rng: random.Random):
    m = (1, 0, 0, 1)
    for _ in range(3):
        m = _imul(m, (1, rng.randint(-3, 3), 0, 1))
        m = _imul(m, (1, 0, rng.randint(-3, 3), 1))
    return m


def certify_oracle(seed: int, points: int = 8) -> list[tuple[int, int, int, int]]:
    """Seeded integer SL2 pairs (x, y), each turned into
    (tr x, tr y, tr xy, tr w(x, y)) for w = x1^2 y1^12.  All three input
    traces are nonzero, so any changed coefficient changes the value."""
    rng = random.Random(seed)
    letters = family_letters(CERTIFY_K)
    out = []
    while len(out) < points:
        x, y = _random_sl2z(rng), _random_sl2z(rng)
        s, t, u = x[0] + x[3], y[0] + y[3], _imul(x, y)[0] + _imul(x, y)[3]
        if not (s and t and u):
            continue
        mats = {(1, 1): x, (1, -1): _iinv(x), (2, 1): y, (2, -1): _iinv(y)}
        acc = (1, 0, 0, 1)
        for letter in letters:
            acc = _imul(acc, mats[letter])
        out.append((s, t, u, acc[0] + acc[3]))
    return out


_FACTOR = r"[stu](?:\^\d+)?"
_TERM = re.compile(rf"(?:(\d+)\*)?({_FACTOR}(?:\*{_FACTOR})*)$|(\d+)$")


def parse_polynomial(text: str) -> dict[tuple[int, int, int], int]:
    """Parse the canonical rendering, e.g. "s^2*t − 2*u + 3"."""
    terms: dict[tuple[int, int, int], int] = {}
    pieces = re.split(r" ([+−]) ", text.strip())
    signs = ["+"] + pieces[1::2]
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("−"):
            sign, body = ("−" if sign == "+" else "+"), body[1:]
        m = _TERM.match(body)
        if not m:
            raise ValueError(f"bad term {body!r}")
        exps = [0, 0, 0]
        if m.group(3) is not None:
            coef = int(m.group(3))
        else:
            coef = int(m.group(1) or 1)
            for factor in m.group(2).split("*"):
                var, _, e = factor.partition("^")
                exps["stu".index(var)] += int(e or 1)
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"repeated monomial {body!r}")
        terms[key] = coef if sign == "+" else -coef
    return terms


def _evaluate(terms, s, t, u) -> int:
    return sum(c * s**a * t**b * u**e for (a, b, e), c in terms.items())


@_checked
def check_certify(text: str, points) -> list[str]:
    rec = _record(text)
    problems: list[str] = []
    for key, want in (
        ("lemma", "factorization"),
        ("k", CERTIFY_K),
        ("shape", "x2yk"),
        ("variant", "plus"),
        ("verdict", True),
    ):
        _expect(problems, rec, key, want)
    if rec["rhs"] != rec["lhs"]:
        problems.append("rhs differs from lhs")
    terms = parse_polynomial(rec["lhs"])
    for s, t, u, want in points:
        got = _evaluate(terms, s, t, u)
        if got != want:
            problems.append(f"lhs at (s,t,u)=({s},{t},{u}) differs from tr w(x, y)")
    return problems


# --- pairs: the image of x1^2 y_2 on SL2(F_3)^2 --------------------------

PAIRS_P = 3
PAIRS_K = 2


def pairs_oracle(seed: int) -> dict:
    """Enumerate SL2(F_3)^2 with integers mod 3 (seed-independent)."""
    p = PAIRS_P
    group = [
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (a * d - b * c) % p == 1
    ]

    def mul(x, y):
        return tuple(v % p for v in _imul(x, y))

    letters = family_letters(PAIRS_K)
    traces, image = set(), set()
    for x in group:
        for y in group:
            mats = {(1, 1): x, (1, -1): _iinv(x), (2, 1): y, (2, -1): _iinv(y)}
            acc = (1, 0, 0, 1)
            for letter in letters:
                acc = mul(acc, mats[letter])
            traces.add((acc[0] + acc[3]) % p)
            image.add(min(acc, tuple(-v % p for v in acc)))
    psl2_order = p * (p * p - 1) // 2
    misses = 0 not in traces
    if conditions_hold(p, 1, PAIRS_K) and not misses:
        raise AssertionError("the conditions hold but the oracle hits trace 0")
    return {
        "q": p,
        "method": "pairs",
        "word": render_letters(letters),
        "image_trace_count": len(traces),
        "misses_involutions": misses,
        "surjective": len(image) == psl2_order,
        "pairs_evaluated": len(group) ** 2,
    }


# --- scan: the trace set of x1^2 y_2 over F_27, by explicit pairs ---------

SCAN_P, SCAN_N, SCAN_K = 3, 3, 2


def _f27_tables():
    """F_27 = F_3[X]/(X^3 - X - 1); element c0 + c1 X + c2 X^2 is the
    integer c0 + 3 c1 + 9 c2.  A different modulus from the program's, so
    only isomorphism-invariant facts are compared."""
    p, q = SCAN_P, SCAN_P**SCAN_N

    def digits(v):
        return [v % 3, v // 3 % 3, v // 9]

    def value(cs):
        return cs[0] + 3 * cs[1] + 9 * cs[2]

    add = [[value([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)] for a in range(q)]
    mul = []
    for a in range(q):
        row = []
        for b in range(q):
            prod = [0] * 5
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] += x * y
            for deg in (4, 3):  # X^3 = X + 1
                c, prod[deg] = prod[deg], 0
                prod[deg - 3] += c
                prod[deg - 2] += c
            row.append(value([c % p for c in prod[:3]]))
        mul.append(row)
    neg = [value([-c % p for c in digits(a)]) for a in range(q)]
    return add, mul, neg


def scan_oracle(seed: int) -> dict:
    """Realise every (s, t, u) in F_27^3 by an explicit pair x, y in
    SL2(F_27) (Macbeath 1969) and collect tr w(x, y) (seed-independent).

    x is the companion matrix [0 -1; 1 s]; y = [t-d, u-sd+c; c, d] has the
    right trace and tr(xy), and det y = 1 is a quadratic in c that is
    solvable for some d.  The only triples no d serves are (+-2, t, +-t)
    with t^2 - 4 a non-square; those are realised by x = +-1.
    """
    q = SCAN_P**SCAN_N
    add, mul, neg = _f27_tables()
    one, two, four = 1, 2, add[2][2]
    sqrt = {}
    for r in range(q):
        sqrt.setdefault(mul[r][r], r)
    inv2 = next(v for v in range(q) if mul[two][v] == one)

    def sub(a, b):
        return add[a][neg[b]]

    def mm(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            add[mul[a][e]][mul[b][g]],
            add[mul[a][f]][mul[b][h]],
            add[mul[c][e]][mul[d][g]],
            add[mul[c][f]][mul[d][h]],
        )

    def find_y(s, t, u):
        for d in range(q):
            # c^2 + (u - s d) c + (1 - (t - d) d) = 0
            lin = sub(u, mul[s][d])
            const = sub(one, mul[sub(t, d)][d])
            disc = sub(mul[lin][lin], mul[four][const])
            if disc in sqrt:
                c = mul[sub(sqrt[disc], lin)][inv2]
                return (sub(t, d), add[sub(u, mul[s][d])][c], c, d)
        return None

    traces = set()
    for s in range(q):
        x = (0, neg[one], one, s)
        for t in range(q):
            for u in range(q):
                y = find_y(s, t, u)
                xx = x
                if y is None:
                    sign = one if s == two else neg[one]
                    xx, y = (sign, 0, 0, sign), (0, neg[one], one, t)
                xy = mm(xx, y)
                det = sub(mul[y[0]][y[3]], mul[y[1]][y[2]])
                if (add[xx[0]][xx[3]], add[y[0]][y[3]], add[xy[0]][xy[3]], det) != (s, t, u, one):
                    raise AssertionError(f"no pair realises ({s}, {t}, {u})")
                yi = (y[3], neg[y[1]], neg[y[2]], y[0])
                x2 = mm(xx, xx)
                x4 = mm(x2, x2)
                # x1^2 y1^2 = x1^4 x2 x1^2 x2^-1 x1^2 x2 x1^2 x2^-1
                w = x4
                for m in (y, x2, yi, x2, y, x2, yi):
                    w = mm(w, m)
                traces.add(add[w[0]][w[3]])
    misses = 0 not in traces
    if conditions_hold(SCAN_P, SCAN_N, SCAN_K) and not misses:
        raise AssertionError("the conditions hold but the oracle hits trace 0")
    return {
        "q": q,
        "method": "scan",
        "word": render_letters(family_letters(SCAN_K)),
        "image_trace_count": len(traces),
        "misses_involutions": misses,
        "surjective": None,
        "pairs_evaluated": q**3,
    }


# --- primes: the density report for k_pm = 12 up to 10^5 -----------------

PRIMES_KPM, PRIMES_X = 12, 100_000


def _odd_sieve(limit: int) -> list[int]:
    """Primes <= limit; index i of the sieve stands for 2 i + 1."""
    half = bytearray([1]) * ((limit + 1) // 2)
    half[0] = 0
    i = 1
    while (2 * i + 1) ** 2 <= limit:
        if half[i]:
            start = (2 * i + 1) ** 2 // 2
            half[start :: 2 * i + 1] = bytes(len(range(start, len(half), 2 * i + 1)))
        i += 1
    return [2] + [2 * i + 1 for i, flag in enumerate(half) if flag]


def primes_oracle(seed: int) -> dict:
    """Count the primes p <= x meeting the three conditions with n = 1
    (seed-independent)."""
    k_pm, x = PRIMES_KPM, PRIMES_X
    m = 2 * k_pm + 1
    primes = _odd_sieve(x)
    matching = sum(1 for p in primes if p > 2 and m % p and conditions_hold(p, 1, k_pm))
    ells = [ell for ell in range(3, m + 1) if m % ell == 0 and all(ell % r for r in range(2, ell))]
    printed = dirichlet = Fraction(1, 2)
    for ell in ells:
        printed *= 1 - Fraction(3, ell)
        dirichlet *= Fraction(ell - 3, ell - 1)

    def frac(f: Fraction) -> str:
        return f"{f.numerator}/{f.denominator}"

    return {
        "k_pm": k_pm,
        "x": x,
        "matching_prime_count": matching,
        "total_prime_count": len(primes),
        "empirical_density": frac(Fraction(matching, len(primes))),
        "printed_density": frac(printed),
        "dirichlet_density": frac(dirichlet),
    }
