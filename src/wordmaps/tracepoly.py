"""Exact trace polynomials for two-generator words, and the machine
verification of the swap and factorization identities they satisfy.

For determinant-1 matrices x, y over any commutative ring, the trace of a
word w(x, y) is a universal integer polynomial in s = tr(x), t = tr(y),
u = tr(xy).  The computation walks the word through the rank-4 module with
basis {1, X, Y, XY}, using the determinant-1 rewriting rules

    X*X  = s*X - 1          Y*Y  = t*Y - 1
    X^-1 = s*1 - X          Y^-1 = t*1 - Y
    Y*X  = t*X + s*Y - (s*t - u)*1 - X*Y

(the last rule follows from (xy)^-1 = y^-1 x^-1 combined with the
Cayley-Hamilton identity m + m^-1 = tr(m)*1; the test suite validates it
numerically against random integer determinant-1 matrices), and finally
reads the trace off the coordinates via tr(1) = 2, tr(X) = s, tr(Y) = t,
tr(XY) = u.  All coefficients are exact arbitrary-precision integers.

A product by x1^±1 reads 11 rule terms and one by x2^±1 reads 6, so the
walk takes the cheapest of four words with the same trace: w, w^-1
(tr g^-1 = tr g for determinant 1), w with x1 and x2 swapped, and the
inverse of that (tr w(y, x) = tau(w)(t, s, u), as tr yx = tr xy).  The
cost of a form is the sum of (i+1)^2 over the positions i of the letters
it walks as x1^±1, since the coordinates grow along the walk (ties as
_cheapest_form says); a swapped form has its s and t exchanged when the
result is read off.

Inside the walk a monomial s^i t^j u^k is the int i*B^2 + j*B + k with
B = 2^bits > len(w) + 1, so a product by s, t or u adds a constant to the
key.  No exponent carries into the next field: each letter raises each
variable's exponent by at most 1 and the read-off by 1 more, so every
exponent stays at most len(w) + 1 < B.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Mapping

from .words import Shape, Word, cyclic_reduce, family_word, trace_equivalent, y1, yk

Monomial = tuple[int, int, int]

MINUS_SIGN = "−"  # canonical renderer joins terms with " + " / " − "


def _mul_terms(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for (ia, ja, ka), ca in a.items():
        for (ib, jb, kb), cb in b.items():
            m = (ia + ib, ja + jb, ka + kb)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


class TracePolynomial:
    """Sparse integer polynomial in Z[s, t, u] keyed by exponent triples.

    Zero coefficients are never stored; arithmetic is exact.  Integers mix
    freely as constants on either side of ``+``, ``-`` and ``*``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {m: int(c) for m, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, c: int) -> "TracePolynomial":
        return cls({(0, 0, 0): c})

    @staticmethod
    def _coerce(value) -> "TracePolynomial":
        if isinstance(value, TracePolynomial):
            return value
        if isinstance(value, int):
            return TracePolynomial.constant(value)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other) -> "TracePolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        result = TracePolynomial.__new__(TracePolynomial)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "TracePolynomial":
        result = TracePolynomial.__new__(TracePolynomial)
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other) -> "TracePolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TracePolynomial":
        return (-self) + other

    def __mul__(self, other) -> "TracePolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        result = TracePolynomial.__new__(TracePolynomial)
        result.terms = _mul_terms(self.terms, other.terms)
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TracePolynomial":
        if n < 0:
            raise ValueError("polynomials cannot be raised to negative powers")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, s, t, u):
        """Value at (s, t, u) in any commutative ring whose elements mix with
        ints under +, * and ** (ints, trace polynomials, the F_q elements
        of the test oracle, ...).

        Each distinct coefficient is converted into the ring of s once
        (s*0 + c), and terms whose coefficient vanishes there are dropped;
        then nested sparse Horner in s, t, u.
        The result is always a ring element, also for a constant polynomial.
        """
        zero = s * 0
        ring: dict[int, object] = {}  # coefficient -> its image, None if 0
        by_a: dict[int, dict[int, list]] = {}
        for (a, b, c), coef in self.terms.items():
            if coef not in ring:
                v = zero + coef
                ring[coef] = None if v == zero else v
            v = ring[coef]
            if v is not None:
                by_a.setdefault(a, {}).setdefault(b, []).append((c, v))

        def horner(pairs: list, x):
            if not pairs:
                return zero
            pairs.sort(reverse=True)  # exponents are distinct: coefficients never compared
            acc = None
            prev = 0
            for e, coef in pairs:
                acc = coef if acc is None else acc * x ** (prev - e) + coef
                prev = e
            return acc * x**prev if prev else acc

        return horner(
            [
                (a, horner([(b, horner(by_c, u)) for b, by_c in by_b.items()], t))
                for a, by_b in by_a.items()
            ],
            s,
        )

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"TracePolynomial<{render_poly(self)}>"


ZERO = TracePolynomial()
ONE = TracePolynomial.constant(1)
S = TracePolynomial({(1, 0, 0): 1})
T = TracePolynomial({(0, 1, 0): 1})
U = TracePolynomial({(0, 0, 1): 1})


def render_poly(p: TracePolynomial, names: str = "stu") -> str:
    """Canonical text: terms in graded-lex descending order, joined with
    " + " / " − ", coefficient 1 and exponent 1 elided, e.g. "s^2*t − 2*u + 3".
    names[i] names the i-th variable."""
    pieces = []
    for m, c in sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True):
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not pieces:
            pieces.append(body if c > 0 else MINUS_SIGN + body)
        else:
            pieces.append((" + " if c > 0 else f" {MINUS_SIGN} ") + body)
    return "".join(pieces) or "0"


def _combine(*parts: tuple[int, dict[int, int], int]) -> dict[int, int]:
    """The sum of sign * poly * x, one (sign, poly, shift) per part, where
    poly is keyed by packed monomials and x is the monomial packed as
    shift (a product by x adds shift to every key); zeros are dropped."""
    (sign, poly, shift), *rest = parts
    if sign > 0:
        out = {m + shift: c for m, c in poly.items()} if shift else dict(poly)
    else:
        out = {m + shift: -c for m, c in poly.items()}
    get = out.get
    for sign, poly, shift in rest:  # one loop per sign keeps the test out of the inner loop
        if sign > 0:
            for m, c in poly.items():
                m += shift
                v = get(m, 0) + c
                if v:
                    out[m] = v
                else:  # c != 0, so m was present
                    del out[m]
        else:
            for m, c in poly.items():
                m += shift
                v = get(m, 0) - c
                if v:
                    out[m] = v
                else:
                    del out[m]
    return out


# e*x1 and e*x2 for e = c1*1 + cx*X + cy*Y + cxy*XY by the rules above: each
# new coordinate as terms ±c*m, an old coordinate c in 1, x, y, xy times a
# monomial m in s, t, u (XY*X = u*X + Y - t*1 and XY*Y = t*XY - X follow).
_COORDS = ("1", "x", "y", "xy")
_RULES = {1: ("-x -y*st +y*u -xy*t", "+1 +x*s +y*t +xy*u", "+y*s +xy", "-y"),
          2: ("-y", "-xy", "+1 +y*t", "+x +xy*t")}


def _inverse_rule(rule: tuple[str, ...], trace: str) -> tuple[str, ...]:
    """e*L^-1 = tr(L)*e - e*L (Cayley-Hamilton), without the part that cancels."""
    flip = str.maketrans("+-", "-+")
    negated = (f"{terms.translate(flip)} +{c}*{trace}".split() for c, terms in zip(_COORDS, rule))
    return tuple(" ".join(x for x in parts if x.translate(flip) not in parts) for parts in negated)


_RULES[-1], _RULES[-2] = _inverse_rule(_RULES[1], "s"), _inverse_rule(_RULES[2], "t")


@functools.lru_cache(maxsize=None)
def _packed_rules(bits: int) -> dict[int, tuple]:
    """Each rule as _combine parts (sign, coordinate, shift) on keys of width bits."""
    shift = {"s": 1 << 2 * bits, "t": 1 << bits, "u": 1}
    return {letter: tuple(tuple((int(term[0] + "1"), _COORDS.index(c), sum(shift[v] for v in m))
                                for term in terms.split() for c, _, m in [term[1:].partition("*")])
                          for terms in rule) for letter, rule in _RULES.items()}


def _step(e: list[dict[int, int]], rule: tuple) -> list[dict[int, int]]:
    """e times a letter by its packed rule: one _combine pass per coordinate."""
    return [_combine(*[(sign, e[i], shift) for sign, i, shift in parts]) for parts in rule]


def _cheapest_form(w: tuple[int, ...]) -> int:
    """Which form of the cyclically reduced w tau walks: 0 for w, 1 for
    w^-1, 2 for w with x1 and x2 swapped, 3 for the inverse of that.  The
    cost of a form is the sum of (i+1)^2 over the positions i of its
    letters walked as x1^±1 (module docstring); the least wins.  A core
    whose x1 positions read the same both ways ties a form with its
    inverse, as x1^-2 y_k and x1^2 y_(-k) do; the tie goes to the form
    that steps by x1^-1 and then by x2^-1 the fewest times, then to the
    first in this order.  That tie-break is measured, not derived: with it
    no family word up to k = 24 walks dearer than w itself."""
    n = len(w)
    forward = sum((i + 1) ** 2 for i, letter in enumerate(w) if letter in (1, -1))
    backward = sum((n - i) ** 2 for i, letter in enumerate(w) if letter in (1, -1))
    every = n * (n + 1) * (2 * n + 1) // 6  # the sum of (i+1)^2 over all positions
    pairs = list(zip(w, w[1:]))  # the pairs of w that each form walks as x1^-1 x2^-1:
    ties = (pairs.count((-1, -2)), pairs.count((2, 1)), pairs.count((-2, -1)), pairs.count((1, 2)))
    costs = list(zip((forward, backward, every - forward, every - backward), ties))
    return costs.index(min(costs))


@functools.lru_cache(maxsize=8)  # a request repeats a word 3 other words later at most: tau(y1(+-1))
def tau(w: Word) -> TracePolynomial:
    """Trace polynomial of w: for every field and every determinant-1 pair
    (x, y), tr(w(x, y)) = tau(w)(tr x, tr y, tr xy).

    Trace is a class function, so only the cyclically reduced core of w is
    walked.  Four forms of the core have its trace: the core, its inverse
    (tr g^-1 = tr g for determinant 1), the core with x1 and x2 swapped
    (tr w(y, x) = tau(w)(t, s, u), as tr yx = tr xy) and the inverse of
    that.  The walk takes the form whose letters walked as x1^±1, the
    costlier rule, have the least sum of (i+1)^2 over their positions i
    (_cheapest_form, which also breaks ties), one _step per letter from
    e = 1, on the packed keys of the module docstring; they are unpacked
    once, at the end, with s and t exchanged for a swapped form."""
    w = cyclic_reduce(w)[1].letters
    form = _cheapest_form(w)
    if form & 1:
        w = tuple(-letter for letter in reversed(w))
    if form & 2:
        w = tuple(3 - letter if letter > 0 else -3 - letter for letter in w)
    bits = (len(w) + 2).bit_length()  # every exponent is <= len(w) + 1 < 2^bits = B
    rules = _packed_rules(bits)
    e = [{0: 1}, {}, {}, {}]
    for letter in w:
        e = _step(e, rules[letter])
    (c1, cx, cy, cxy), s, t, u, mask = e, 1 << 2 * bits, 1 << bits, 1, (1 << bits) - 1
    trace = _combine((1, c1, 0), (1, c1, 0), (1, cx, s), (1, cy, t), (1, cxy, u))
    s_at, t_at = (bits, 2 * bits) if form & 2 else (2 * bits, bits)  # a swapped form walked s as t
    return TracePolynomial({((m >> s_at) & mask, (m >> t_at) & mask, m & mask): c for m, c in trace.items()})


def _dicksons() -> Iterator[TracePolynomial]:
    """D_0, D_1, D_2, ... by the recurrence, one product by s per step."""
    prev, cur = TracePolynomial.constant(2), S
    while True:
        yield prev
        prev, cur = cur, S * cur - prev


def dickson(i: int) -> TracePolynomial:
    """Trace-of-power polynomials in s: D_0 = 2, D_1 = s,
    D_(i+1) = s*D_i - D_(i-1), so that tr(g^i) = D_i(tr g) for any
    determinant-1 matrix g; in particular dickson(i) == tau(x1^i).
    Equivalently D_i(x + x^-1) = x^i + x^-i, that is
    x^i D_i(x + x^-1) = x^(2i) + 1 in Z[x]."""
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    return next(itertools.islice(_dicksons(), i, None))


def alternating_dickson_sum(n: int) -> TracePolynomial:
    """The degree-n bracket A_n = sum_(i=1..n) (-1)^(n-i) D_i + (-1)^n, in s,
    that the outer-power trace factorization multiplies by (s^2 - 2)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = ONE  # A_0 = 1 and A_i = D_i - A_(i-1)
    for d in itertools.islice(_dicksons(), 1, n + 1):
        acc = d - acc
    return acc


def cyclotomic_certificate(k_pm: int) -> tuple[str, str, bool]:
    """(lhs, rhs, verdict) for the cyclotomic root check: lhs is
    A = alternating_dickson_sum(k_pm) as text in T, rhs the roots it
    claims, and the verdict certifies that A equals the monic product
    prod_(i=1..k_pm) (T + zeta^i + zeta^(-i)), zeta a primitive m-th root
    of unity, m = 2*k_pm + 1, by an exact identity in Z[x].  A is built
    once.

    Put T = x + x^-1.  Each factor is x^-1 (x + zeta^i)(x + zeta^-i), so
    x^k_pm times the product is prod_(j=1..m-1) (x + zeta^j)
    = (x^m + 1)/(x + 1) = sum_(j=0..m-1) (-x)^j.  The map
    P -> x^k_pm P(x + x^-1) is injective on polynomials of degree <= k_pm,
    so A equals the product iff A has degree <= k_pm and
    sum_j c_j (x^2 + 1)^j x^(k_pm-j) == sum_(j=0..m-1) (-x)^j, where c_j
    are A's coefficients.  Both sides are built in s, which plays x; the
    left side by homogeneous Horner.  In particular A vanishes at
    T = -(x + x^(d-1)) in Z[x]/Phi_d(x) for every divisor d > 1 of m.
    """
    if k_pm < 1:
        raise ValueError(f"k_pm must be >= 1, got {k_pm}")
    candidate = alternating_dickson_sum(k_pm)
    m = 2 * k_pm + 1
    lhs = render_poly(candidate, names="T")
    rhs = f"0 in Z[x]/Phi_d(x) at T = -(x + x^(d-1)), d | {m}, d > 1"
    if any(b or c or a > k_pm for a, b, c in candidate.terms):
        return lhs, rhs, False
    x_sq_plus_1 = S * S + 1
    identity = ZERO
    for j in range(k_pm, -1, -1):
        identity = identity * x_sq_plus_1 + candidate.terms.get((j, 0, 0), 0) * S ** (k_pm - j)
    return lhs, rhs, identity == TracePolynomial({(j, 0, 0): (-1) ** j for j in range(m)})


_X1SQ = Word((1, 1))
_X1NEGSQ = ~_X1SQ


def swap_certificate(k: int, inner_sign: int = 1) -> tuple[TracePolynomial, TracePolynomial, bool]:
    """(lhs, rhs, verdict) of the exact polynomial identity
    tau(x1^2 y_(k-1)) == tau(x1^(-2) y_k); holds for every integer k and
    either y1 variant."""
    lhs = tau(_X1SQ * yk(inner_sign, k - 1))
    rhs = tau(_X1NEGSQ * yk(inner_sign, k))
    return lhs, rhs, lhs == rhs


def factorization_sum_form(k: int, which: Shape, inner_sign: int = 1) -> TracePolynomial:
    """(s^2 - 2) * (sum_(i=1..kpm) (-1)^(kpm-i) tau(y_i) + (-1)^kpm), with
    tau(y_i) produced by substituting tau(y_1) into the power recurrence.
    kpm is k for the x1^2 y_k shape and k-1 for the other two; for kpm = 0
    the bracket is the empty sum plus (-1)^0 = 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    bracket = alternating_dickson_sum(which.kpm(k)).evaluate(tau(y1(inner_sign)), T, U)
    return (S * S - 2) * bracket


def factorization_certificate(
    k: int, which: Shape, inner_sign: int = 1
) -> tuple[TracePolynomial, TracePolynomial, bool]:
    """(lhs, rhs, verdict) with lhs = tau(family_word) and rhs the
    alternating sum form; the verdict also requires the traces of
    x1^2 y_(-k) and x1^(-2) y_k to agree, which holds because the first
    word is the inverse of a rotation of the second (trace_equivalent)."""
    lhs = tau(family_word(which, inner_sign, k))
    rhs = factorization_sum_form(k, which, inner_sign)
    verdict = lhs == rhs and trace_equivalent(
        _X1SQ * yk(inner_sign, -k), _X1NEGSQ * yk(inner_sign, k)
    )
    return lhs, rhs, verdict
