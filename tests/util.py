"""Shared helpers: the hypothesis settings of the property tests, the
seeded word corpus that the cross-validation suites replay, the
tokenizer and recursive-descent parser of word text (the oracle for
wordmaps.words.parse_word), integer 2x2 matrix arithmetic (exact, for
oracle checks against the symbolic trace machinery), the letter walk of tau on
TracePolynomial arithmetic (the oracle for the packed walk of
wordmaps.tracepoly), a parser of rendered polynomial text (the inverse of
wordmaps.tracepoly.render_poly), an F_q element and SL2(F_q) matrix type (the oracle
for the field tables and kernels of wordmaps.gf), both sides of the tau
identity at a pair of SL2(F_q) elements, the full pair enumeration and the
plain trace scan (the oracles for wordmaps.gf.enumerate_image_pairs and
trace_scan), the reducible monic polynomials
over F_p (the oracle for the field modulus), reduced-word enumeration, and
oracles for proper powers, divisors, multiplicative orders and the per-index
inertia degrees."""

from __future__ import annotations

import itertools
import math
import random
import re
from typing import Iterator

from hypothesis import settings

from wordmaps.gf import DEFAULT_BUDGET, FieldSpec, ImageReport, check_budget, field_tables, sl2_group
from wordmaps.tracepoly import S, T, U, TracePolynomial, tau
from wordmaps.words import ALPHABET, Shape, Word, WordSyntaxError, commutator, family_word, yk

# `derandomize=True` and no example database make every run draw the same
# examples; the example count keeps the property tests short.
LAWS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def random_reduced_word(rng: random.Random, max_len: int = 12) -> Word:
    """A uniformly grown reduced word of length between 1 and max_len."""
    target = rng.randint(1, max_len)
    letters: list[int] = []
    while len(letters) < target:
        options = [l for l in ALPHABET if not letters or l != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(letters)


CORPUS_SEED = 20250809
CORPUS_RANDOM_COUNT = 10


def standard_corpus() -> list[Word]:
    """The fixed word corpus replayed by the cross-validation suites.

    Contains the empty word, the generators, the commutator, y_k for
    k <= 4 in both variants, every family word with k <= 4, and
    CORPUS_RANDOM_COUNT random reduced words of length <= 12 drawn from
    a generator seeded with CORPUS_SEED.
    """
    x1, x2 = Word((1,)), Word((2,))
    out = [Word(), x1, x2, commutator(x1, x2)]
    for inner in (1, -1):
        for k in range(1, 5):
            out.append(yk(inner, k))
    for which in Shape:
        for inner in (1, -1):
            for k in range(1, 5):
                out.append(family_word(which, inner, k))
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_RANDOM_COUNT):
        out.append(random_reduced_word(rng))
    return list(dict.fromkeys(out))


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "x":
            if i + 1 < len(text) and text[i + 1] in "12":
                tokens.append(("gen", int(text[i + 1]), i))
                i += 2
            else:
                raise WordSyntaxError("expected 'x1' or 'x2'", i)
        elif ch in "()[],^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch in "+-0123456789":
            j = i + 1 if ch in "+-" else i
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            if k == j:
                raise WordSyntaxError("expected digits in exponent", i)
            tokens.append(("int", int(text[i:k]), i))
            i = k
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], end: int):
        self.tokens = tokens
        self.pos = 0
        self.end = end

    def peek(self) -> tuple[str, object, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, object, int]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.take()
        if tok[0] != kind:
            raise WordSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse_word(self, stops: tuple[str, ...]) -> Word:
        out = Word()
        saw_term = False
        while True:
            tok = self.peek()
            if tok is None or tok[0] in stops:
                if not saw_term:
                    pos = tok[2] if tok is not None else self.end
                    raise WordSyntaxError("expected a term", pos)
                return out
            out = out * self.parse_term()
            saw_term = True

    def parse_term(self) -> Word:
        base = self.parse_factor()
        tok = self.peek()
        if tok is not None and tok[0] == "^":
            self.take()
            _, n, _ = self.expect("int")
            return base ** n
        return base

    def parse_factor(self) -> Word:
        kind, value, pos = self.take()
        if kind == "gen":
            return Word((value,))
        if kind == "(":
            inner = self.parse_word((")",))
            self.expect(")")
            return inner
        if kind == "[":
            left = self.parse_word((",",))
            self.expect(",")
            right = self.parse_word(("]",))
            self.expect("]")
            return commutator(left, right)
        raise WordSyntaxError(f"unexpected token {value!r}", pos)


def oracle_parse_word(text: str) -> Word:
    """Word text parsed by a separate tokenizer and one method per grammar
    rule, recursing once per nesting level (so deep input exhausts the
    call stack).  Its exponent digits are tested with str.isdigit, so
    unlike parse_word it reads non-ASCII digits; on ASCII text the two
    agree on every word and every error message and position."""
    tokens = _tokenize(text)
    if not tokens:
        return Word()
    return _Parser(tokens, len(text)).parse_word(())

IntMat = tuple[tuple[int, int], tuple[int, int]]

INT_IDENTITY: IntMat = ((1, 0), (0, 1))


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv(a: IntMat) -> IntMat:
    # determinant-1 inverse
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def mat_trace(a: IntMat) -> int:
    return a[0][0] + a[1][1]


def mat_det(a: IntMat) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def random_int_sl2(rng: random.Random, steps: int = 6, bound: int = 3) -> IntMat:
    """Random product of elementary shears: always integer, determinant 1."""
    acc = INT_IDENTITY
    for _ in range(rng.randint(2, steps)):
        v = rng.randint(-bound, bound)
        shear = ((1, v), (0, 1)) if rng.random() < 0.5 else ((1, 0), (v, 1))
        acc = mat_mul(acc, shear)
    return acc


def eval_word_int(w: Word, x: IntMat, y: IntMat) -> IntMat:
    mats = {1: x, -1: mat_inv(x), 2: y, -2: mat_inv(y)}
    acc = INT_IDENTITY
    for letter in w:
        acc = mat_mul(acc, mats[letter])
    return acc


def oracle_tau(w: Word) -> TracePolynomial:
    """tau(w) by walking e = c1*1 + cx*X + cy*Y + cxy*XY letter by letter
    through TracePolynomial arithmetic, with the rewriting rules of the
    wordmaps.tracepoly docstring, e*X^-1 = s*e - e*X and e*Y^-1 = t*e - e*Y;
    trace 2*c1 + s*cx + t*cy + u*cxy."""
    zero = TracePolynomial()
    c1, cx, cy, cxy = TracePolynomial.constant(1), zero, zero, zero
    for letter in w:
        if letter in (1, -1):
            n1 = -cx - (S * T - U) * cy - T * cxy
            nx = c1 + S * cx + T * cy + U * cxy
            ny, nxy = S * cy + cxy, -cy
        else:
            n1, nx, ny, nxy = -cy, -cxy, c1 + T * cy, cx + T * cxy
        if letter > 0:
            c1, cx, cy, cxy = n1, nx, ny, nxy
        else:
            g = S if letter == -1 else T
            c1, cx, cy, cxy = g * c1 - n1, g * cx - nx, g * cy - ny, g * cxy - nxy
    return 2 * c1 + S * cx + T * cy + U * cxy


MINUS = "−"


def oracle_parse_poly(text: str, names: str = "stu") -> TracePolynomial:
    """The polynomial of render_poly's text: terms joined by " + " or
    " − " (U+2212), "−" before a negative first term, each term a
    coefficient and powers joined by "*", with coefficient 1 and exponent 1
    elided; a constant term is a bare integer and zero is "0".  Malformed
    text raises ValueError."""
    if text == "0":
        return TracePolynomial()
    negative = text.startswith(MINUS)
    parts = re.split(f" ([+{MINUS}]) ", text[1:] if negative else text)
    signs = [MINUS if negative else "+", *parts[1::2]]
    terms: dict[tuple[int, int, int], int] = {}
    for sign, body in zip(signs, parts[::2]):
        factors = body.split("*")
        written = re.fullmatch("[0-9]+", factors[0])
        coef = int(factors.pop(0)) if written else 1
        exponents = [0, 0, 0]
        for factor in factors:
            power = re.fullmatch(f"([{names}])(?:\\^([0-9]+))?", factor)
            if power is None or power[2] in ("0", "1"):
                raise ValueError(f"bad power {factor!r} in {text!r}")
            exponents[names.index(power[1])] = int(power[2] or 1)
        if coef == 0 or (written and coef == 1 and factors) or tuple(exponents) in terms:
            raise ValueError(f"bad term {body!r} in {text!r}")
        terms[tuple(exponents)] = -coef if sign == MINUS else coef
    return TracePolynomial(terms)


def reduced_letter_tuples(max_len: int) -> Iterator[tuple[int, ...]]:
    """Every freely reduced nonempty letter tuple of length <= max_len,
    in depth-first order."""
    stack: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if stack:
            yield tuple(stack)
        if len(stack) == max_len:
            return
        for letter in ALPHABET:
            if not stack or letter != -stack[-1]:
                stack.append(letter)
                yield from rec()
                stack.pop()

    yield from rec()


def oracle_proper_power(w: Word) -> tuple[bool, Word | None, int | None]:
    """Independent proper-power decision: strip the conjugating shell via
    word algebra, then for each divisor root-length rebuild the candidate
    power through free multiplication and compare with w itself.

    A candidate exponent m is skipped unless it divides the gcd of w's two
    exponent sums: conjugation keeps those sums, and v^m multiplies them
    by m."""
    sums = [sum((l > 0) - (l < 0) for l in w.letters if abs(l) == g) for g in (1, 2)]
    exponent_gcd = math.gcd(*sums)
    core = w
    conj = Word()
    while core.letters and core.letters[0] == -core.letters[-1]:
        g = Word((core.letters[0],))
        conj = conj * g
        core = (~g) * core * g
    n = len(core)
    for d in range(1, n):
        if n % d or exponent_gcd % (n // d):
            continue
        root = conj * Word(core.letters[:d]) * ~conj
        if root ** (n // d) == w:
            return True, root, n // d
    return False, None, None


def divisors_above_one(n: int) -> list[int]:
    """The divisors d > 1 of n >= 1, ascending, by testing every d <= n."""
    return [d for d in range(2, n + 1) if n % d == 0]


def multiplicative_order(a: int, n: int) -> int:
    """Least f >= 1 with a^f = 1 (mod n), by repeated multiplication."""
    if n < 1 or math.gcd(a, n) != 1:
        raise ValueError(f"order of {a} mod {n} undefined")
    if n <= 2:
        return 1
    acc = a % n
    f = 1
    while acc != 1:
        acc = acc * a % n
        f += 1
    return f


def oracle_inertia_degrees(p: int, k_pm: int) -> tuple[int, ...]:
    """f_i for i = 1..k_pm, each computed afresh: the least f >= 1 with
    p^f = ±1 modulo d = m / gcd(m, i), m = 2*k_pm+1, which is the order of p
    mod d, or half of it when p^(order/2) = -1 mod d."""
    m = 2 * k_pm + 1
    degrees = []
    for i in range(1, k_pm + 1):
        d = m // math.gcd(m, i)
        order = multiplicative_order(p, d)
        half = order % 2 == 0 and pow(p, order // 2, d) == d - 1
        degrees.append(order // 2 if half else order)
    return tuple(degrees)


class FqElement:
    """Element of F_(p^n): reduced coefficient tuple, low-degree-first.

    Products are schoolbook polynomial products reduced by the monic
    modulus, so this type shares no arithmetic with the field tables."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def from_index(cls, field: FieldSpec, i: int) -> "FqElement":
        return cls(field, tuple(i // field.p**j % field.p for j in range(field.n)))

    @property
    def index(self) -> int:
        return sum(c * self.field.p**j for j, c in enumerate(self.coeffs))

    def _coerce(self, value: int) -> "FqElement":
        return FqElement(self.field, (value % self.field.p,) + (0,) * (self.field.n - 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FqElement):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "FqElement":
        if isinstance(other, int):
            other = self._coerce(other)
        p = self.field.p
        return FqElement(self.field, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return FqElement(self.field, tuple([-c % p for c in self.coeffs]))

    def __sub__(self, other: "FqElement") -> "FqElement":
        return self + -other

    def __mul__(self, other) -> "FqElement":
        if isinstance(other, int):
            other = self._coerce(other)
        field = self.field
        n, modulus = field.n, field.modulus
        if n == 1:  # the common case, with nothing to reduce
            return FqElement(field, (self.coeffs[0] * other.coeffs[0] % field.p,))
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        # x^n = -(m_0 + ... + m_(n-1) x^(n-1)), from the top degree down
        for k in range(2 * n - 2, n - 1, -1):
            c = prod.pop()
            for i in range(n):
                prod[k - n + i] -= c * modulus[i]
        p = field.p
        return FqElement(field, tuple([c % p for c in prod]))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FqElement":
        result = self._coerce(1)
        for _ in range(e):
            result = result * self
        return result


def reducible_monics(p: int, n: int) -> frozenset[tuple[int, ...]]:
    """Every reducible monic polynomial of degree n over F_p, as coefficient
    tuples low-degree-first: each product g*h of two monic polynomials of
    positive degree, multiplied out by schoolbook."""
    out = set()
    for dg in range(1, n):
        for tg in itertools.product(range(p), repeat=dg):
            for th in itertools.product(range(p), repeat=n - dg):
                prod = [0] * (n + 1)
                for i, a in enumerate(tg + (1,)):
                    for j, b in enumerate(th + (1,)):
                        prod[i + j] += a * b
                out.add(tuple([c % p for c in prod]))
    return frozenset(out)


def field_elements(field: FieldSpec) -> list[FqElement]:
    """Every element of F_q, in index order."""
    return [FqElement.from_index(field, i) for i in range(field.q)]


class Mat2:
    """2x2 determinant-1 matrix over F_(p^n); the constructor checks the
    determinant, products and inverses skip the check."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: FqElement, b: FqElement, c: FqElement, d: FqElement):
        self.a, self.b, self.c, self.d = a, b, c, d
        if self.det() != a._coerce(1):
            raise ValueError("determinant must be 1")

    @staticmethod
    def _unchecked(a, b, c, d) -> "Mat2":
        m = object.__new__(Mat2)
        m.a, m.b, m.c, m.d = a, b, c, d
        return m

    @classmethod
    def from_indices(cls, field: FieldSpec, m: tuple[int, int, int, int]) -> "Mat2":
        """The matrix of an index 4-tuple (a, b, c, d) from wordmaps.gf."""
        return cls(*(FqElement.from_index(field, i) for i in m))

    @classmethod
    def identity(cls, field: FieldSpec) -> "Mat2":
        return cls._unchecked(*(FqElement.from_index(field, i) for i in (1, 0, 0, 1)))

    def __mul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return Mat2._unchecked(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "Mat2":
        return Mat2._unchecked(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "Mat2":
        return Mat2._unchecked(-self.a, -self.b, -self.c, -self.d)

    def trace(self) -> FqElement:
        return self.a + self.d

    def det(self) -> FqElement:
        return self.a * self.d - self.b * self.c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat2) and (self.a, self.b, self.c, self.d) == (
            other.a, other.b, other.c, other.d,
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))


def eval_word(w: Word, x: Mat2, y: Mat2) -> Mat2:
    """Left-to-right product of the letter images; the inverse of
    [a b; c d] with determinant 1 is [d -b; -c a]."""
    mats = {1: x, -1: x.inv(), 2: y, -2: y.inv()}
    acc = Mat2.identity(x.a.field)
    for letter in w:
        acc = acc * mats[letter]
    return acc


def tau_sides(field: FieldSpec, x: tuple[int, ...], y: tuple[int, ...]):
    """For the index 4-tuples x, y of two SL2(F_q) elements, a function of
    (w, tau(w)) that returns both sides of tr w(x, y) = tau(w)(tr x, tr y,
    tr xy), for the caller to compare.

    Over a prime field an index is its residue, so x and y are read as
    integer matrices and both sides are evaluated over Z and reduced mod p:
    the adjugate in mat_inv is the inverse mod p, as det = 1 mod p.  Over
    an extension field both sides are FqElements, through Mat2."""
    if field.n == 1:
        p = field.p
        xm, ym = (x[:2], x[2:]), (y[:2], y[2:])
        s, t, u = mat_trace(xm), mat_trace(ym), mat_trace(mat_mul(xm, ym))
        return lambda w, poly: (mat_trace(eval_word_int(w, xm, ym)) % p, poly.evaluate(s, t, u) % p)
    xm, ym = Mat2.from_indices(field, x), Mat2.from_indices(field, y)
    s, t, u = xm.trace(), ym.trace(), (xm * ym).trace()
    return lambda w, poly: (eval_word(w, xm, ym).trace(), poly.evaluate(s, t, u))


def oracle_trace_scan(w: Word, field: FieldSpec, budget: int = DEFAULT_BUDGET) -> ImageReport:
    """The plain trace scan: tau(w) reduced mod p, evaluated at every
    (s, t, u) in F_q^3 through the field tables, with no symmetry and no
    early exit."""
    total = check_budget("scan", field.q, budget)
    add, mul = field_tables(field)
    p = field.p
    terms = [
        (a, b, c, coef % p)
        for (a, b, c), coef in tau(w).terms.items()
        if coef % p
    ]
    max_deg = max((max(a, b, c) for a, b, c, _ in terms), default=0)
    pows = []
    for e in range(field.q):
        row = [1]
        for _ in range(max_deg):
            row.append(mul[row[-1]][e])
        pows.append(row)
    attained: set[int] = set()
    for sp in pows:
        for tp in pows:
            ucoeffs: dict[int, int] = {}
            for a, b, c, coef in terms:
                v = mul[mul[coef][sp[a]]][tp[b]]
                prev = ucoeffs.get(c)
                ucoeffs[c] = v if prev is None else add[prev][v]
            items = list(ucoeffs.items())
            for up in pows:
                val = 0
                for c, coef in items:
                    val = add[val][mul[coef][up[c]]]
                attained.add(val)
    return ImageReport(
        field=field,
        word=str(w),
        method="scan",
        image_traces=frozenset(attained),
        surjective=None,
        count=total,
    )


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // 2


def oracle_image_pairs(w: Word, field: FieldSpec, budget: int = DEFAULT_BUDGET) -> ImageReport:
    """The full pair enumeration: w evaluated on every pair of
    SL2(F_q)^2 through the field tables, each image matrix m keyed by
    min(m, -m) (w(+-x, +-y) differs from w(x, y) by a sign only), and
    `surjective` when psl2_order(q) keys are met."""
    total = check_budget("pairs", field.q, budget)
    add, mul = field_tables(field)
    neg = mul[field.p - 1]  # negation is the product by -1, whose index is p - 1
    group = sl2_group(field)
    letters = w.letters
    # the inverse of [a b; c d] with determinant 1 is [d -b; -c a]
    ginv = [(d, neg[b], neg[c], a) for a, b, c, d in group]
    traces: set[int] = set()
    images: set[tuple[int, int, int, int]] = set()
    for x, xi in zip(group, ginv):
        for y, yi in zip(group, ginv):
            mats = {1: x, -1: xi, 2: y, -2: yi}
            a, b, c, d = 1, 0, 0, 1
            for letter in letters:
                e, f, g, h = mats[letter]
                ra, rb, rc, rd = mul[a], mul[b], mul[c], mul[d]
                a, b, c, d = (
                    add[ra[e]][rb[g]], add[ra[f]][rb[h]],
                    add[rc[e]][rd[g]], add[rc[f]][rd[h]],
                )
            traces.add(add[a][d])
            images.add(min((a, b, c, d), (neg[a], neg[b], neg[c], neg[d])))
    return ImageReport(
        field=field,
        word=str(w),
        method="pairs",
        image_traces=frozenset(traces),
        surjective=len(images) == psl2_order(field.q),
        count=total,
    )
