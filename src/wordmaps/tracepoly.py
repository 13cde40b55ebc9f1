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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .arith import divisors, kpm
from .words import Shape, Word, family_word, y1, yk

Monomial = tuple[int, int, int]

MINUS_SIGN = "−"  # canonical renderer joins terms with " + " / " − "


def _mul_terms(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    if len(b) > len(a):
        a, b = b, a
    if len(b) == 1:
        ((mb, cb),) = b.items()
        if mb == (0, 0, 0):
            return {m: c * cb for m, c in a.items()}
        ib, jb, kb = mb
        return {(i + ib, j + jb, k + kb): c * cb for (i, j, k), c in a.items()}
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
        self.terms: dict[Monomial, int] = {
            m: int(c) for m, c in (terms or {}).items() if c
        }

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

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def evaluate(self, s, t, u):
        """Evaluate over any commutative ring whose elements support the
        arithmetic operators with each other and with ints."""
        total = 0
        for (a, b, c), coef in sorted(self.terms.items()):
            total = total + coef * s**a * t**b * u**c
        return total

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"TracePolynomial<{render_poly(self)}>"


ZERO = TracePolynomial()
ONE = TracePolynomial.constant(1)
S = TracePolynomial({(1, 0, 0): 1})
T = TracePolynomial({(0, 1, 0): 1})
U = TracePolynomial({(0, 0, 1): 1})
_ST_MINUS_U = S * T - U


def _monomial_str(m: Monomial) -> str:
    return "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip("stu", m)
        if e
    )


def _join_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Signed sum of (nonzero coefficient, monomial text) pairs, in the
    given order: " + " / " − " between terms, a leading "−" for a negative
    first term, and coefficient 1 elided unless the monomial is empty."""
    pieces = []
    for c, mono in terms:
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not pieces:
            pieces.append(body if c > 0 else MINUS_SIGN + body)
        else:
            pieces.append((" + " if c > 0 else f" {MINUS_SIGN} ") + body)
    return "".join(pieces) or "0"


def render_poly(p: TracePolynomial) -> str:
    """Canonical text: terms in graded-lex descending order, joined with
    " + " / " − ", coefficient 1 and exponent 1 elided, e.g. "s^2*t − 2*u + 3"."""
    ordered = sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
    return _join_terms((c, _monomial_str(m)) for m, c in ordered)


@dataclass(frozen=True)
class SymbolicGroupElement:
    """Element c1*1 + cx*X + cy*Y + cxy*XY of the rank-4 expansion module
    generated by two generic determinant-1 matrices X and Y."""

    c1: TracePolynomial
    cx: TracePolynomial
    cy: TracePolynomial
    cxy: TracePolynomial

    @classmethod
    def identity(cls) -> "SymbolicGroupElement":
        return cls(ONE, ZERO, ZERO, ZERO)

    def scale(self, poly) -> "SymbolicGroupElement":
        return SymbolicGroupElement(
            poly * self.c1, poly * self.cx, poly * self.cy, poly * self.cxy
        )

    def __add__(self, other: "SymbolicGroupElement") -> "SymbolicGroupElement":
        return SymbolicGroupElement(
            self.c1 + other.c1,
            self.cx + other.cx,
            self.cy + other.cy,
            self.cxy + other.cxy,
        )

    def __sub__(self, other: "SymbolicGroupElement") -> "SymbolicGroupElement":
        return SymbolicGroupElement(
            self.c1 - other.c1,
            self.cx - other.cx,
            self.cy - other.cy,
            self.cxy - other.cxy,
        )

    def _times_x(self) -> "SymbolicGroupElement":
        return SymbolicGroupElement(
            -self.cx - _ST_MINUS_U * self.cy - T * self.cxy,
            self.c1 + S * self.cx + T * self.cy + U * self.cxy,
            S * self.cy + self.cxy,
            -self.cy,
        )

    def _times_y(self) -> "SymbolicGroupElement":
        return SymbolicGroupElement(
            -self.cy,
            -self.cxy,
            self.c1 + T * self.cy,
            self.cx + T * self.cxy,
        )

    def times_letter(self, letter: int) -> "SymbolicGroupElement":
        if letter == 1:
            return self._times_x()
        if letter == -1:
            return self.scale(S) - self._times_x()
        if letter == 2:
            return self._times_y()
        return self.scale(T) - self._times_y()

    def __mul__(self, other: "SymbolicGroupElement") -> "SymbolicGroupElement":
        ax = self._times_x()
        ay = self._times_y()
        axy = ax._times_y()
        return (
            self.scale(other.c1)
            + ax.scale(other.cx)
            + ay.scale(other.cy)
            + axy.scale(other.cxy)
        )

    def trace(self) -> TracePolynomial:
        return 2 * self.c1 + S * self.cx + T * self.cy + U * self.cxy


@functools.lru_cache(maxsize=4096)
def tau(w: Word) -> TracePolynomial:
    """Trace polynomial of w: for every field and every determinant-1 pair
    (x, y), tr(w(x, y)) = tau(w)(tr x, tr y, tr xy)."""
    elt = SymbolicGroupElement.identity()
    for letter in w:
        elt = elt.times_letter(letter)
    return elt.trace()


class IntPoly:
    """Dense univariate polynomial over Z, low-degree-first coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x_power(cls, k: int) -> "IntPoly":
        return cls((0,) * k + (1,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _coerce(value) -> "IntPoly":
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly((value,))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other) -> "IntPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division over Z; every intermediate leading coefficient must
        divide exactly (always true for monic divisors)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        q = [0] * max(len(rem) - len(div) + 1, 0)
        while len(rem) >= len(div) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(div):
                break
            factor, r = divmod(rem[-1], div[-1])
            if r:
                raise ValueError(f"{rem[-1]} is not divisible by {div[-1]}")
            shift = len(rem) - len(div)
            q[shift] = factor
            for i, c in enumerate(div):
                rem[shift + i] -= factor * c
        return IntPoly(q), IntPoly(rem)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError(f"inexact division: remainder {rem}")
        return quo

    def horner(self, x):
        """Evaluate at x in any ring that mixes with ints under + and *."""
        if not self.coeffs:
            return 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def render(self, var: str = "T") -> str:
        return _join_terms(
            (c, "" if e == 0 else (var if e == 1 else f"{var}^{e}"))
            for e, c in reversed(list(enumerate(self.coeffs)))
            if c
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"IntPoly<{self.render('x')}>"


@functools.lru_cache(maxsize=None)
def dickson(i: int) -> IntPoly:
    """Trace-of-power polynomials: D_0 = 2, D_1 = T, D_(i+1) = T*D_i - D_(i-1),
    so that tr(g^i) = D_i(tr g) for any determinant-1 matrix g."""
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    if i == 0:
        return IntPoly((2,))
    if i == 1:
        return IntPoly((0, 1))
    return IntPoly((0, 1)) * dickson(i - 1) - dickson(i - 2)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPoly:
    """Phi_m, by exact division of x^m - 1 by the product of the Phi_d over
    the proper divisors d of m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    poly = IntPoly.x_power(m) - 1
    for d in divisors(m)[:-1]:
        poly = poly.exact_div(cyclotomic_polynomial(d))
    return poly


class CyclotomicElement:
    """Residue in Z[x]/Phi_m(x), stored as exactly phi(m) coefficients."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Iterable[int]):
        phi = cyclotomic_polynomial(m).degree()
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != phi:
            raise ValueError(f"need {phi} coefficients for modulus {m}, got {len(cs)}")
        self.m = m
        self.coeffs = cs

    @classmethod
    def from_poly(cls, m: int, poly: IntPoly) -> "CyclotomicElement":
        _, rem = divmod(poly, cyclotomic_polynomial(m))
        phi = cyclotomic_polynomial(m).degree()
        cs = rem.coeffs + (0,) * (phi - len(rem.coeffs))
        return cls(m, cs)

    @classmethod
    def zeta_power(cls, m: int, j: int) -> "CyclotomicElement":
        return cls.from_poly(m, IntPoly.x_power(j % m))

    def _poly(self) -> IntPoly:
        return IntPoly(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @staticmethod
    def _coerce(value, m: int):
        if isinstance(value, CyclotomicElement):
            return value if value.m == m else NotImplemented
        if isinstance(value, int):
            return CyclotomicElement.from_poly(m, IntPoly((value,)))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other, self.m)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def __add__(self, other) -> "CyclotomicElement":
        other = self._coerce(other, self.m)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicElement(
            self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.m, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "CyclotomicElement":
        other = self._coerce(other, self.m)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "CyclotomicElement":
        other = self._coerce(other, self.m)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicElement.from_poly(self.m, self._poly() * other._poly())

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CyclotomicElement(m={self.m}, {self._poly().render('x')})"


def alternating_dickson_sum(n: int) -> IntPoly:
    """The degree-n bracket sum_(i=1..n) (-1)^(n-i) D_i + (-1)^n that the
    outer-power trace factorization multiplies by (s^2 - 2)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = IntPoly.constant((-1) ** n)
    for i in range(1, n + 1):
        acc = acc + (-1) ** (n - i) * dickson(i)
    return acc


def cyclotomic_root_check(k_pm: int) -> bool:
    """Certify alternating_dickson_sum(k_pm) equals the monic product
    prod_(i=1..k_pm) (T + zeta^i + zeta^(-i)) over the (2*k_pm+1)-th roots
    of unity, entirely in exact integer arithmetic.

    The product is squarefree of degree k_pm, and its roots fall into one
    conjugacy class per divisor d > 1 of 2*k_pm+1; so matching degree and
    leading coefficient plus vanishing at -(x + x^(d-1)) in Z[x]/Phi_d(x)
    for every such d pins the polynomial down.
    """
    if k_pm < 1:
        raise ValueError(f"k_pm must be >= 1, got {k_pm}")
    candidate = alternating_dickson_sum(k_pm)
    if candidate.degree() != k_pm or candidate.leading() != 1:
        return False
    m = 2 * k_pm + 1
    for d in divisors(m):
        if d == 1:
            continue
        root = -(CyclotomicElement.zeta_power(d, 1) + CyclotomicElement.zeta_power(d, d - 1))
        value = candidate.horner(root)
        if not value.is_zero():
            return False
    return True


_X1SQ = Word((1, 1))
_X1NEGSQ = ~_X1SQ


def swap_certificate(k: int, inner_sign: int = 1) -> tuple[TracePolynomial, TracePolynomial, bool]:
    """(lhs, rhs, verdict) of the exact polynomial identity
    tau(x1^2 y_(k-1)) == tau(x1^(-2) y_k); holds for every integer k and
    either y1 variant."""
    lhs = tau(_X1SQ * yk(inner_sign, k - 1))
    rhs = tau(_X1NEGSQ * yk(inner_sign, k))
    return lhs, rhs, lhs == rhs


def verify_swap(k: int, inner_sign: int = 1) -> bool:
    """The verdict of swap_certificate."""
    return swap_certificate(k, inner_sign)[2]


def factorization_sum_form(k: int, which: Shape, inner_sign: int = 1) -> TracePolynomial:
    """(s^2 - 2) * (sum_(i=1..kpm) (-1)^(kpm-i) tau(y_i) + (-1)^kpm), with
    tau(y_i) produced by substituting tau(y_1) into the power recurrence.
    kpm is k for the x1^2 y_k shape and k-1 for the other two; for kpm = 0
    the bracket is the empty sum plus (-1)^0 = 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    bracket = alternating_dickson_sum(kpm(k, which)).horner(tau(y1(inner_sign)))
    return (S * S - 2) * bracket


def factorization_certificate(
    k: int, which: Shape, inner_sign: int = 1
) -> tuple[TracePolynomial, TracePolynomial, bool]:
    """(lhs, rhs, verdict) with lhs = tau(family_word) and rhs the
    alternating sum form; the verdict also requires the traces of
    x1^2 y_(-k) and x1^(-2) y_k to agree as polynomials."""
    lhs = tau(family_word(which, inner_sign, k))
    rhs = factorization_sum_form(k, which, inner_sign)
    verdict = lhs == rhs and (
        tau(_X1SQ * yk(inner_sign, -k)) == tau(_X1NEGSQ * yk(inner_sign, k))
    )
    return lhs, rhs, verdict


def verify_factorization(k: int, which: Shape, inner_sign: int | None = None) -> bool:
    """The verdict of factorization_certificate for the requested y1
    variant (default: both)."""
    signs = (1, -1) if inner_sign is None else (inner_sign,)
    return all(factorization_certificate(k, which, sign)[2] for sign in signs)
