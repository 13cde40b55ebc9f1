"""F_(p^n) arithmetic, SL2/PSL2 enumeration, and word-map image reports.

Field elements are coefficient vectors modulo a fixed monic irreducible
modulus.  The modulus for (p, n) is deterministic — the first irreducible
among the monic degree-n candidates ordered lexicographically on the
coefficient tuple compared low-degree-first — so every report reproduces
bit-for-bit across machines.  Enumeration orders are fixed and reports
carry no timing, so two identical runs give identical reports.  Odd
characteristic only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arith import is_prime
from .tracepoly import tau
from .words import Word

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """An enumeration would exceed its evaluation budget."""


def check_budget(method: str, q: int, budget: int | None = None) -> int:
    """The number of evaluations an image method makes over F_q: every pair
    of SL2(F_q)^2, (q(q^2-1))^2, for "pairs", every triple of F_q^3, q^3,
    for "scan".  Raises BudgetExceededError when it is over the budget
    (default 10^8).  Needs q alone, so it can run before q is factored or
    the field is built."""
    budget = DEFAULT_BUDGET if budget is None else budget
    total = (q * (q * q - 1)) ** 2 if method == "pairs" else q**3
    if total > budget:
        what, hint = (
            ("pair enumeration", "; use trace_scan instead")
            if method == "pairs"
            else ("trace scan", "")
        )
        # both counts are at least q: past the budget, q says enough, and
        # the count may be too long to print
        need = total if q <= budget else f"more than {budget}"
        raise BudgetExceededError(
            f"{what} needs {need} evaluations, over the budget {budget}{hint}"
        )
    return total


# -- polynomial helpers over F_p (tuples, low-degree-first) --

def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    rem = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(rem) > dm:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) <= dm:
            break
        factor = rem[-1] * inv_lead % p
        shift = len(rem) - len(m)
        for i, c in enumerate(m):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return _ptrim(rem)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base: Sequence[int], e: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    acc = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), m, p)
        acc = _pmod(_pmul(acc, acc, p), m, p)
        e >>= 1
    return result


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Rabin test: x^(p^n) == x mod f, and gcd(x^(p^(n/l)) - x, f) = 1 for
    every prime l dividing n."""
    n = len(mod) - 1
    if n == 1:
        return True
    x = (0, 1)
    if _psub(_ppowmod(x, p**n, mod, p), x, p):
        return False
    for ell in {ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)}:
        g = _pgcd(_psub(_ppowmod(x, p ** (n // ell), mod, p), x, p), mod, p)
        if len(g) != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """F_(p^n) presented as F_p[x]/(modulus); modulus is monic, stored
    low-degree-first with length n+1."""

    p: int
    n: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.n

    def zero(self) -> "FqElement":
        return FqElement(self, (0,) * self.n)

    def one(self) -> "FqElement":
        return FqElement(self, (1,) + (0,) * (self.n - 1))

    def from_int(self, v: int) -> "FqElement":
        return FqElement(self, (v % self.p,) + (0,) * (self.n - 1))

    def from_coeffs(self, coeffs: Iterable[int]) -> "FqElement":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.n:
            cs = list(_pmod(cs, self.modulus, self.p))
        cs += [0] * (self.n - len(cs))
        return FqElement(self, tuple(cs))

    def from_index(self, i: int) -> "FqElement":
        if not 0 <= i < self.q:
            raise ValueError(f"index {i} out of range for q={self.q}")
        cs = []
        for _ in range(self.n):
            i, r = divmod(i, self.p)
            cs.append(r)
        return FqElement(self, tuple(cs))


@functools.lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldSpec:
    """Deterministic field constructor; rejects even or composite p."""
    if p == 2:
        raise ValueError("even characteristic is not supported")
    if not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # F_p has a monic irreducible polynomial of every degree n >= 1.
    return next(
        FieldSpec(p, n, tail + (1,))
        for tail in itertools.product(range(p), repeat=n)
        if _is_irreducible(tail + (1,), p)
    )


class FqElement:
    """Element of F_(p^n): reduced coefficient tuple, low-degree-first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "FqElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")

    @staticmethod
    def _coerce(value, field: FieldSpec):
        if isinstance(value, FqElement):
            return value
        if isinstance(value, int):
            return field.from_int(value)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FqElement):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.n, self.coeffs))

    def __add__(self, other) -> "FqElement":
        other = self._coerce(other, self.field)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        p = self.field.p
        return FqElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return FqElement(self.field, tuple(-c % p for c in self.coeffs))

    def __sub__(self, other) -> "FqElement":
        other = self._coerce(other, self.field)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "FqElement":
        return (-self) + other

    def __mul__(self, other) -> "FqElement":
        other = self._coerce(other, self.field)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        field = self.field
        if field.n == 1:
            return FqElement(field, ((self.coeffs[0] * other.coeffs[0]) % field.p,))
        prod = _pmod(_pmul(self.coeffs, other.coeffs, field.p), field.modulus, field.p)
        return FqElement(field, prod + (0,) * (field.n - len(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if field.n == 1:
            return FqElement(field, (pow(self.coeffs[0], field.p - 2, field.p),))
        # Fermat: a^(q-1) = 1 in F_q*
        return self ** (field.q - 2)

    def __pow__(self, e: int) -> "FqElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    def __repr__(self) -> str:
        if self.field.n == 1:
            return f"Fq({self.coeffs[0]} mod {self.field.p})"
        return f"Fq({list(self.coeffs)} over GF({self.field.p}^{self.field.n}))"


@functools.lru_cache(maxsize=None)
def field_elements(field: FieldSpec) -> tuple[FqElement, ...]:
    return tuple(field.from_index(i) for i in range(field.q))


class Mat2:
    """2x2 determinant-1 matrix over F_(p^n)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: FqElement, b: FqElement, c: FqElement, d: FqElement):
        det = a * d - b * c
        if not det == det.field.one():
            raise ValueError("determinant must be 1")
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def _unchecked(a, b, c, d) -> "Mat2":
        m = object.__new__(Mat2)
        m.a, m.b, m.c, m.d = a, b, c, d
        return m

    @classmethod
    def identity(cls, field: FieldSpec) -> "Mat2":
        one, zero = field.one(), field.zero()
        return cls._unchecked(one, zero, zero, one)

    @property
    def field(self) -> FieldSpec:
        return self.a.field

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
        return (
            isinstance(other, Mat2)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a.coeffs, self.b.coeffs, self.c.coeffs, self.d.coeffs))

    def __repr__(self) -> str:
        return f"Mat2[{self.a!r} {self.b!r}; {self.c!r} {self.d!r}]"


@functools.lru_cache(maxsize=None)
def sl2_group(field: FieldSpec) -> tuple[Mat2, ...]:
    """All of SL2(F_q), ordered row-major over (a, b, c) with d solved from
    the determinant when a != 0; for a = 0 the constraint is bc = -1 and d
    runs over the whole field.  |SL2(F_q)| = q(q^2-1)."""
    elems = field_elements(field)
    one = field.one()
    out = []
    for a in elems:
        if a.is_zero():
            for b in elems:
                if b.is_zero():
                    continue
                c = -b.inverse()
                for d in elems:
                    out.append(Mat2._unchecked(a, b, c, d))
        else:
            ainv = a.inverse()
            for b in elems:
                for c in elems:
                    out.append(Mat2._unchecked(a, b, c, (one + b * c) * ainv))
    return tuple(out)


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // 2


def psl2_canonical(m: Mat2) -> Mat2:
    """Sign-normalized representative of {m, -m}: the first nonzero
    coefficient (low-degree-first) of the first nonzero entry (row-major)
    lies in [1, (p-1)/2]."""
    half = (m.field.p - 1) // 2
    for e in (m.a, m.b, m.c, m.d):
        for coef in e.coeffs:
            if coef:
                return m if coef <= half else -m
    raise ValueError("zero matrix cannot be sign-normalized")


def eval_word(w: Word, x: Mat2, y: Mat2) -> Mat2:
    """Left-to-right product of the letter images; the inverse of
    [a b; c d] with determinant 1 is [d -b; -c a]."""
    if x.field != y.field:
        raise ValueError("x and y must live over the same field")
    mats = {1: x, -1: x.inv(), 2: y, -2: y.inv()}
    acc = Mat2.identity(x.field)
    for letter in w:
        acc = acc * mats[letter]
    return acc


@dataclass(frozen=True)
class ImageReport:
    """Verdict of an image enumeration or trace-surface scan.

    `count` is the number of pair evaluations (pairs method) or scanned
    trace triples (scan method); `surjective` is only meaningful for the
    pairs method and stays None for the scan, which over-approximates the
    attainable traces.  Reports carry no timing, so identical runs give
    identical reports.
    """

    field: FieldSpec
    word: str
    method: str
    image_traces: frozenset[FqElement]
    misses_involutions: bool
    surjective: bool | None
    count: int

    def to_dict(self) -> dict:
        return {
            "q": self.field.q,
            "p": self.field.p,
            "n": self.field.n,
            "modulus": list(self.field.modulus),
            "word": self.word,
            "method": self.method,
            "image_trace_count": len(self.image_traces),
            "misses_involutions": self.misses_involutions,
            "surjective": self.surjective,
            "pairs_evaluated": self.count,
        }


def enumerate_image_pairs(w: Word, field: FieldSpec, budget: int | None = None) -> ImageReport:
    """Evaluate w on every pair in SL2(F_q)^2 and collect the image in
    PSL2(F_q) (sign-normalized lifts suffice: w(±x, ±y) differs from
    w(x, y) by a sign only).

    Reports the attained traces, whether any trace-0 element (an
    involution of PSL2) is hit, and whether the PSL2 image is all of
    PSL2(F_q).  Raises BudgetExceededError when |SL2|^2 exceeds the
    budget (default 10^8); use trace_scan for those fields.
    """
    total = check_budget("pairs", field.q, budget)
    group = sl2_group(field)
    letters = w.letters
    ginv = tuple(g.inv() for g in group)
    identity = Mat2.identity(field)
    traces: set[FqElement] = set()
    images: set[Mat2] = set()
    for x, xi in zip(group, ginv):
        for y, yi in zip(group, ginv):
            mats = {1: x, -1: xi, 2: y, -2: yi}
            acc = identity
            for letter in letters:
                acc = acc * mats[letter]
            traces.add(acc.trace())
            images.add(psl2_canonical(acc))
    return ImageReport(
        field=field,
        word=str(w),
        method="pairs",
        image_traces=frozenset(traces),
        misses_involutions=field.zero() not in traces,
        surjective=len(images) == psl2_order(field.q),
        count=total,
    )


def trace_scan(w: Word, field: FieldSpec, budget: int | None = None) -> ImageReport:
    """Evaluate tau(w) at every (s, t, u) in F_q^3 and report the attained
    values.

    The triples realized by actual pairs form a subset of F_q^3, so 0
    being absent from the scan certifies that no trace-0 element — hence
    no involution of PSL2(F_q) — lies in the image, independently of
    which triples are realized.  The scan says nothing about
    surjectivity, so `surjective` is None.
    """
    total = check_budget("scan", field.q, budget)
    p = field.p
    terms = [
        (a, b, c, field.from_int(coef))
        for (a, b, c), coef in tau(w).terms.items()
        if coef % p
    ]
    elems = field_elements(field)
    max_deg = max((max(a, b, c) for a, b, c, _ in terms), default=0)
    pows = []
    for e in elems:
        row = [field.one()]
        for _ in range(max_deg):
            row.append(row[-1] * e)
        pows.append(row)
    zero = field.zero()
    attained: set[FqElement] = set()
    for sp in pows:
        for tp in pows:
            ucoeffs: dict[int, FqElement] = {}
            for a, b, c, coef in terms:
                v = coef * sp[a] * tp[b]
                prev = ucoeffs.get(c)
                ucoeffs[c] = v if prev is None else prev + v
            items = list(ucoeffs.items())
            for up in pows:
                val = zero
                for c, coef in items:
                    val = val + coef * up[c]
                attained.add(val)
    return ImageReport(
        field=field,
        word=str(w),
        method="scan",
        image_traces=frozenset(attained),
        misses_involutions=zero not in attained,
        surjective=None,
        count=total,
    )
