"""F_(p^n) arithmetic, SL2 enumeration, and word-map image reports.

A field element is its index 0..q-1: the coefficients c_0, ..., c_(n-1)
of its residue modulo a fixed monic irreducible modulus, read as the
base-p number sum c_i p^i.  Sums and products are looked up in per-field
tables (field_tables), one path for prime and extension fields.  The
modulus for (p, n) is deterministic — the first irreducible among the
monic degree-n candidates ordered lexicographically on the coefficient
tuple compared low-degree-first, found by trial division — so every report
reproduces bit-for-bit across machines.  SL2(F_q) is the determinant-1
filter over F_q^4; the pairs kernel pairs it with one representative of
each GL2(F_q)-class of SL2(F_q).  Enumeration orders are fixed and
reports carry no timing, so two identical runs give identical reports.
Odd characteristic only.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Sequence

from .arith import is_prime
from .tracepoly import tau
from .words import Word

DEFAULT_BUDGET = 10**8


class BudgetExceededError(ValueError):
    """An enumeration would cover more cases than its budget."""


def check_budget(method: str, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """The budget count of an image method over F_q, the cases its verdict
    covers: every pair of SL2(F_q)^2, (q(q^2-1))^2, for "pairs", every
    triple of F_q^3, q^3, for "scan".  Raises BudgetExceededError when it is over the budget
    (default 10^8).  Needs q alone, so it can run before q is factored or
    the field is built.  A budget below 1 covers nothing, and is refused."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    total = (q * (q * q - 1)) ** 2 if method == "pairs" else q**3
    if total > budget:
        what, cases, hint = (("pair enumeration", "pairs", "; use trace_scan instead") if method == "pairs"
                             else ("trace scan", "triples", ""))
        # both counts are at least q: past the budget, q says enough, and
        # the count may be too long to print
        covers = total if q <= budget else f"more than {budget}"
        raise BudgetExceededError(
            f"{what} covers {covers} {cases}, over the budget {budget}{hint}"
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
    """The remainder of a modulo m; m is monic, as every divisor here is: the
    field's modulus and the trial divisors of _is_irreducible."""
    rem = list(a)
    dm = len(m) - 1
    while len(rem) > dm:
        # subtract top * x^shift * m, which clears the top coefficient
        top = rem.pop()
        if top:
            shift = len(rem) - dm
            for i in range(dm):
                rem[shift + i] = (rem[shift + i] - top * m[i]) % p
    return _ptrim(rem)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division: a monic f of degree n is irreducible iff no monic g
    of degree 1..n//2 divides it, since a factorization has a factor of
    degree at most n/2."""
    return all(
        _pmod(f, tail + (1,), p)
        for d in range(1, (len(f) - 1) // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )


class FieldSpec(NamedTuple):
    """F_(p^n) presented as F_p[x]/(modulus); modulus is monic, stored
    low-degree-first with length n+1."""

    p: int
    n: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.n


def make_field(p: int, n: int) -> FieldSpec:
    """F_(p^n) with the first monic irreducible degree-n modulus in
    lexicographic order on its coefficients, low-degree-first, found by
    trial division; rejects even or composite p."""
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


Tables = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@functools.lru_cache(maxsize=4)  # a request reads one field's tables: the kernel and sl2_group
def field_tables(field: FieldSpec) -> Tables:
    """(add, mul): q x q tables with add[a][b] and mul[a][b] the indices of
    the sum and the product of the elements with indices a and b.

    The element with coefficients c_0, ..., c_(n-1) (low-degree-first) has
    index sum c_i p^i, so 0 and 1 are the indices of zero and one, and an
    integer c in [0, p) is its own index.  The scan needs q^3 <= budget,
    so the budget bounds each table by budget^(2/3) entries.

    Both tables are filled by lookups, with no polynomial arithmetic per
    entry.  `mul` comes from a log table: g is the first primitive element
    in index order, the q - 1 powers g^i are walked by one polynomial
    product each, and mul[a][b] = g^((log a + log b) mod (q-1)) for
    nonzero a and b.  `add` is built one base-p digit at a time: its row
    for the index c + p*h repeats the row of h, each entry h' widened to
    the p indices p*h' + (c + d mod p) for d = 0..p-1.
    """
    p, n, q = field.p, field.n, field.q
    weights = [p**j for j in range(n)]
    for g in range(2, q):  # 1 is not primitive: q >= 3
        gen = tuple(g // w % p for w in weights)
        exp, power = [1], (1,)
        while True:
            power = _pmod(_pmul(power, gen, p), field.modulus, p)
            index = sum(c * w for c, w in zip(power, weights))
            if index == 1:
                break
            exp.append(index)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, e in enumerate(exp):
        log[e] = i
    logs, exp2 = log[1:], exp + exp
    mul = ((0,) * q,) + tuple(
        (0,) + tuple(map(exp2[log[a]:].__getitem__, logs)) for a in range(1, q)
    )
    shifts = [tuple(range(c, p)) + tuple(range(c)) for c in range(p)]
    add: list[tuple[int, ...]] = [(0,)]
    for _ in range(n):
        add = [
            tuple(p * h + d for h in row for d in shifts[c])
            for row in add
            for c in range(p)
        ]
    return tuple(add), mul


def sl2_group(field: FieldSpec) -> tuple[tuple[int, int, int, int], ...]:
    """All of SL2(F_q) as index 4-tuples (a, b, c, d) of [a b; c d], by the
    definition: the quadruples of F_q^4, in lexicographic order, with
    ad = 1 + bc.  |SL2(F_q)| = q(q^2-1).  Not cached: a request lists one
    group once."""
    add, mul = field_tables(field)
    return tuple(
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(field.q), repeat=4)
        if mul[a][d] == add[1][mul[b][c]]
    )


class ImageReport(NamedTuple):
    """Verdict of an image enumeration or trace-surface scan.

    `image_traces` holds the attained traces as field indices (see
    field_tables), so 0 is the trace of an involution, and
    `misses_involutions` says that 0 is not among them.  `count` is the
    budget count, the cases the verdict covers rather than the evaluations
    made: the (q(q^2-1))^2 pairs of SL2(F_q)^2 (pairs method, which
    evaluates the word on (q + 2) q (q^2-1) of them, see
    enumerate_image_pairs) or the q^3 trace triples (scan method, which
    stops early, see trace_scan); `surjective` is only meaningful for the
    pairs method and stays None for the scan, whose traces are exactly
    the image's but do not decide surjectivity.  Reports carry no timing,
    so identical runs give identical reports.
    """

    field: FieldSpec
    word: str
    method: str
    image_traces: frozenset[int]
    surjective: bool | None
    count: int

    @property
    def misses_involutions(self) -> bool:
        return 0 not in self.image_traces

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


def enumerate_image_pairs(w: Word, field: FieldSpec, budget: int = DEFAULT_BUDGET) -> ImageReport:
    """The image of w on SL2(F_q)^2 in PSL2(F_q), from the pairs (x, y) with
    x one of q + 2 class representatives and y any element of sl2_group.

    A non-scalar matrix of SL2(F_q) with trace t is conjugate under
    GL2(F_q) to the companion matrix [0 -1; 1 t] of its characteristic
    polynomial, so +-1 and these q matrices represent every GL2-class.
    Conjugating a pair by g in GL2(F_q) keeps it in SL2(F_q)^2 and
    conjugates w(x, y), so the pairs with x a representative meet every
    orbit: the attained traces are exactly those of all |SL2|^2 pairs, and
    the image is the union of the PGL2(F_q)-classes that these pairs hit.
    For odd q the PGL2-classes of PSL2(F_q) are {1}, the unipotents, and one
    class per +-t with t != +-2.  So w is surjective exactly when every +-t
    with t != +-2 is attained and some w(x, y) != +-1 has trace +-2; {1} is
    always hit, by w(1, 1).

    `count` stays (q(q^2-1))^2, the pairs the verdict covers and the budget
    count; the loop makes (q + 2) q (q^2-1) evaluations.  Raises
    BudgetExceededError when (q(q^2-1))^2 exceeds the budget (default
    10^8); use trace_scan for those fields.
    """
    total = check_budget("pairs", field.q, budget)
    add, mul = field_tables(field)
    neg = mul[field.p - 1]  # negation is the product by -1, whose index is p - 1
    twos = (2, neg[2])  # an integer below p is its own index, and p >= 3
    group = sl2_group(field)
    letters = w.letters
    reps = [(1, 0, 0, 1), (neg[1], 0, 0, neg[1])]
    reps += [(0, neg[1], 1, t) for t in range(field.q)]
    # the inverse of [a b; c d] with determinant 1 is [d -b; -c a]
    ginv = [(d, neg[b], neg[c], a) for a, b, c, d in group]
    traces: set[int] = set()
    unipotent = False
    for x in reps:
        xi = (x[3], neg[x[1]], neg[x[2]], x[0])
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
            trace = add[a][d]
            traces.add(trace)
            if trace in twos and (b or c or a != d):  # not +-1
                unipotent = True
    return ImageReport(
        field=field,
        word=str(w),
        method="pairs",
        image_traces=frozenset(traces),
        surjective=unipotent and all(
            t in traces or neg[t] in traces for t in range(field.q) if t not in twos
        ),
        count=total,
    )


def trace_scan(w: Word, field: FieldSpec, budget: int = DEFAULT_BUDGET) -> ImageReport:
    """Evaluate tau(w) over F_q^3 and report the attained values.

    Every triple of F_q^3 is (tr x, tr y, tr xy) for some pair x, y in
    SL2(F_q) (Macbeath 1969), so the attained values are exactly the traces
    of the image, and 0 missing certifies that no involution of PSL2(F_q)
    lies in the image.  Traces alone do not decide surjectivity (a trace
    of +-2 may come from +-1 or from a unipotent), so `surjective` is None.

    The scan takes one (s, t) row, with every u, per orbit of three
    symmetries of the reduced polynomial P, and marks the orbit's rows:
    - (s, u) -> (-s, -u) multiplies P by (-1)^e1, with e1 the exponent
      sum of x1 in w, as w(-x, y) = (-1)^e1 w(x, y);
    - (t, u) -> (-t, -u) likewise by (-1)^e2, with e2 that of x2;
    - x -> x^p maps each value v to v^p, as P has its coefficients in F_p.
    The attained set is kept closed under v -> v^p, and under v -> -v when
    e1 or e2 is odd, so it equals the plain scan's; the scan stops once it
    holds all q values.  `count` stays q^3, the budget count.
    """
    total = check_budget("scan", field.q, budget)
    add, mul = field_tables(field)
    p, n, q = field.p, field.n, field.q
    terms = [
        (a, b, c, coef % p)
        for (a, b, c), coef in tau(w).terms.items()
        if coef % p
    ]
    max_deg = max((max(a, b, c) for a, b, c, _ in terms), default=0)
    pows = []
    for e in range(q):
        row = [1]
        for _ in range(max_deg):
            row.append(mul[row[-1]][e])
        pows.append(row)
    neg = mul[p - 1]  # negation is the product by -1, whose index is p - 1
    frob = list(range(q))  # x -> x^p, the identity on F_p
    if n > 1:
        for e in range(q):
            for _ in range(p - 1):
                frob[e] = mul[frob[e]][e]
    # an exponent sum is odd exactly when its generator's letter count is
    negate = any(sum(abs(l) == g for l in w.letters) % 2 for g in (1, 2))
    scanned = bytearray(q * q)
    attained: set[int] = set()
    for st in range(q * q):
        if scanned[st]:
            continue
        s, t = divmod(st, q)
        sp, tp = pows[s], pows[t]
        for _ in range(n):
            for s2 in (s, neg[s]):
                for t2 in (t, neg[t]):
                    scanned[s2 * q + t2] = 1
            s, t = frob[s], frob[t]
        ucoeffs: dict[int, int] = {}
        for a, b, c, coef in terms:
            v = mul[mul[coef][sp[a]]][tp[b]]
            prev = ucoeffs.get(c)
            ucoeffs[c] = v if prev is None else add[prev][v]
        items = list(ucoeffs.items())
        values = set()
        for up in pows:
            val = 0
            for c, coef in items:
                val = add[val][mul[coef][up[c]]]
            values.add(val)
        for v in values - attained:
            for _ in range(n):
                attained.add(v)
                if negate:
                    attained.add(neg[v])
                v = frob[v]
        if len(attained) == q:
            break
    return ImageReport(
        field=field,
        word=str(w),
        method="scan",
        image_traces=frozenset(attained),
        surjective=None,
        count=total,
    )
