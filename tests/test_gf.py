import gc
import itertools
import json
import tracemalloc

import pytest

from wordmaps import cli, gf
from wordmaps.arith import check_nonsurjectivity_conditions, odd_prime_power, primes_up_to, RamifiedPrimeError
from wordmaps.gf import (
    BudgetExceededError,
    _is_irreducible,
    enumerate_image_pairs,
    field_tables,
    make_field,
    sl2_group,
    trace_scan,
)
from wordmaps.tracepoly import TracePolynomial, tau
from wordmaps.words import Shape, Word, family_word, parse_word
from util import (
    FqElement,
    Mat2,
    eval_word,
    field_elements,
    oracle_image_pairs,
    oracle_trace_scan,
    psl2_order,
    reducible_monics,
    standard_corpus,
)


# -- deterministic modulus selection --

def test_make_field_degree_one_modulus_is_x():
    assert make_field(3, 1).modulus == (0, 1)
    assert make_field(13, 1).modulus == (0, 1)


def test_make_field_3_3_matches_exhaustive_oracle():
    reducible = reducible_monics(3, 3)
    expected = next(
        tail + (1,) for tail in itertools.product(range(3), repeat=3) if tail + (1,) not in reducible
    )
    field = make_field(3, 3)
    assert field.modulus == expected == (1, 0, 2, 1)  # x^3 + 2x^2 + 1


IRREDUCIBILITY_FIELDS = [(p, n) for p in (3, 5, 7) for n in range(1, 5)] + [(3, 5), (3, 6)]


@pytest.mark.parametrize("p,n", IRREDUCIBILITY_FIELDS)
def test_irreducible_exactly_when_no_product(p, n):
    # trial division against the set of products g*h, and the modulus is
    # the first monic candidate outside that set
    reducible = reducible_monics(p, n)
    monics = [tail + (1,) for tail in itertools.product(range(p), repeat=n)]
    assert [_is_irreducible(f, p) for f in monics] == [f not in reducible for f in monics]
    assert make_field(p, n).modulus == next(f for f in monics if f not in reducible)


def test_make_field_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        make_field(2, 1)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_moduli_are_irreducible_no_roots():
    for p, n in ((3, 2), (3, 3), (5, 2), (7, 2)):
        field = make_field(p, n)
        for a in range(p):
            value = sum(c * a**i for i, c in enumerate(field.modulus)) % p
            assert value != 0, (p, n, a)


# -- field tables --

TABLE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (11, 1), (5, 3)]


@pytest.mark.parametrize("p,n", TABLE_FIELDS)
def test_field_tables_match_oracle_exhaustive(p, n):
    field = make_field(p, n)
    add, mul = field_tables(field)
    elems = field_elements(field)
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            assert add[a][b] == (x + y).index, (a, b)
            assert mul[a][b] == (x * y).index, (a, b)


def test_field_tables_cache_is_bounded():
    # a request reads one field's tables; the cache keeps a few fields, not
    # every field ever built (scans over the 77 odd primes below 400 would
    # peak at 92 MB)
    bound = field_tables.cache_info().maxsize
    assert bound is not None
    for p in primes_up_to(100)[1 : 1 + 3 * bound]:
        field_tables(make_field(p, 1))
    assert field_tables.cache_info().currsize <= bound


def test_field_tables_cache_covers_a_request(monkeypatch, capsys):
    # the pairs request reads the tables in sl2_group and in the kernel: one build
    cached, calls = gf.field_tables, []
    cached.cache_clear()
    monkeypatch.setattr(gf, "field_tables", lambda field: calls.append(field) or cached(field))
    assert cli.main(["image", "--q", "5", "--word", "x1", "--method", "pairs"]) == 0
    assert cached.cache_info().misses == len(set(calls)) == 1 < len(calls)


def test_sl2_group_holds_nothing_after_returning(monkeypatch):
    # a request lists its one group once, so nothing keeps the groups: the
    # 2,184 index 4-tuples of SL2(F_13) alone take about 170 KB
    fields = [make_field(p, 1) for p in (5, 7, 11, 13)]
    tables = {field: field_tables(field) for field in fields}
    monkeypatch.setattr(gf, "field_tables", tables.__getitem__)
    gc.collect()
    tracemalloc.start()
    try:
        sizes = [len(sl2_group(field)) for field in fields]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sizes == [f.q * (f.q**2 - 1) for f in fields]
    assert held < 32 * 1024, held


@pytest.mark.parametrize("p,n", TABLE_FIELDS)
def test_negation_is_the_row_of_minus_one(p, n):
    # the kernels take -x from mul[p - 1]: -1 is the integer p - 1, its own index
    field = make_field(p, n)
    add, mul = field_tables(field)
    assert mul[p - 1] == tuple(row.index(0) for row in add)
    assert [(-x).index for x in field_elements(field)] == list(mul[p - 1])


@pytest.mark.parametrize(
    "p,n",
    [(3, 1), (5, 1), (3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (11, 2), (13, 2), (17, 2), (19, 2)],
)
def test_inverses_exhaustive(p, n):
    _, mul = field_tables(make_field(p, n))
    assert set(mul[0]) == {0}  # zero has no inverse
    for row in mul[1:]:
        assert row.count(1) == 1  # exactly one inverse


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_frobenius_fixes_every_element(p, n):
    field = make_field(p, n)
    _, mul = field_tables(field)
    for e in range(field.q):
        acc = 1
        for _ in range(field.q):
            acc = mul[acc][e]
        assert acc == e


def test_index_round_trip():
    field = make_field(3, 3)
    for i in range(field.q):
        assert FqElement.from_index(field, i).index == i


def test_from_coeffs_reduces():
    field = make_field(3, 2)  # modulus x^2 + 1
    add, mul = field_tables(field)
    x = 3  # coefficients (0, 1)
    assert mul[x][x] == 2  # x^2 == -1
    assert add[x][mul[2][x]] == 0  # x + 2x == 0


# -- matrices --

def test_mat2_constructor_validates_determinant():
    field = make_field(5, 1)
    Mat2.from_indices(field, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        Mat2.from_indices(field, (1, 0, 0, 2))


def test_mat2_inverse_formula():
    field = make_field(7, 1)
    m = Mat2.from_indices(field, (2, 3, 3, 5))
    assert m * m.inv() == Mat2.identity(field)
    assert m.inv().a.index == 5
    assert m.inv().b.index == 7 - 3


# -- group enumeration --

@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3)])
def test_sl2_order(p, n):
    field = make_field(p, n)
    group = sl2_group(field)
    q = field.q
    assert len(group) == q * (q * q - 1)
    assert len(set(group)) == len(group)
    assert list(group) == sorted(group)  # lexicographic, the order other tests index by
    for m in group:
        Mat2.from_indices(field, m)  # checks the determinant


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_psl2_class_count(p, n):
    field = make_field(p, n)
    mats = (Mat2.from_indices(field, m) for m in sl2_group(field))
    classes = {frozenset((m, -m)) for m in mats}
    assert len(classes) == psl2_order(field.q)


# -- word evaluation (the oracle) --

def test_eval_word_empty_is_identity():
    field = make_field(5, 1)
    group = sl2_group(field)
    x, y = Mat2.from_indices(field, group[3]), Mat2.from_indices(field, group[5])
    assert eval_word(Word(), x, y) == Mat2.identity(field)


def test_eval_word_single_generator():
    field = make_field(5, 1)
    group = sl2_group(field)
    x, y = Mat2.from_indices(field, group[7]), Mat2.from_indices(field, group[11])
    assert eval_word(parse_word("x1"), x, y) == x
    assert eval_word(parse_word("x2"), x, y) == y


def test_eval_word_commutator_matches_direct_product():
    field = make_field(5, 1)
    x = Mat2.from_indices(field, (1, 1, 0, 1))
    y = Mat2.from_indices(field, (1, 0, 1, 1))
    direct = x.inv() * y.inv() * x * y
    assert eval_word(parse_word("[x1, x2]"), x, y) == direct


def test_psl2_well_definedness_even_exponent_sums(rng):
    field = make_field(7, 1)
    group = sl2_group(field)
    w = family_word(Shape.X2_YK, 1, 2)  # both exponent sums even
    for gen in (1, 2):
        assert (w.letters.count(gen) - w.letters.count(-gen)) % 2 == 0
    for _ in range(25):
        x = Mat2.from_indices(field, rng.choice(group))
        y = Mat2.from_indices(field, rng.choice(group))
        assert eval_word(w, -x, y) == eval_word(w, x, y)
        assert eval_word(w, x, -y) == eval_word(w, x, y)


# -- trace polynomial evaluation --

def test_eval_trace_poly_examples():
    f7 = make_field(7, 1)
    zero, one, two, three, five = (FqElement.from_index(f7, i) for i in (0, 1, 2, 3, 5))
    poly = TracePolynomial({(2, 0, 0): 1, (0, 0, 0): -2})  # s^2 - 2
    assert poly.evaluate(three, zero, zero) == zero
    const = TracePolynomial.constant(2)
    assert const.evaluate(five, one, zero) == two
    assert TracePolynomial().evaluate(five, zero, zero) == zero
    # 7*s vanishes in F_7
    assert TracePolynomial({(1, 0, 0): 7}).evaluate(three, zero, zero) == zero


def test_eval_trace_poly_commutator_cross_check(rng):
    field = make_field(13, 1)
    group = sl2_group(field)
    w = parse_word("[x1, x2]")
    poly = tau(w)
    for _ in range(20):
        x = Mat2.from_indices(field, rng.choice(group))
        y = Mat2.from_indices(field, rng.choice(group))
        got = poly.evaluate(x.trace(), y.trace(), (x * y).trace())
        assert got == eval_word(w, x, y).trace()


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)])
def test_trace_consistency_on_corpus(p, n, corpus, rng):
    field = make_field(p, n)
    group = sl2_group(field)
    for _ in range(20):
        x = Mat2.from_indices(field, rng.choice(group))
        y = Mat2.from_indices(field, rng.choice(group))
        s, t, u = x.trace(), y.trace(), (x * y).trace()
        for w in corpus:
            assert eval_word(w, x, y).trace() == tau(w).evaluate(s, t, u), str(w)


# -- image enumeration --

def test_pairs_projection_word_is_surjective():
    field = make_field(5, 1)
    report = enumerate_image_pairs(parse_word("x1"), field)
    assert report.surjective is True
    assert report.misses_involutions is False
    assert report.count == 120 * 120
    assert len(report.image_traces) == 5


def test_pairs_family_word_q3():
    field = make_field(3, 1)
    for inner in (1, -1):
        report = enumerate_image_pairs(family_word(Shape.X2_YK, inner, 2), field)
        assert report.misses_involutions is True
        assert report.surjective is False
        assert report.count == 576


def test_pairs_budget_exceeded_mentions_scan():
    field = make_field(5, 1)
    with pytest.raises(BudgetExceededError, match="trace_scan"):
        enumerate_image_pairs(parse_word("x1"), field, budget=100)


def test_scan_projection_word_attains_everything():
    field = make_field(7, 1)
    report = trace_scan(parse_word("x1"), field)
    assert len(report.image_traces) == 7
    assert report.misses_involutions is False
    assert report.surjective is None
    assert report.count == 343


def test_scan_family_q13_misses_zero():
    field = make_field(13, 1)
    report = trace_scan(family_word(Shape.X2_YK, 1, 2), field)
    assert report.misses_involutions is True


def test_scan_family_q11_attains_zero():
    field = make_field(11, 1)
    report = trace_scan(family_word(Shape.X2_YK, 1, 2), field)
    assert report.misses_involutions is False


def test_scan_budget_exceeded():
    field = make_field(13, 1)
    with pytest.raises(BudgetExceededError):
        trace_scan(parse_word("x1"), field, budget=1000)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_every_trace_triple_is_realised(p, n):
    # Macbeath 1969: every (s, t, u) in F_q^3 is (tr x, tr y, tr xy) for
    # some pair in SL2(F_q)^2, so the scan's values are the image's traces
    field = make_field(p, n)
    add, mul = field_tables(field)
    group = sl2_group(field)
    triples = set()
    for a, b, c, d in group:
        s = add[a][d]
        for e, f, g, h in group:
            u = add[add[mul[a][e]][mul[b][g]]][add[mul[c][f]][mul[d][h]]]
            triples.add((s, add[e][h], u))
    assert len(triples) == field.q**3


def test_certificate_coherence_scan_implies_pairs():
    # the scan attains exactly the pairs' traces (Macbeath, see
    # test_every_trace_triple_is_realised): scan-misses imply pairs-misses
    cases = [
        (family_word(Shape.X2_YK, 1, 2), make_field(3, 1)),
        (family_word(Shape.X2_YK, -1, 2), make_field(3, 1)),
        (parse_word("x1"), make_field(5, 1)),
        (parse_word("[x1, x2]"), make_field(3, 1)),
    ]
    for w, field in cases:
        scan = trace_scan(w, field)
        pairs = enumerate_image_pairs(w, field)
        if scan.misses_involutions:
            assert pairs.misses_involutions, str(w)
        assert {t for t in pairs.image_traces} <= set(scan.image_traces)


# -- kernels against the oracle --

KERNEL_WORDS = ("x1", "x1^2", "[x1, x2]")


def _oracle_image_pairs(w, field):
    """The pairs kernel on oracle matrices: SL2(F_q) found by scanning
    F_q^4 for determinant 1, each PSL2 element kept as the set {m, -m}.
    Returns (traces as indices, misses_involutions, surjective)."""
    elems = field_elements(field)
    group = [
        Mat2(*m)
        for m in itertools.product(elems, repeat=4)
        if m[0] * m[3] - m[1] * m[2] == elems[1]
    ]
    traces, classes = set(), set()
    for x in group:
        for y in group:
            m = eval_word(w, x, y)
            traces.add(m.trace().index)
            classes.add(frozenset((m, -m)))
    return traces, 0 not in traces, len(classes) == len(group) // 2


@pytest.mark.parametrize("p", [3, 5])
def test_pairs_kernel_matches_oracle(p):
    field = make_field(p, 1)
    words = [parse_word(text) for text in KERNEL_WORDS]
    if p == 3:
        words += [family_word(Shape.X2_YK, inner, 2) for inner in (1, -1)]
    for w in words:
        report = enumerate_image_pairs(w, field)
        traces, misses, surjective = _oracle_image_pairs(w, field)
        assert set(report.image_traces) == traces, str(w)
        assert report.misses_involutions == misses, str(w)
        assert report.surjective == surjective, str(w)


def test_pairs_kernel_matches_full_enumeration():
    # x over the class representatives against x over all of SL2(F_q):
    # the whole report, so traces, count and surjective all agree
    cases = [(w, make_field(p, 1)) for p in (3, 5) for w in standard_corpus()]
    words = [parse_word(text) for text in KERNEL_WORDS]
    words += [family_word(Shape.X2_YK, inner, 2) for inner in (1, -1)]
    cases += [(w, make_field(p, n)) for p, n in ((7, 1), (3, 2)) for w in words]
    reports = []
    for w, field in cases:
        report = enumerate_image_pairs(w, field)
        assert report == oracle_image_pairs(w, field), (str(w), field.q)
        reports.append(report)
    # a miss that is not an involution's exercises the +-t and unipotent clauses
    assert any(r.surjective is False and not r.misses_involutions for r in reports)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_scan_kernel_matches_tau_everywhere(p, n):
    field = make_field(p, n)
    elems = field_elements(field)
    words = [parse_word(text) for text in KERNEL_WORDS]
    words += [family_word(shape, 1, 2) for shape in Shape]
    for w in words:
        poly = tau(w)
        values = {poly.evaluate(s, t, u).index for s, t, u in itertools.product(elems, repeat=3)}
        report = trace_scan(w, field)
        assert set(report.image_traces) == values, str(w)
        assert report.misses_involutions == (0 not in values), str(w)


# -- the symmetry scan against the plain scan --

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_scan_matches_plain_scan_on_corpus(p, n, corpus):
    field = make_field(p, n)
    for w in corpus:
        assert trace_scan(w, field) == oracle_trace_scan(w, field), str(w)


@pytest.mark.parametrize("q", [25, 27, 49])
def test_scan_matches_plain_scan_on_families(q):
    field = make_field(*odd_prime_power(q))
    for shape in Shape:
        for inner in (1, -1):
            for k in (1, 2):
                w = family_word(shape, inner, k)
                assert trace_scan(w, field) == oracle_trace_scan(w, field), str(w)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_scan_matches_plain_scan_with_odd_exponent_sums(p, n):
    # odd sums make a sign symmetry negate the values
    field = make_field(p, n)
    for text in ("x1 x2^3", "x1^3 x2^2", "[x1, x2] x1", "x2 x1^-1 x2^2"):
        w = parse_word(text)
        sums = [sum((a > 0) - (a < 0) for a in w if abs(a) == g) for g in (1, 2)]
        assert any(e % 2 for e in sums), text
        assert trace_scan(w, field) == oracle_trace_scan(w, field), text


# -- condition-passing instances reproduce the missing involutions --

def test_every_passing_instance_misses_involutions_n1():
    hits = 0
    for p in (3, 5, 7, 11, 13):
        for k in (2, 3):
            for which in Shape:
                try:
                    report = check_nonsurjectivity_conditions(p, 1, k, which)
                except (RamifiedPrimeError, ValueError):
                    continue
                if not report.verdict:
                    continue
                field = make_field(p, 1)
                for inner in (1, -1):
                    scan = trace_scan(family_word(which, inner, k), field)
                    assert scan.misses_involutions, (p, k, which, inner)
                    hits += 1
    assert hits >= 8  # the grid must actually exercise passing instances


def test_extension_field_instance_q27():
    report = check_nonsurjectivity_conditions(3, 3, 2, Shape.X2_YK)
    assert report.verdict
    scan = trace_scan(family_word(Shape.X2_YK, 1, 2), make_field(3, 3))
    assert scan.misses_involutions is True


# -- report serialization --

def test_image_report_schema_and_round_trip():
    field = make_field(3, 1)
    report = enumerate_image_pairs(family_word(Shape.X2_YK, 1, 2), field)
    d = report.to_dict()
    assert list(d.keys()) == [
        "q", "p", "n", "modulus", "word", "method", "image_trace_count",
        "misses_involutions", "surjective", "pairs_evaluated",
    ]
    assert d["modulus"] == [0, 1]
    assert json.loads(json.dumps(d)) == d
    scan = trace_scan(family_word(Shape.X2_YK, 1, 2), field).to_dict()
    assert scan["surjective"] is None
    assert json.loads(json.dumps(scan)) == scan
