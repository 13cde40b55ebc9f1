"""Property tests of the laws every trace polynomial obeys, and of the
round trip of its text through util's parser, on words and polynomials drawn
by hypothesis with the LAWS settings of util: every run draws the same
examples, and the example count and word length keep it short."""

from hypothesis import given, strategies as st

from wordmaps.tracepoly import S, TracePolynomial, render_poly, tau
from wordmaps.words import Word
from util import LAWS, oracle_parse_poly

words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=16).map(Word)
# sparse polynomials in Z[s, t, u]: small, negative and multi-word coefficients
polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
    st.integers(min_value=-3, max_value=3) | st.integers(min_value=-(2**200), max_value=2**200),
    max_size=8,
).map(TracePolynomial)
X1 = Word((1,))
SWAP = {1: 2, -1: -2, 2: 1, -2: -1}


@LAWS
@given(words)
def test_tau_of_inverse(w):
    assert tau(~w) == tau(w)


@LAWS
@given(words, st.integers(min_value=0, max_value=15))
def test_tau_invariant_under_rotation(w, i):
    letters = w.letters
    i = i % len(letters) if letters else 0
    assert tau(Word(letters[i:] + letters[:i])) == tau(w)


@LAWS
@given(words)
def test_swapping_generators_swaps_s_and_t(w):
    # w(y, x) has trace tau(w)(tr y, tr x, tr yx), and tr yx = tr xy
    assert tau(Word(SWAP[a] for a in w)) == TracePolynomial({(b, a, c): k for (a, b, c), k in tau(w).terms.items()})


@LAWS
@given(words)
def test_trace_identity_with_x1(w):
    # tr(g x) + tr(g x^-1) = tr(g) tr(x)
    assert tau(w * X1) + tau(w * ~X1) == S * tau(w)


def _exponent_sum(w, g):
    return sum((a > 0) - (a < 0) for a in w if abs(a) == g)


@LAWS
@given(words)
def test_sign_of_x1_negates_s_and_u(w):
    # w(-x, y) = (-1)^(e1) w(x, y), and tr(-x) = -s, tr(-x y) = -u
    flipped = TracePolynomial({(a, b, c): k * (-1) ** (a + c) for (a, b, c), k in tau(w).terms.items()})
    assert flipped == (-1) ** (_exponent_sum(w, 1) % 2) * tau(w)


@LAWS
@given(words)
def test_sign_of_x2_negates_t_and_u(w):
    flipped = TracePolynomial({(a, b, c): k * (-1) ** (b + c) for (a, b, c), k in tau(w).terms.items()})
    assert flipped == (-1) ** (_exponent_sum(w, 2) % 2) * tau(w)


@LAWS
@given(words)
def test_every_monomial_has_the_exponent_sum_parities(w):
    # why trace_scan may take its sign symmetries from the exponent sums
    e1, e2 = _exponent_sum(w, 1), _exponent_sum(w, 2)
    for a, b, c in tau(w).terms:
        assert (a + c - e1) % 2 == 0 and (b + c - e2) % 2 == 0, (a, b, c)


@LAWS
@given(polys)
def test_polynomial_text_round_trip(p):
    assert oracle_parse_poly(render_poly(p)) == p


@LAWS
@given(words)
def test_tau_text_round_trip(w):
    text = render_poly(tau(w))
    assert oracle_parse_poly(text) == tau(w)
    assert render_poly(oracle_parse_poly(text)) == text
