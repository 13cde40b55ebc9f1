import hashlib
import itertools
import time

import pytest
from hypothesis import assume, given, strategies as st

from wordmaps.words import (
    ALPHABET,
    MAX_WORD_LETTERS,
    Shape,
    Word,
    WordSyntaxError,
    commutator,
    cyclic_reduce,
    family_word,
    is_proper_power,
    parse_family,
    parse_word,
    y1,
    yk,
)
from util import (
    LAWS,
    oracle_parse_word,
    oracle_proper_power,
    random_reduced_word,
    reduced_letter_tuples,
    standard_corpus,
)


# -- parsing --

def test_parse_power_expansion():
    assert parse_word("x1^2").letters == (1, 1)


def test_parse_free_cancellation():
    assert parse_word("x1 x1^-1").is_identity()


def test_parse_commutator_convention():
    w = parse_word("[x1^-2, x2^-1]")
    assert str(w) == "x1^2 x2 x1^-2 x2^-1"
    assert len(w) == 6


def test_parse_zero_exponent_is_empty():
    assert parse_word("x1^0").is_identity()
    assert parse_word("(x1 x2)^0 x2").letters == (2,)


def test_parse_nested_groups():
    assert parse_word("(x1 (x2 x1)^2)^-1") == ~parse_word("x1 x2 x1 x2 x1")


def test_parse_blank_is_empty():
    assert parse_word("").is_identity()
    assert parse_word("   ").is_identity()


@pytest.mark.parametrize(
    "text,position",
    [
        ("x3", 0),
        ("x1 x%2", 3),
        ("x1^", 3),
        ("(x1", 3),
        ("[x1 x2]", 6),
        ("x1^2^3", 4),
        ("()", 1),
        ("x1^2\u0663", 4),  # exponents are ASCII digits only
        ("x1^\u0663", 3),
        ("x1^2\u00b2", 4),
        # int() converts at most sys.get_int_max_str_digits() digits (4,300 by default)
        pytest.param("x1 x2^" + "1" * 5000, 6, id="exponent-past-int-digit-limit"),
        # more than MAX_WORD_LETTERS letters before reduction: at the
        # exponent, or at the start of a term without one
        ("x1^99999999999999999999", 3),
        ("x1^1000001", 3),
        ("x1^-1000001", 3),
        ("x2 x1^1000000", 6),
        ("(x1 x2)^500001", 8),
        ("x2 (x1^1000000)", 3),
        ("x1 [x1^250000, x2^250001]", 3),  # a commutator counts 2*(|a| + |b|)
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(WordSyntaxError) as err:
        parse_word(text)
    assert err.value.position == position


def test_parse_deep_nesting():
    # groups are kept on a list, so depth is bounded by the text alone
    assert parse_word("(" * 5000 + "x1" + ")" * 5000).letters == (1,)
    assert parse_word("[" * 2000 + "x1, x1]" + ", x2]" * 1999).is_identity()
    assert parse_word("(" * 3000 + "[x1, x2]" + ")^-1" * 3000) == parse_word("[x1, x2]")
    with pytest.raises(WordSyntaxError) as err:
        parse_word("(" * 5000 + "x1" + ")" * 4999)
    assert (str(err.value), err.value.position) == ("unexpected end of input (position 10001)", 10001)


def test_parse_long_flat_word_in_linear_time():
    # a group's letters are reduced once, when it closes; reducing the word
    # after every term made the parse quadratic in the number of letters
    start = time.perf_counter()
    assert parse_word("x1 x2 " * 20000).letters == (1, 2) * 20000
    assert parse_word("x1 " * 20000 + "x1^-1 " * 20000).is_identity()
    assert parse_word("(" + "x2 x1^-1 " * 20000 + ")^2").letters == (2, -1) * 40000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"40,000-letter words took {elapsed:.2f}s to parse"


# Tokens of the grammar, malformed tokens and stray characters, all ASCII.
_PIECES = st.sampled_from(
    ("x1", "x2", "x", "x3", "(", ")", "[", "]", ",", "^", "+", "-", "0", "1", "2", "3",
     "12", "-1", "+2", "^-1", " ", "\t", "\n", "%", "y")
)


def _outcome(parse, text):
    try:
        return parse(text).letters
    except WordSyntaxError as err:
        return str(err), err.position


_TOO_LONG = f"word longer than {MAX_WORD_LETTERS} letters before reduction"


@LAWS
@given(st.lists(_PIECES, max_size=24).map("".join))
def test_parse_matches_oracle_parser(text):
    outcome = _outcome(parse_word, text)
    # Past the cap the oracle, which has none, would build every letter the
    # cap refuses: the cap is tested in test_parse_errors_carry_position.
    assume(_TOO_LONG not in str(outcome))
    assert outcome == _outcome(oracle_parse_word, text)


def test_parse_just_under_the_size_cap():
    assert parse_word(f"x1^{MAX_WORD_LETTERS}").letters == (1,) * MAX_WORD_LETTERS
    assert len(parse_word(f"(x1 x2)^{MAX_WORD_LETTERS // 2}")) == MAX_WORD_LETTERS
    # the cap counts letters before reduction, and a group is reduced
    # before its exponent applies
    assert parse_word("(x1 x1^-1)^99999999999999999999 x2").letters == (2,)
    assert parse_word("(x1^0)^99999999999999999999").is_identity()


def test_parse_matches_oracle_on_short_texts():
    # every text of up to 4 characters over the grammar's alphabet
    for n in range(5):
        for chars in itertools.product("x12()[],^- ", repeat=n):
            text = "".join(chars)
            assert _outcome(parse_word, text) == _outcome(oracle_parse_word, text), text


# -- family syntax --

@pytest.mark.parametrize("shape", list(Shape))
@pytest.mark.parametrize("sign", [1, -1])
def test_parse_family_round_trip(shape, sign):
    mark = "+" if sign > 0 else "-"
    for k in (0, 1, 2, 3, 12, 100):
        assert parse_family(f"{shape.value}:{mark},k={k}") == (shape, sign, k)
        assert parse_family(f" {shape.value} : {mark} , k = {k} ") == (shape, sign, k)


@pytest.mark.parametrize(
    "text", ["", "zk:2", "x2yk", "x2yk:+", "x2yk:*,k=2", "x2yk:+,k=-2", "x2yk:+,k=", "X2YK:+,k=2",
             "x2yk:+;k=2", "x2yk:+,k=2,", "x2y:+,k=2",
             "x2yk:+,k=\u0663",  # k is ASCII digits only
             pytest.param("x2yk:+,k=" + "1" * 5000, id="k-past-int-digit-limit")]
)
def test_parse_family_rejects(text):
    with pytest.raises(ValueError) as err:
        parse_family(text)
    assert str(err.value) == f"bad family {text!r}; expected e.g. 'x2yk:+,k=2' (see --help)"


# -- free reduction --

def test_reduce_outer_power_collision():
    # x1^-2 * (x1^2 x2 x1^2 x2^-1) reduces to length 4 = 3*3 - 5
    w = Word((~parse_word("x1^2")).letters + y1(1).letters)
    assert str(w) == "x2 x1^2 x2^-1"
    assert len(w) == 4


def test_reduce_empty():
    assert Word(()).is_identity()


def test_reduce_inner_cancellation():
    w = Word((1, 2, -2, 1))
    assert w.letters == (1, 1)


def test_reduce_idempotent_and_nonincreasing(rng):
    for _ in range(300):
        raw = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 20))]
        once = Word(raw)
        assert len(once) <= len(raw)
        assert Word(once.letters) == once


@pytest.mark.parametrize("bad", [0, 3, -3, 1.0, True, (1, 1), "x1"])
def test_reduce_rejects_invalid_letters(bad):
    with pytest.raises(ValueError):
        Word((1, bad))


# -- word algebra --

def test_inverse_reverses_and_flips():
    assert str(~parse_word("x1 x2")) == "x2^-1 x1^-1"


def test_power_zero_is_empty():
    assert (y1(1) ** 0).is_identity()


def test_concat_cancels():
    assert (~Word((1,)) * parse_word("x1 x2")).letters == (2,)


def test_inverse_involution_and_cancellation(rng):
    for _ in range(100):
        w = random_reduced_word(rng)
        assert ~(~w) == w
        assert (w * ~w).is_identity()


def test_negative_power_is_inverse_power(rng):
    for _ in range(50):
        w = random_reduced_word(rng, max_len=6)
        for m in range(4):
            assert w ** (-m) == (~w) ** m


# -- canonical text round trip --

def test_round_trip(corpus, rng):
    for w in corpus:
        assert parse_word(str(w)) == w
    for _ in range(200):
        w = random_reduced_word(rng)
        assert parse_word(str(w)) == w


# -- word families --

def test_build_word_lengths():
    for k in range(1, 51):
        for inner in (1, -1):
            assert len(family_word(Shape.X2_YK, inner, k)) == 6 * k + 2
            assert len(family_word(Shape.X2_YNEGK, inner, k)) == 6 * k + 2
            assert len(family_word(Shape.XNEG2_YK, inner, k)) == 6 * k - 2


def test_build_word_k2_length_14():
    w = family_word(Shape.X2_YK, 1, 2)
    assert len(w) == 14  # 3r - 1 with r = 5


def test_build_word_minus_k1():
    for inner in (1, -1):
        w = family_word(Shape.XNEG2_YK, inner, 1)
        mid = "x1^2" if inner > 0 else "x1^-2"
        assert str(w) == f"x2 {mid} x2^-1"
        assert len(w) == 4


def test_build_word_plus_k1():
    w = family_word(Shape.X2_YK, 1, 1)
    assert w == parse_word("x1^4 x2 x1^2 x2^-1")
    assert len(w) == 8


def test_family_spec_requires_positive_k():
    for which in Shape:
        with pytest.raises(ValueError):
            family_word(which, 1, 0)


def test_yk_size_cap():
    # y_k has 6|k| letters: the longest k under MAX_WORD_LETTERS builds, and
    # the next is refused before any letter is built
    k = MAX_WORD_LETTERS // 6
    assert len(yk(1, k)) == 6 * k
    assert len(yk(-1, -k)) == 6 * k
    for kk in (k + 1, -(k + 1), 10**8):
        with pytest.raises(ValueError, match=f"over the cap of {MAX_WORD_LETTERS}"):
            yk(1, kk)


def test_variant_for():
    # the shape fixes the outer power and the sign of k, the argument the inner sign
    assert family_word(Shape.XNEG2_YK, -1, 2) == Word((-1, -1)) * yk(-1, 2)
    assert family_word(Shape.X2_YNEGK, 1, 2) == Word((1, 1)) * yk(1, -2)


# -- exponent sums --

def test_x2_exponent_sum_vanishes_on_all_families():
    for which in Shape:
        for inner in (1, -1):
            for k in range(1, 9):
                letters = family_word(which, inner, k).letters
                assert letters.count(2) == letters.count(-2)


# -- proper powers --

def test_proper_power_square():
    assert is_proper_power(parse_word("x1^2")) == (True, Word((1,)), 2)


def test_proper_power_mixed_length_two():
    assert is_proper_power(parse_word("x1 x2")) == (False, None, None)


def test_proper_power_family_word_false():
    flag, _, _ = is_proper_power(family_word(Shape.X2_YK, 1, 2))
    assert flag is False


def test_proper_power_empty_raises():
    with pytest.raises(ValueError):
        is_proper_power(Word())


def test_proper_power_conjugated_root():
    w = parse_word("x2 x1^2 x2^-1")
    flag, root, m = is_proper_power(w)
    assert flag and m == 2
    assert root == parse_word("x2 x1 x2^-1")
    assert root ** m == w


def test_proper_power_primitive_root():
    flag, root, m = is_proper_power(parse_word("x1^6"))
    assert (flag, root, m) == (True, Word((1,)), 6)


def test_degenerate_family_words_are_proper_powers():
    # k_pm = 0 members reduce to conjugates of x1^(+-2)
    for inner in (1, -1):
        for which in (Shape.XNEG2_YK, Shape.X2_YNEGK):
            flag, root, m = is_proper_power(family_word(which, inner, 1))
            assert flag and m == 2
            assert root ** 2 == family_word(which, inner, 1)


def test_cyclic_reduce_reassembles(rng):
    for _ in range(200):
        w = random_reduced_word(rng)
        conj, core = cyclic_reduce(w)
        assert conj * core * ~conj == w
        if core.letters:
            assert core.letters[0] != -core.letters[-1]


def test_proper_power_oracle_agreement_short():
    count = 0
    for tup in reduced_letter_tuples(8):
        w = Word(tup)
        got = is_proper_power(w)
        want = oracle_proper_power(w)
        assert got[0] == want[0], tup
        if got[0]:
            assert got[1:] == want[1:]
            assert got[1] ** got[2] == w
        count += 1
    assert count == 2 * (3**8 - 1)  # all reduced words of length <= 8


# -- the seeded test corpus of tests/util.py --

def test_standard_corpus_deterministic_and_reduced():
    c1 = standard_corpus()
    c2 = standard_corpus()
    assert [w.letters for w in c1] == [w.letters for w in c2]
    # the digest of the corpus as the package used to print it, one word a
    # line: every suite that replays the corpus still reads the same words
    text = "".join(str(w) + "\n" for w in c1)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aab21aff2acbf370bad9334b1875cee88f129ded72fadf3f06f4db131756124e"
    )
    assert len(c1) == len({w.letters for w in c1})
    for w in c1:
        assert Word(w.letters) == w
    assert commutator(Word((1,)), Word((2,))) in c1
    assert yk(-1, 3) in c1
