"""Freely reduced words over the two generators x1, x2.

A word is a finite sequence of letters, the signed ints 1, -1, 2, -2 for
x1, x1^-1, x2, x2^-1, so that inverting a letter is negation.  Every
constructor reduces its input, so equality of ``Word`` values is equality
in the free group F_2.  The module also assembles the outer-power word
families

    x1^(+2) * y_k,   x1^(-2) * y_k,   x1^(+2) * y_(-k),

where y_1 = x1^2 x2 x1^(±2) x2^-1 and y_k is its k-th power, and decides
whether a word is a proper power of a shorter word, and whether two
words are conjugate up to inversion, hence have the same trace.  It owns
the word language: the word grammar (parse_word, WORD_HELP), the family
mini-syntax (parse_family) and the effective index of a shape
(Shape.kpm).
"""

from __future__ import annotations

import enum
import itertools
import re
from typing import Iterable, Iterator

ALPHABET = (1, -1, 2, -2)


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if type(letter) is not int or letter not in ALPHABET:
            raise ValueError(f"invalid letter {letter!r}")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


class Word:
    """A freely reduced word in F_2 = <x1, x2>.

    Instances behave as immutable group elements: ``*`` concatenates,
    ``~w`` inverts, ``w ** n`` powers (negative n via the inverse), and
    ``str(w)`` is the canonical run-length text form.

    >>> str(Word([1, 1, 2]))
    'x1^2 x2'
    >>> Word([1, -1]).is_identity()
    True
    >>> str(~Word([1, 2]))
    'x2^-1 x1^-1'
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = _reduce(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(-letter for letter in reversed(self.letters))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self.letters * n) if self.letters else self

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        """Canonical text: run-length syllables like ``x1^2 x2^-1``.

        Exponent 1 is elided and terms are space-separated; the empty word
        renders as the empty string (which parses back to the empty word).
        A reduced word never puts a letter beside its inverse, so each
        syllable is a run of one letter.

        >>> str(parse_word("x1 x1 x1 x2^-1"))
        'x1^3 x2^-1'
        """
        runs = [(abs(l), len(list(g)) * (1 if l > 0 else -1)) for l, g in itertools.groupby(self.letters)]
        return " ".join(f"x{gen}" if exp == 1 else f"x{gen}^{exp}" for gen, exp in runs)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b."""
    return (~a) * (~b) * a * b


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


WORD_HELP = (
    "word grammar: word := term+ ; term := factor ('^' integer)? ; "
    "factor := 'x1' | 'x2' | '(' word ')' | '[' word ',' word ']'. "
    "Whitespace is ignored; the commutator convention is [a,b] = a^-1 b^-1 a b; "
    "exponent 0 expands to the empty word."
)

# The most letters parse_word builds for one group before reducing it: the
# sum over its terms of |exponent| times the length of the reduced factor,
# a commutator [a, b] counting 2*(|a| + |b|).  check_family_index caps y_k by it.
MAX_WORD_LETTERS = 10**6

# One alternative per token kind; exponents are ASCII digits only.
_TOKEN = re.compile(
    r"x(?P<gen>[12])|(?P<int>[+-]?[0-9]+)|(?P<punct>[()\[\],^])|\s+|(?P<stray>.)", re.S
)


def parse_word(text: str) -> Word:
    """Parse word text into a reduced :class:`Word`.

    Grammar: ``word := term+``, ``term := factor ('^' integer)?``,
    ``factor := 'x1' | 'x2' | '(' word ')' | '[' word ',' word ']'``.
    Whitespace is ignored, an integer is an optional sign and ASCII
    digits, ``[a, b]`` is the commutator a^-1 b^-1 a b, exponent 0
    expands to the empty word, and blank input parses to the empty
    word.  Groups nest to any depth: the open ones are kept on a
    list, not on the call stack.  A term that would take its group past
    MAX_WORD_LETTERS letters is an error at its exponent (or at its
    start if it has none), raised before its letters are built.

    >>> str(parse_word("[x1^-2, x2^-1]"))
    'x1^2 x2 x1^-2 x2^-1'
    >>> parse_word("x1 x1^-1").is_identity()
    True
    """
    tokens: list[tuple[str, object, int]] = []  # (kind, value, position)
    for m in _TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "stray":
            if m[0] == "x":
                raise WordSyntaxError("expected 'x1' or 'x2'", pos)
            if m[0] in "+-":
                raise WordSyntaxError("expected digits in exponent", pos)
            raise WordSyntaxError(f"unexpected character {m[0]!r}", pos)
        if kind == "punct":
            tokens.append((m[0], m[0], pos))
        elif kind:  # "gen" or "int"; whitespace has no kind
            try:
                tokens.append((kind, int(m[kind]), pos))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise WordSyntaxError("too many digits in exponent", pos) from None
    if not tokens:
        return Word()
    tokens.append(("end", None, len(text)))
    # The letters of the word being read are `out` (None until its first
    # term), reduced once when it ends at `closer`: reducing each product
    # would re-reduce the prefix.  Each open group pushes the enclosing
    # (out, closer, left, opener), where `left` is the left side of a
    # commutator and `opener` the position of the group's bracket.
    groups: list[tuple[list[int] | None, str, Word | None, int]] = []
    out, closer, left, opener = None, "end", None, 0
    i = 0
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind in (closer, "end"):
            if out is None:
                raise WordSyntaxError("expected a term", pos)
            if kind != closer:
                raise WordSyntaxError("unexpected end of input", pos)
            if not groups:
                return Word(out)
            if kind == ",":
                left, out, closer = Word(out), None, "]"
                continue
            factor, pos = Word(out), opener
            if kind == "]":
                _check_size(2 * (len(left) + len(factor)), pos)
                factor = commutator(left, factor)
            out, closer, left, opener = groups.pop()
        elif kind in ("(", "["):
            groups.append((out, closer, left, opener))
            out, closer, left, opener = None, ")" if kind == "(" else ",", None, pos
            continue
        elif kind == "gen":
            factor = Word((value,))
        else:
            raise WordSyntaxError(f"unexpected token {value!r}", pos)
        exponent = 1
        if tokens[i][0] == "^":
            kind, exponent, pos = tokens[i + 1]
            if kind != "int":
                raise WordSyntaxError(
                    "unexpected end of input" if kind == "end" else "expected 'int'", pos
                )
            i += 2
        if out is None:
            out = []
        _check_size(len(out) + len(factor) * abs(exponent), pos)
        out += (factor ** exponent if exponent != 1 else factor).letters


def _check_size(letters: int, pos: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise WordSyntaxError(f"word longer than {MAX_WORD_LETTERS} letters before reduction", pos)


class Shape(enum.Enum):
    """The three studied word shapes: x1^2 y_k, x1^-2 y_k, x1^2 y_(-k)."""

    X2_YK = "x2yk"
    XNEG2_YK = "xneg2yk"
    X2_YNEGK = "x2ynegk"

    @property
    def outer_sign(self) -> int:
        return -1 if self is Shape.XNEG2_YK else 1

    @property
    def k_sign(self) -> int:
        return -1 if self is Shape.X2_YNEGK else 1

    def kpm(self, k: int) -> int:
        """Effective index: k for the x1^2 y_k shape, k - 1 for the two
        shapes whose trace agrees with x1^(-2) y_k (including x1^2 y_(-k),
        the inverse of a rotation of it: see trace_equivalent)."""
        return k if self is Shape.X2_YK else k - 1


_FAMILY = re.compile(
    rf"\s*({'|'.join(shape.value for shape in Shape)})\s*:\s*([+-])\s*,\s*k\s*=\s*([0-9]+)\s*"
)


def parse_family(text: str) -> tuple[Shape, int, int]:
    """(shape, inner sign, k) from the family mini-syntax 'SHAPE:SIGN,k=K',
    e.g. 'x2yk:+,k=2'; whitespace around each part is ignored.

    >>> parse_family(" xneg2yk : - , k = 3 ")
    (<Shape.XNEG2_YK: 'xneg2yk'>, -1, 3)
    """
    m = _FAMILY.fullmatch(text)
    if m:
        try:
            return Shape(m[1]), 1 if m[2] == "+" else -1, int(m[3])
        except ValueError:  # k past sys.get_int_max_str_digits()
            pass
    raise ValueError(f"bad family {text!r}; expected e.g. 'x2yk:+,k=2' (see --help)")


def y1(inner_sign: int = 1) -> Word:
    """The building block x1^2 x2 x1^(inner_sign*2) x2^-1."""
    if inner_sign not in (1, -1):
        raise ValueError(f"inner_sign must be +1 or -1, got {inner_sign}")
    return Word((1, 1, 2, inner_sign, inner_sign, -2))


def check_family_index(k: int) -> None:
    """Raise ValueError when y_k, of 6|k| letters, would pass MAX_WORD_LETTERS
    (|k| > 166,666): the cap on y_k and on the per-index outputs of the cli."""
    if 6 * abs(k) > MAX_WORD_LETTERS:
        raise ValueError(
            f"y_k for k = {k} has {6 * abs(k)} letters, over the cap of {MAX_WORD_LETTERS}"
        )


def yk(inner_sign: int, k: int) -> Word:
    """k-th power of y1 (k may be any integer; y_0 is the empty word).
    Raises ValueError, before building it, past check_family_index."""
    check_family_index(k)
    return y1(inner_sign) ** k


def family_word(which: Shape, inner_sign: int, k: int) -> Word:
    """Assemble x1^(±2) * y_(±k), freely reduced, for k >= 1.

    The shape fixes the outer power and the sign of k; ``inner_sign``
    picks the y1 variant.  Reduced lengths: 6k+2 for the x1^2 shapes and
    6k-2 for the x1^-2 shape.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    head = which.outer_sign
    return Word((head, head)) * yk(inner_sign, which.k_sign * k)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = c * core * c^-1 with the core cyclically reduced."""
    letters = w.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return Word(letters[:lo]), Word(letters[lo:hi])


def _cyclic_bytes(core: Word) -> bytes:
    """The letters as bytes, for substring search: l % 5 sends the letters
    1, -1, 2, -2 to the distinct bytes 1, 4, 2, 3."""
    return bytes(l % 5 for l in core.letters)


def trace_equivalent(a: Word, b: Word) -> bool:
    """Whether a is conjugate in F_2 to b or to b^-1: the cyclically
    reduced core of a is a cyclic rotation of the core of b or of ~b.

    Then tr a(x, y) = tr b(x, y) for every determinant-1 pair (x, y) over
    every commutative ring, so a and b have the same trace polynomial:
    a rotation of a word is a conjugate, tr(g w g^-1) = tr w, and
    tr(w^-1) = tr w because w + w^-1 = tr(w)*1 (Cayley-Hamilton).  The
    converse fails: x1^2 y_1 and x1^-2 y_2 have the same trace but are
    not related this way.

    >>> trace_equivalent(parse_word("x1^2 x2^-1"), parse_word("x1^-1 x2 x1^-1"))
    True
    """
    core, other, other_inverse = (_cyclic_bytes(cyclic_reduce(w)[1]) for w in (a, b, ~b))
    return len(core) == len(other) and (core in other * 2 or core in other_inverse * 2)


def is_proper_power(w: Word) -> tuple[bool, Word | None, int | None]:
    """Decide whether w = v^m for some nontrivial v and m >= 2.

    Cyclically reduce; the primitive period d of the core c is the first
    offset at which c occurs in c + c, so w is a proper power exactly when
    d < |c|, with the primitive root c[:d] and the maximal exponent |c|/d.
    The root is conjugated back so that root ** exponent == w itself.
    Raises ValueError on the empty word.
    """
    if not w.letters:
        raise ValueError("the empty word has no proper-power decomposition")
    conj, core = cyclic_reduce(w)
    c = _cyclic_bytes(core)
    d = (c + c).find(c, 1)
    if d == len(c):
        return False, None, None
    return True, conj * Word(core.letters[:d]) * ~conj, len(c) // d

