"""Freely reduced words over the two generators x1, x2.

A word is a finite sequence of letters, the signed ints 1, -1, 2, -2 for
x1, x1^-1, x2, x2^-1, so that inverting a letter is negation.  Every
constructor reduces its input, so equality of ``Word`` values is equality
in the free group F_2.  The module also assembles the outer-power word
families

    x1^(+2) * y_k,   x1^(-2) * y_k,   x1^(+2) * y_(-k),

where y_1 = x1^2 x2 x1^(±2) x2^-1 and y_k is its k-th power, and decides
whether a word is a proper power of a shorter word.
"""

from __future__ import annotations

import enum
import random
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
        return Word(self.letters * n)

    def is_identity(self) -> bool:
        return not self.letters

    def syllables(self) -> list[tuple[int, int]]:
        """Maximal runs as (generator, signed exponent) pairs.

        Adjacent letters of one generator in a reduced word always share a
        sign, so the run exponent is just sign * run length.
        """
        runs: list[tuple[int, int]] = []
        for letter in self.letters:
            gen, sign = abs(letter), (1 if letter > 0 else -1)
            if runs and runs[-1][0] == gen:
                runs[-1] = (gen, runs[-1][1] + sign)
            else:
                runs.append((gen, sign))
        return runs

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Word({render(self)!r})"


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b."""
    return (~a) * (~b) * a * b


def render(w: Word) -> str:
    """Canonical text: run-length syllables like ``x1^2 x2^-1``.

    Exponent 1 is elided and terms are space-separated; the empty word
    renders as the empty string (which parses back to the empty word).

    >>> render(parse_word("x1 x1 x1 x2^-1"))
    'x1^3 x2^-1'
    """
    return " ".join(
        f"x{gen}" if exp == 1 else f"x{gen}^{exp}" for gen, exp in w.syllables()
    )


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


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


def parse_word(text: str) -> Word:
    """Parse word text into a reduced :class:`Word`.

    Grammar: ``word := term+``, ``term := factor ('^' integer)?``,
    ``factor := 'x1' | 'x2' | '(' word ')' | '[' word ',' word ']'``.
    Whitespace is ignored, ``[a, b]`` is the commutator a^-1 b^-1 a b,
    exponent 0 expands to the empty word, and blank input parses to the
    empty word.

    >>> str(parse_word("[x1^-2, x2^-1]"))
    'x1^2 x2 x1^-2 x2^-1'
    >>> parse_word("x1 x1^-1").is_identity()
    True
    """
    tokens = _tokenize(text)
    if not tokens:
        return Word()
    parser = _Parser(tokens, len(text))
    out = parser.parse_word(())
    return out


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


def y1(inner_sign: int = 1) -> Word:
    """The building block x1^2 x2 x1^(inner_sign*2) x2^-1."""
    if inner_sign not in (1, -1):
        raise ValueError(f"inner_sign must be +1 or -1, got {inner_sign}")
    return Word((1, 1, 2, inner_sign, inner_sign, -2))


def yk(inner_sign: int, k: int) -> Word:
    """k-th power of y1 (k may be any integer; y_0 is the empty word)."""
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


def is_proper_power(w: Word) -> tuple[bool, Word | None, int | None]:
    """Decide whether w = v^m for some nontrivial v and m >= 2.

    Cyclically reduce, test string periodicity of the core over the
    divisors of its length (smallest period first, so the returned root
    is primitive and the exponent maximal), then conjugate the root back
    so that root ** exponent == w itself.  Raises ValueError on the
    empty word.
    """
    if not w.letters:
        raise ValueError("the empty word has no proper-power decomposition")
    conj, core = cyclic_reduce(w)
    letters = core.letters
    n = len(letters)
    for d in range(1, n):
        if n % d:
            continue
        if all(letters[i] == letters[i - d] for i in range(d, n)):
            root = conj * Word(letters[:d]) * ~conj
            return True, root, n // d
    return False, None, None


def random_reduced_word(rng: random.Random, max_len: int = 12) -> Word:
    """A uniformly grown reduced word of length between 1 and max_len."""
    target = rng.randint(1, max_len)
    letters: list[int] = []
    while len(letters) < target:
        options = [l for l in ALPHABET if not letters or l != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(letters)


def standard_corpus(seed: int = 20250809, random_count: int = 10) -> list[Word]:
    """The fixed word corpus replayed by the cross-validation suites.

    Contains the empty word, the generators, the commutator, y_k for
    k <= 4 in both variants, every family word with k <= 4, and a seeded
    batch of random reduced words of length <= 12.
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
    rng = random.Random(seed)
    for _ in range(random_count):
        out.append(random_reduced_word(rng))
    seen: set[tuple[int, ...]] = set()
    uniq = []
    for w in out:
        if w.letters not in seen:
            seen.add(w.letters)
            uniq.append(w)
    return uniq
