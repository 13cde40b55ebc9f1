"""Shared helpers: integer 2x2 matrix arithmetic (exact, for oracle checks
against the symbolic trace machinery) and reduced-word enumeration."""

from __future__ import annotations

import random
from typing import Iterator

from wordmaps.words import ALPHABET, Word

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
    power through free multiplication and compare with w itself."""
    core = w
    conj = Word()
    while core.letters and core.letters[0] == -core.letters[-1]:
        g = Word((core.letters[0],))
        conj = conj * g
        core = (~g) * core * g
    n = len(core)
    for d in range(1, n):
        if n % d:
            continue
        root = conj * Word(core.letters[:d]) * ~conj
        if root ** (n // d) == w:
            return True, root, n // d
    return False, None, None
