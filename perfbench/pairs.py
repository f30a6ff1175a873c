"""Seeded word pairs for the cross-oracle workload, with answers known by construction.

Words are tuples of signed generator indices (k > 0 is sigma_k, k < 0 its
inverse), the same convention spherebraid uses.  Nothing here calls the
program: the generator and the invariants below are written from the
definition of the braid group, so the answer of every pair is known
before either equality engine sees it.

* An equal pair is a word and a rewrite of it by moves that hold in
  every braid group: inserting or deleting a free pair k, -k; swapping
  adjacent far-apart letters (|i - j| >= 2); the braid move
  i j i -> j i j on a same-sign triple with |i - j| = 1; its conjugate
  form s_i^e s_j^f s_i^-e -> s_j^-e s_i^f s_j^e; inserting a braid
  relator i j i j^-1 i^-1 j^-1 or a commutation relator i j i^-1 j^-1.
* An unequal pair is such a rewrite followed by one perturbation that
  changes an invariant of the element: flipping the sign of a letter
  changes the exponent sum by 2; replacing sigma_i^e by sigma_j^e with
  j != i changes the strand permutation (u s_i v != u s_j v in S_n);
  inserting a single letter changes both.
"""

from __future__ import annotations

import random
from typing import NamedTuple

NS = (3, 4, 5, 6, 7)
PAIRS_PER_N = 1000
MAX_LEN = 40
EQUAL_FRACTION = 0.5
GROWTH = 6


class Pair(NamedTuple):
    n: int
    w: tuple[int, ...]
    v: tuple[int, ...]
    equal: bool


def exponent_sum(letters) -> int:
    return sum(1 if k > 0 else -1 for k in letters)


def permutation(n: int, letters) -> tuple[int, ...]:
    """Strand order after the word acts left to right; sigma_i swaps positions i, i+1."""
    order = list(range(n))
    for k in letters:
        i = abs(k) - 1
        order[i], order[i + 1] = order[i + 1], order[i]
    return tuple(order)


def _letter(n: int, rng: random.Random) -> int:
    return rng.choice((1, -1)) * rng.randint(1, n - 1)


def _rewrite(n: int, letters: list[int], rng: random.Random, max_len: int) -> list[int]:
    """Apply random group-preserving moves, never growing past max_len letters."""
    letters = list(letters)
    for _ in range(rng.randint(4, 16)):
        kind = rng.randrange(7)
        if kind == 0 and len(letters) + 2 <= max_len:
            k = _letter(n, rng)
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = [k, -k]
        elif kind == 1:
            spots = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
            if spots:
                i = rng.choice(spots)
                del letters[i : i + 2]
        elif kind == 2:
            spots = [
                i
                for i in range(len(letters) - 1)
                if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2
            ]
            if spots:
                i = rng.choice(spots)
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        elif kind == 3:
            spots = [
                i
                for i in range(len(letters) - 2)
                if letters[i] == letters[i + 2]
                and abs(abs(letters[i]) - abs(letters[i + 1])) == 1
                and (letters[i] > 0) == (letters[i + 1] > 0)
            ]
            if spots:
                i = rng.choice(spots)
                a, b = letters[i], letters[i + 1]
                letters[i : i + 3] = [b, a, b]
        elif kind == 4:
            spots = [
                i
                for i in range(len(letters) - 2)
                if letters[i + 2] == -letters[i]
                and abs(abs(letters[i]) - abs(letters[i + 1])) == 1
            ]
            if spots:
                i = rng.choice(spots)
                x, y = letters[i], letters[i + 1]
                e, f = (1 if x > 0 else -1), (1 if y > 0 else -1)
                letters[i : i + 3] = [-e * abs(y), f * abs(x), e * abs(y)]
        elif kind == 5 and n >= 3 and len(letters) + 6 <= max_len:
            i = rng.randint(1, n - 2)
            j = i + 1
            if rng.random() < 0.5:
                i, j = j, i
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = [i, j, i, -j, -i, -j]
        elif kind == 6 and n >= 4 and len(letters) + 4 <= max_len:
            i = rng.randint(1, n - 1)
            far = [j for j in range(1, n) if abs(i - j) >= 2]
            if far:
                j = rng.choice(far)
                pos = rng.randint(0, len(letters))
                letters[pos:pos] = [i, j, -i, -j]
    return letters


def _perturb(n: int, letters: list[int], rng: random.Random) -> list[int]:
    """Change the exponent sum or the permutation, so the element changes."""
    letters = list(letters)
    kind = rng.randrange(3) if letters else 2
    if kind == 2 and len(letters) >= MAX_LEN:
        kind = rng.randrange(2)
    pos = rng.randrange(len(letters)) if letters else 0
    if kind == 0:
        letters[pos] = -letters[pos]
    elif kind == 1:
        k = letters[pos]
        j = rng.choice([j for j in range(1, n) if j != abs(k)])
        letters[pos] = j if k > 0 else -j
    else:
        letters.insert(rng.randint(0, len(letters)), _letter(n, rng))
    return letters


def generate(seed) -> list[Pair]:
    """The pairs for one seed; the same seed always gives the same list."""
    pairs: list[Pair] = []
    for n in NS:
        rng = random.Random(f"cross-oracle/{seed}/{n}")
        for _ in range(PAIRS_PER_N):
            w = [_letter(n, rng) for _ in range(rng.randint(0, MAX_LEN))]
            # short words: the rewrite may add at most GROWTH letters
            v = _rewrite(n, w, rng, min(MAX_LEN, len(w) + GROWTH))
            equal = rng.random() < EQUAL_FRACTION
            if not equal:
                v = _perturb(n, v, rng)
            pairs.append(Pair(n, tuple(w), tuple(v), equal))
    return pairs


def invariants_differ(pair: Pair) -> bool:
    """True when exponent sum or permutation tells the two words apart."""
    n, w, v = pair.n, pair.w, pair.v
    return exponent_sum(w) != exponent_sum(v) or permutation(n, w) != permutation(n, v)
