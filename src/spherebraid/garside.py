"""Garside left-canonical normal form for the braid groups B_n.

Every braid is written uniquely as Delta^p A_1 .. A_k where Delta is the
half twist, each A_i is a permutation braid (a positive braid in which
any two strands cross at most once, determined by its permutation), no
A_i is trivial or Delta, and consecutive factors are left-weighted: the
finishing set of A_i contains the starting set of A_{i+1}.  Comparing
normal forms componentwise decides equality in B_n; this engine is
independent of the free-group action in freegroup.

Representation choices:
  * a permutation braid is stored as the image tuple of its permutation
    (1-based, word order: in a product the left factor permutes first);
  * starting/finishing sets are bitmasks of descents, computed directly
    from the images and from the position array;
  * a positive letter sigma_i enters the pipeline as its own simple; a
    negative letter sigma_i^-1 as Delta^-1 times the simple
    Delta sigma_i^-1, so only positive factors are ever normalized;
  * a maximal run of negative letters at least n(n-1)/2 long (the number
    of crossings in Delta) enters whole: it is P^-1 for a positive word
    P, and from P's normal form Delta^e B_1 .. B_r
        P^-1 = Delta^-(e+r) tau^(r+e)(dB_r) .. tau^(1+e)(dB_1),
    with dB = B^-1 Delta the right complement and tau the index flip
    sigma_i -> sigma_{n-i}.  Each Delta sigma_i^-1 is one crossing short
    of Delta, and sliding two of them moves up to n(n-1)/2 crossings,
    while P's own normal form slides single crossings; the inverse x^-1
    of a half twist becomes Delta^-1 and adds no simple at all.  Shorter
    runs keep their letter simples, since for them P's normal form and
    the complements cost more than they save; so does every run in B_3,
    whose letter simples have at most two crossings;
  * the form is built left-greedily (El-Rifai-Morton; Epstein et al.,
    Word Processing in Groups, ch. 9): each factor is appended to an
    already left-weighted list, and one right-to-left pass of the local
    slide stops at the first pair whose left factor does not change;
  * the slide of one pair keeps both descent masks and updates only the
    three bits next to each crossing it moves; its results are memoized
    in one lru_cache of SLIDE_MEMO_SIZE entries, which bounds the memory
    the engine keeps between calls.

The canonical positive word of a simple factor, when one is needed, is
rebuilt by repeatedly stripping the lowest starting descent; the choice
does not affect the normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .words import BraidWord, Permutation, StrandCountMismatchError

# Entries of the pair-slide memo.  Short words on few strands repeat
# nearly every pair, so the memo carries them; the bound keeps long
# words on many strands from growing it without limit.
SLIDE_MEMO_SIZE = 1 << 16


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def inversion_count(p: tuple[int, ...]) -> int:
    """Word length of the permutation braid with permutation p."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def _descents(p: tuple[int, ...]) -> int:
    """Bitmask of i - 1 for each i with sigma_i a left divisor of the simple braid p.

    Applied to the inverse permutation it gives the finishing set.
    """
    m = 0
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            m |= 1 << i
    return m


@lru_cache(maxsize=SLIDE_MEMO_SIZE)
def _slide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The left-weighted factorization of the product of two simples.

    While some sigma_i starts b but does not finish a, it moves from the
    front of b to the end of a.  A move on sigma_i changes only the
    descents i-1, i and i+1 of a^-1 and of b, so both masks are kept and
    patched rather than rebuilt.
    """
    n = len(a)
    pos = [0] * (n + 1)  # pos[v]: 0-based position of the value v in a
    for i, v in enumerate(a):
        pos[v] = i
    start = _descents(b)
    finish = 0
    for i in range(1, n):
        if pos[i] > pos[i + 1]:
            finish |= 1 << (i - 1)
    need = start & ~finish
    if not need:
        return a, b
    la, lb = list(a), list(b)
    while need:
        bit = need & -need
        i = bit.bit_length()  # lowest movable index (1-based)
        # a <- a * sigma_i : swap the values i, i+1 in a's images
        pi, pj = pos[i], pos[i + 1]
        la[pi], la[pj] = i + 1, i
        pos[i], pos[i + 1] = pj, pi
        # b <- sigma_i^-1 * b : swap the entries at positions i, i+1
        lb[i - 1], lb[i] = lb[i], lb[i - 1]
        finish |= bit
        start &= ~bit
        if i > 1:
            low = bit >> 1
            finish = finish | low if pos[i - 1] > pos[i] else finish & ~low
            start = start | low if lb[i - 2] > lb[i - 1] else start & ~low
        if i < n - 1:
            high = bit << 1
            finish = finish | high if pos[i + 1] > pos[i + 2] else finish & ~high
            start = start | high if lb[i] > lb[i + 1] else start & ~high
        need = start & ~finish
    return tuple(la), tuple(lb)


@dataclass(frozen=True)
class PermutationBraid:
    """A simple factor: the positive braid determined by its permutation."""

    strand_count: int
    permutation: Permutation

    def __post_init__(self):
        if len(self.permutation.images) != self.strand_count:
            raise ValueError("permutation size does not match strand count")

    def letter_length(self) -> int:
        return inversion_count(self.permutation.images)

    def word(self) -> BraidWord:
        """The canonical positive word: strip the lowest starting descent until trivial."""
        p = self.permutation.images
        letters: list[int] = []
        while need := _descents(p):
            i = (need & -need).bit_length()
            letters.append(i)
            # strip sigma_i from the left: p <- sigma_i * p
            lp = list(p)
            lp[i - 1], lp[i] = lp[i], lp[i - 1]
            p = tuple(lp)
        return BraidWord(self.strand_count, tuple(letters))


@dataclass(frozen=True)
class GarsideNormalForm:
    """Delta power plus left-weighted simple factors; the canonical form of a braid."""

    strand_count: int
    delta_power: int
    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        identity = tuple(range(1, self.strand_count + 1))
        for f in self.factors:
            if f == identity or f == identity[::-1]:
                raise ValueError("normal-form factors must be neither trivial nor Delta")

    def exponent_sum(self) -> int:
        n = self.strand_count
        return self.delta_power * (n * (n - 1) // 2) + sum(
            inversion_count(f) for f in self.factors
        )

    def to_word(self) -> BraidWord:
        """Some braid word representing this element (Delta letters first)."""
        n = self.strand_count
        half = _half_twist_letters(n)
        letters: list[int] = []
        if self.delta_power >= 0:
            letters.extend(half * self.delta_power)
        else:
            letters.extend([-k for k in reversed(half)] * (-self.delta_power))
        for f in self.factors:
            letters.extend(PermutationBraid(n, Permutation(f)).word().letters)
        return BraidWord(n, tuple(letters))

    def as_dict(self) -> dict:
        return {
            "delta_power": self.delta_power,
            "factors": [list(f) for f in self.factors],
        }


def _half_twist_letters(n: int) -> list[int]:
    letters: list[int] = []
    for top in range(n - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return letters


def is_left_weighted(nf: GarsideNormalForm) -> bool:
    """Check the descent condition between consecutive factors (test helper)."""
    for a, b in zip(nf.factors, nf.factors[1:]):
        if _descents(b) & ~_descents(_inverse(a)):
            return False
    return True


def _normalize_factors(n: int, simples: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """Left-greedy normal form of a product of simples: (leading Delta count, other factors).

    Each simple is appended to a left-weighted list and slid leftwards
    until a pair's left factor stays put; a factor emptied by the slide
    is trivial and, the list being left-weighted, last, so it is popped.
    """
    identity = tuple(range(1, n + 1))
    factors: list[tuple[int, ...]] = []
    for f in simples:
        factors.append(f)
        j = len(factors) - 1
        while j:
            a = factors[j - 1]
            a2, b2 = _slide(a, factors[j])
            if a2 == a:
                break
            factors[j - 1], factors[j] = a2, b2
            j -= 1
        while factors and factors[-1] == identity:
            factors.pop()
    delta = identity[::-1]
    lead = 0
    while lead < len(factors) and factors[lead] == delta:
        lead += 1
    return lead, factors[lead:]


def _letter_simple(n: int, k: int) -> tuple[int, ...]:
    """The simple factor of the letter k: sigma_k, or Delta sigma_{-k}^-1 when k < 0."""
    if k > 0:
        p, i = list(range(1, n + 1)), k - 1
    else:
        p, i = list(range(n, 0, -1)), n + k - 1
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def _negative_run(
    n: int, run: tuple[int, ...], flips: int, by_letter: dict[int, tuple[int, ...]]
) -> tuple[int, list[tuple[int, ...]]]:
    """The simples of a negative run, right to left, and the Delta^-1 count after it.

    The run is P^-1 for the positive word P = -run reversed.  With P's
    normal form Delta^e B_1 .. B_r the run is
    Delta^-(e+r) tau^(r+e)(dB_r) .. tau^(1+e)(dB_1), where dB = B^-1 Delta
    is the simple with images n+1-v over B^-1 (equally, the inverse of B
    reversed) and tau(dB) is B^-1 reversed.  `flips` counts the Delta^-1
    already collected to the right of the run.
    """
    positive = []
    for k in reversed(run):
        f = by_letter.get(-k)
        if f is None:
            f = by_letter[-k] = _letter_simple(n, -k)
        positive.append(f)
    e, factors = _normalize_factors(n, positive)
    flips += e
    simples = []
    for b in factors:
        flips += 1
        simples.append(_inverse(b)[::-1] if flips & 1 else _inverse(b[::-1]))
    return flips, simples


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """The left-canonical form of the element represented by w."""
    n = w.strand_count
    if n < 2:
        return GarsideNormalForm(n, 0, ())
    letters = w.letters
    # A maximal run of negative letters as long as Delta has crossings
    # enters whole (_negative_run): its letter simples, appended while
    # walking it, are replaced when the run ends.  In B_3 none does.
    long_run = n * (n - 1) // 2 if n > 3 else math.inf
    by_letter: dict[int, tuple[int, ...]] = {}
    # Walking right to left, `flips` counts the Delta^-1 collected so far:
    # moving them to the front conjugates each simple by tau (the index
    # flip sigma_i -> sigma_{n-i}) once per Delta^-1 to its right, and tau
    # is an involution, so parity suffices.
    flips = run = 0
    simples: list[tuple[int, ...]] = []
    for j in range(len(letters) - 1, -1, -1):
        k = letters[j]
        if k < 0:
            run += 1
            if flips & 1:
                k = -n - k
            flips += 1
        else:
            if run >= long_run:
                whole = letters[j + 1 : j + 1 + run]
                flips, simples[-run:] = _negative_run(n, whole, flips - run, by_letter)
            run = 0
            if flips & 1:
                k = n - k
        f = by_letter.get(k)
        if f is None:
            f = by_letter[k] = _letter_simple(n, k)
        simples.append(f)
    if run >= long_run:
        flips, simples[-run:] = _negative_run(n, letters[:run], flips - run, by_letter)
    simples.reverse()
    lead, factors = _normalize_factors(n, simples)
    return GarsideNormalForm(n, lead - flips, tuple(factors))


def equal_Bn(w: BraidWord, v: BraidWord) -> bool:
    """Exact equality in B_n: componentwise equality of normal forms."""
    if w.strand_count != v.strand_count:
        raise StrandCountMismatchError(
            f"cannot compare words on {w.strand_count} and {v.strand_count} strands"
        )
    return normal_form(w) == normal_form(v)
