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
  * the word enters the pipeline as few simples: walking it right to
    left, the letters are cut into chunks Delta^-e T, T simple, and each
    letter costs one comparison and one swap.  A positive chunk (e = 0)
    opens at T = 1; a negative chunk (e = 1) opens at T = Delta, since
        Q^-1 = Delta^-1 (Delta Q^-1)
    for a simple Q.  A letter of either sign joins the open chunk while
    T stays simple: sigma_k joins as sigma_k T when sigma_k does not
    start T, and sigma_k^-1 joins as sigma_k^-1 T, stripping sigma_k
    from T's front, when sigma_k does start T.  Otherwise the chunk
    closes and the letter opens one of its own sign.  So sigma_k next to
    sigma_k^-1 never splits a chunk, and the inverse x^-1 of a half
    twist is one chunk, Delta^-1 and a trivial simple.  Each negative
    chunk adds one Delta^-1, so only positive factors are ever
    normalized.  Moving each Delta^-1 to the front conjugates every chunk
    to its left by tau, the index flip sigma_i -> sigma_{n-i}, and
    Delta Q^-1 = tau(Q^-1) Delta flips a negative chunk's own letters;
    the walk applies the flips to each letter before comparing it;
  * the form is built left-greedily (El-Rifai-Morton; Epstein et al.,
    Word Processing in Groups, ch. 9): each factor is appended to an
    already left-weighted list, and one right-to-left pass of the local
    slide stops at the first pair whose left factor does not change;
  * the slide of one pair keeps both descent masks and updates only the
    three bits next to each crossing it moves; its results are memoized
    in one lru_cache of SLIDE_MEMO_SIZE entries, which bounds the memory
    the engine keeps between calls;
  * a product of words (`words.BraidWord.product`) is normalized from its
    factors' normal forms by the rule
        Delta^p A Delta^q B = Delta^(p+q) tau^q(A) B
    (`_product_form`).  The forms of the last two factors of at least n
    letters are memoized (`_factor_form`), so step b4's words x sigma_i
    and sigma_(n-i) x normalize x once per plan, and each is Delta times
    the one simple sigma_i instead of a walk over some n^2 / 2 letters.
    `theorems._run_plan` empties that memo before and after each plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import BraidWord, check_comparable

# Entries of the pair-slide memo.  Short mixed-sign words on few strands
# enter about one simple per two letters and repeat most pairs, so the
# memo carries them; long same-sign runs enter as few large chunks whose
# pairs rarely repeat, and the bound keeps them from growing it without
# limit.
SLIDE_MEMO_SIZE = 1 << 16


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

    def as_dict(self) -> dict:
        return {
            "delta_power": self.delta_power,
            "factors": [list(f) for f in self.factors],
        }


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


def _letters_form(n: int, letters: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """The normal form of a word on n >= 2 strands: (Delta power, other factors)."""
    identity, delta = list(range(1, n + 1)), list(range(n, 0, -1))
    # Walking right to left, the open chunk is Delta^-e T for a simple T,
    # e = 1 when a negative letter opened it at T = Delta.  Moving each
    # Delta^-1 to the front conjugates the chunks to its left by tau (the
    # index flip sigma_i -> sigma_{n-i}), and Delta Q^-1 = tau(Q^-1) Delta
    # flips its own chunk's letters, so `flips` counts the negative chunks
    # opened so far, this one included; tau is an involution, so parity
    # suffices.  The flipped sigma_k joins, as sigma_k T or sigma_k^-1 T,
    # while T stays simple; otherwise the chunk closes and the letter opens
    # one of its own sign.  The first chunk opens with the sign of the last
    # letter, which then joins it.
    flips = int(bool(letters) and letters[-1] < 0)
    chunk = delta[:] if flips else identity[:]
    simples: list[tuple[int, ...]] = []
    for k in reversed(letters):
        if k > 0:
            if flips & 1:
                k = n - k
            # sigma_k T stays simple unless sigma_k starts T
            if chunk[k - 1] > chunk[k]:
                simples.append(tuple(chunk))
                chunk = identity[:]
        else:
            # sigma_k^-1 T stays simple while sigma_k starts T; a new
            # negative chunk starts at Delta, flipping this letter once more
            k = n + k if flips & 1 else -k
            if chunk[k - 1] < chunk[k]:
                simples.append(tuple(chunk))
                flips += 1
                k = n - k
                chunk = delta[:]
        chunk[k - 1], chunk[k] = chunk[k], chunk[k - 1]
    simples.append(tuple(chunk))
    simples.reverse()
    lead, factors = _normalize_factors(n, simples)
    return lead - flips, factors


# The normal forms of the last two long factors of products: the half twist x
# of b4 and of x x, and a and x of a x a x^-1.
_factor_form = lru_cache(maxsize=2)(_letters_form)


def _clear_memos() -> None:
    """Empty the normal-form memo of product factors; the slide memo is bounded and stays."""
    _factor_form.cache_clear()


def _tau(p: tuple[int, ...]) -> tuple[int, ...]:
    """The simple Delta p Delta^-1: every sigma_i of p becomes sigma_{n-i}."""
    top = len(p) + 1
    return tuple(top - v for v in reversed(p))


def _product_form(n: int, words) -> tuple[int, list[tuple[int, ...]]]:
    """The normal form of the product of the words, from each word's normal form.

    Delta^p A Delta^q B = Delta^(p+q) tau^q(A) B (Epstein et al., ch. 9):
    walking right to left, the Delta powers add up, and the simples of a
    word are twisted by tau when the sum to their right is odd.  The
    simples are then normalized as a word's are.  A word of n letters or
    more takes its form from `_factor_form`; a shorter one costs less
    than the memo lookup would, and leaves the memo to the long factors.
    """
    power, simples = 0, []
    for w in reversed(words):
        p, factors = (_factor_form if len(w.letters) >= n else _letters_form)(n, w.letters)
        simples.extend(reversed([_tau(f) for f in factors] if power & 1 else factors))
        power += p
    simples.reverse()
    lead, factors = _normalize_factors(n, simples)
    return power + lead, factors


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """The left-canonical form of the element represented by w; a product by its factors."""
    n = w.strand_count
    if n < 2:
        return GarsideNormalForm(n, 0, ())
    power, factors = _product_form(n, w.factors) if w.factors else _letters_form(n, w.letters)
    return GarsideNormalForm(n, power, tuple(factors))


def equal_Bn(w: BraidWord, v: BraidWord) -> bool:
    """Exact equality in B_n: componentwise equality of normal forms."""
    check_comparable(w, v)
    return normal_form(w) == normal_form(v)
