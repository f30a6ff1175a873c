"""Braid words over n strands and their cheap invariants.

A braid word is a finite sequence of generator letters sigma_i^{+-1},
stored as signed 1-based indices: the letter k with k > 0 means sigma_k,
and k < 0 means sigma_{|k|}^{-1}.  Words are kept exactly as written --
no free cancellation, no use of the braid relations.  Deciding whether
two words represent the same group element is the job of the exact
engines (garside, freegroup); everything in this module is a total,
cheap function of the letter sequence.

Words apply left to right: in a product u*v the letters of u act first.
This matches concatenation and makes the permutation of a product the
composition "permutation of u, then permutation of v".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property


class WordSyntaxError(ValueError):
    """A word (text or letter list) is malformed for the given strand count."""


class StrandCountMismatchError(ValueError):
    """Two words that must live in the same braid group do not."""


def check_comparable(w: BraidWord, v: BraidWord) -> None:
    """Raise StrandCountMismatchError unless w and v have the same strand count."""
    if w.strand_count != v.strand_count:
        raise StrandCountMismatchError(
            f"cannot compare words on {w.strand_count} and {v.strand_count} strands"
        )


@dataclass(frozen=True)
class BraidWord:
    """A word in the generators sigma_1 .. sigma_{n-1} of the n-strand braid group.

    `factors` is empty, except on a word made by `product`, which keeps the
    words it was made from.  `period` is 0, except on a power u^k built with
    `**`, where it is |u|; an inverse, a mirror or a power of that word
    keeps it.  Neither takes part in equality, hashing or repr.
    """

    strand_count: int
    letters: tuple[int, ...] = ()
    factors: tuple["BraidWord", ...] = field(default=(), init=False, compare=False, repr=False)
    period: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.strand_count < 1:
            raise WordSyntaxError(f"strand count must be >= 1, got {self.strand_count}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        n, letters = self.strand_count, self.letters
        if letters and (min(letters) <= -n or max(letters) >= n or 0 in letters):
            k = next(k for k in letters if k == 0 or not 1 <= abs(k) <= n - 1)
            raise WordSyntaxError(
                f"letter {k} out of range: generator index must lie in [1, {n - 1}] for {n} strands"
            )

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strand_count != other.strand_count:
            raise StrandCountMismatchError(
                f"cannot concatenate words on {self.strand_count} and {other.strand_count} strands"
            )
        return BraidWord._of_checked(self.strand_count, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        letters = tuple(-k for k in reversed(self.letters))
        return BraidWord._of_checked(self.strand_count, letters, period=self.period)

    def __pow__(self, exponent: int) -> "BraidWord":
        base = self if exponent >= 0 else self.inverse()
        period = base.period or len(base)
        return BraidWord._of_checked(self.strand_count, base.letters * abs(exponent), period=period)

    @classmethod
    def _of_checked(
        cls, strand_count: int, letters: tuple[int, ...], factors: tuple = (), period: int = 0
    ) -> "BraidWord":
        """The word of letters already checked against the strand count, left unchecked.

        Checking a long word's letters again costs many times what building
        it does, so every word built from checked words or checked tokens
        comes through here and skips `__post_init__`.
        """
        word = object.__new__(cls)
        vars(word).update(strand_count=strand_count, letters=letters, factors=factors, period=period)
        return word

    @classmethod
    def product(cls, *factors: "BraidWord") -> "BraidWord":
        """The word whose letters are the factors' letters in order, keeping the factors.

        Both exact engines take a product by its factors: garside from the
        factors' memoized normal forms, freegroup by applying each factor's
        memoized chunks to the images of the next, and the sphere layer
        takes a product through freegroup.  A plan step whose words share
        long factors, as b4's x sigma_i and sigma_(n-i) x share x, so reads
        them once.  The invariants in this module read its letters.
        """
        if not factors:
            raise ValueError("a product needs at least one factor")
        n, letters = factors[0].strand_count, factors[0].letters
        for f in factors[1:]:
            if f.strand_count != n:
                raise StrandCountMismatchError(
                    f"cannot concatenate words on {n} and {f.strand_count} strands"
                )
            letters += f.letters
        return cls._of_checked(n, letters, factors)

    def to_text(self) -> str:
        """Serialize to the whitespace-separated signed-integer syntax.

        A word keeps its text, and a product joins its factors' texts, so
        the factors of many products are written out once.
        """
        return self._text

    @cached_property
    def _text(self) -> str:
        if self.factors:
            return " ".join(f.to_text() for f in self.factors if f.letters)
        return " ".join(str(k) for k in self.letters)

    @classmethod
    def from_text(cls, text: str, strand_count: int) -> "BraidWord":
        """Parse the signed-integer syntax; "" is the identity word.

        Rejects malformed tokens and generator indices outside
        [1, strand_count - 1], naming the offending token.
        """
        if strand_count < 1:
            cls(strand_count)  # raises the strand-count error
        letters = []
        for token in text.split():
            try:
                k = int(token)
            except ValueError:
                raise WordSyntaxError(f"malformed token {token!r}: expected a nonzero integer") from None
            if k == 0 or not 1 <= abs(k) <= strand_count - 1:
                raise WordSyntaxError(
                    f"token {token!r} out of range: generator index must lie in "
                    f"[1, {strand_count - 1}] for {strand_count} strands"
                )
            letters.append(k)
        return cls._of_checked(strand_count, tuple(letters))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, .., n}, stored as the tuple of images (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition in word order: self first, then other."""
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        seen = [False] * len(self.images)
        lengths = []
        for start in range(len(self.images)):
            length, v = 0, start
            while not seen[v]:
                seen[v] = True
                v = self.images[v] - 1
                length += 1
            if length:
                lengths.append(length)
        return math.lcm(*lengths)


@dataclass(frozen=True)
class Residue:
    """An element of Z_{2(n-1)}: the value of the abelianization map xi."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} not reduced modulo {self.modulus}")

    def is_zero(self) -> bool:
        return self.value == 0

    def order(self) -> int:
        """Order of this residue in the cyclic group Z_modulus."""
        return self.modulus // math.gcd(self.modulus, self.value)


def exponent_sum(w: BraidWord) -> int:
    """Sum of the letter signs, as an unreduced integer."""
    return sum(1 if k > 0 else -1 for k in w.letters)


def xi(w: BraidWord) -> Residue:
    """Exponent sum reduced modulo 2(n-1); the abelianization of the sphere braid group."""
    n = w.strand_count
    if n < 2:
        raise WordSyntaxError("xi is undefined for n = 1: the modulus 2(n-1) vanishes")
    modulus = 2 * (n - 1)
    return Residue(exponent_sum(w) % modulus, modulus)


def permutation(w: BraidWord) -> Permutation:
    """Image of w in the symmetric group; sigma_i acts as the transposition (i, i+1).

    Letters act left to right: the leftmost letter moves strands first.
    """
    n = w.strand_count
    # cur[p] = strand currently at position p+1
    cur = list(range(1, n + 1))
    for k in w.letters:
        i = abs(k) - 1
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    images = [0] * n
    for pos, strand in enumerate(cur):
        images[strand - 1] = pos + 1
    return Permutation(tuple(images))


def mirror(w: BraidWord) -> BraidWord:
    """Apply the index flip sigma_i -> sigma_{n-i} to every letter, keeping order and signs."""
    n = w.strand_count
    if n < 2:
        raise WordSyntaxError("mirror needs n >= 2")
    flip = lambda k: (n - abs(k)) * (1 if k > 0 else -1)
    return BraidWord._of_checked(n, tuple(flip(k) for k in w.letters), period=w.period)


def _run(lo: int, hi: int) -> tuple[int, ...]:
    """Letters sigma_lo sigma_{lo+1} .. sigma_hi (empty if lo > hi)."""
    return tuple(range(lo, hi + 1))


def _half_twist(m: int) -> tuple[int, ...]:
    """Letters (sigma_1 .. sigma_{m-1})(sigma_1 .. sigma_{m-2}) .. sigma_1."""
    return tuple(i for top in range(m - 1, 0, -1) for i in range(1, top + 1))


NAMED_ELEMENTS = (
    "alpha0",
    "alpha1",
    "alpha2",
    "full_twist",
    "half_twist",
    "bipolar_twist",
    "surface_relator",
)


def named_element(name: str, n: int) -> BraidWord:
    """Constructors for the distinguished braid words.

    alpha0           sigma_1 .. sigma_{n-1}
    alpha1           sigma_1 .. sigma_{n-2} sigma_{n-1}^2
    alpha2           sigma_1 .. sigma_{n-3} sigma_{n-2}^2              (n >= 3)
    full_twist       (sigma_1 .. sigma_{n-1})^n
    half_twist       (sigma_1 .. sigma_{n-1})(sigma_1 .. sigma_{n-2}) .. sigma_1
    bipolar_twist    positive half twist on strands 1..m followed by the
                     negative half twist on strands m+1..2m, n = 2m       (n even, n >= 4)
    surface_relator  sigma_1 .. sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} .. sigma_1
    """
    if name not in NAMED_ELEMENTS:
        raise ValueError(f"unknown element name {name!r}; choose from {NAMED_ELEMENTS}")
    if n < 2:
        raise ValueError(f"{name} needs n >= 2, got n = {n}")
    if name == "alpha0":
        return BraidWord(n, _run(1, n - 1))
    if name == "alpha1":
        return BraidWord(n, _run(1, n - 2) + (n - 1, n - 1))
    if name == "alpha2":
        if n < 3:
            raise ValueError(f"alpha2 needs n >= 3, got n = {n}")
        return BraidWord(n, _run(1, n - 3) + (n - 2, n - 2))
    if name == "full_twist":
        return BraidWord(n, _run(1, n - 1)) ** n
    if name == "half_twist":
        return BraidWord(n, _half_twist(n))
    if name == "bipolar_twist":
        if n < 4 or n % 2 != 0:
            raise ValueError(f"bipolar_twist needs even n >= 4, got n = {n}")
        m = n // 2
        negative = tuple(-i for start in range(n - 1, m, -1) for i in range(start, n))
        return BraidWord(n, _half_twist(m) + negative)
    # surface_relator
    return BraidWord(n, _run(1, n - 2) + (n - 1, n - 1) + tuple(range(n - 2, 0, -1)))
