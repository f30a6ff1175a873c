"""Freely reduced words, endomorphisms on a basis, and the Artin action.

The n-strand braid group acts on the free group of rank n by

    sigma_i:      x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i
    sigma_i^-1:   x_i -> x_{i+1},              x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}

with all other generators fixed.  Letters of a braid word act left to
right, matching words.permutation.  The resulting map from words to
endomorphisms separates braid-group elements (faithfulness of the Artin
action, trust-ledger axiom A4), which makes endomorphism comparison an
exact equality engine for B_n -- the second engine, independent of the
Garside normal form.

Free words are plain tuples of signed generator indices.  Artin's theorem
makes every image of a basis generator a conjugate W x_p W^-1 of the
permuted generator, so the engine keeps each image as its conjugator W
(reduced, and not ending in x_p^+-1, which makes it unique), W^-1 and p.
One braid letter then costs one free cancellation, at the junction of two
reduced words (`_junction`); everything else is list slicing and
concatenation.

The disk action is memoized: `_artin_images` keeps its last two
results, keyed on (strand_count, letters, budget).  The root identities
behind the dicyclic and torsion certificates compare several words with
one full twist, so one plan asks for the same action more than once;
two is the smallest size that catches every repeat within a plan (at
n = 3..30, 48 and 64; one misses dicyclic and torsion repeats of the
full twist).  The budget is part of the key, so a result is never
returned under another budget, and a call over its budget raises
BudgetExceededError, which is not cached.
`theorems._run_plan` empties the memo when a plan starts and when it
ends, so a plan never reuses another's work and leaves no images
behind; outside plans the memo holds at most two image sets.  Results
are shared: callers read them and never change a stored list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import check_comparable


class BudgetExceededError(RuntimeError):
    """A computation outgrew its budget.

    Raised when an endomorphism image outgrows the letter budget, and by
    presentations when a coset enumeration hits its coset cap.
    """


# junctions are scanned letter by letter up to this length, then galloped
_SCAN = 8


def _junction(u: list[int], v_inv: list[int]) -> int:
    """How many letters of u cancel against v in the product u v of reduced words.

    That is the common prefix of u^-1 and v, found here as the common
    suffix of u and v^-1 so both lists are compared as stored: a short
    letter scan, then galloping slice compares and a binary search.  Both
    must be lists, since a list slice never equals a tuple slice.
    """
    lu, lv = len(u), len(v_inv)
    top = min(lu, lv)
    c = 0
    while c < top and u[lu - 1 - c] == v_inv[lv - 1 - c]:
        c += 1
        if c == _SCAN:
            break
    else:
        return c
    lo, step = c, _SCAN
    while True:
        hi = min(lo + step, top)
        if u[lu - hi : lu - lo] != v_inv[lv - hi : lv - lo]:
            break
        if hi == top:
            return top
        lo, step = hi, 2 * step
    # the common suffix is at least lo letters long and shorter than hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u[lu - mid : lu - lo] == v_inv[lv - mid : lv - lo]:
            lo = mid
        else:
            hi = mid
    return lo


def _extend(out: list[int], v: list[int], v_inv: list[int]) -> None:
    """Replace the reduced word `out` by the free reduction of out v, in place."""
    c = _junction(out, v_inv)
    out[len(out) - c :] = v[c:]


def _inv(letters) -> list[int]:
    return [-x for x in reversed(letters)]


def _conjugator_length(word: list[int], j: int) -> int:
    """The length of word without its trailing x_j^+-1: the conjugator form of word x_j word^-1."""
    m = len(word)
    while m and (word[m - 1] == j or word[m - 1] == -j):
        m -= 1
    return m


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in the free group of the given rank."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        prev = 0
        for k in self.letters:
            if k == 0 or abs(k) > self.rank:
                raise ValueError(f"letter {k} out of range for rank {self.rank}")
            if k == -prev:
                raise ValueError(f"word {self.letters} is not freely reduced")
            prev = k

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        """The same signed-integer text syntax braid words use."""
        return " ".join(str(k) for k in self.letters)


@dataclass(frozen=True)
class EndoOnBasis:
    """An endomorphism of a free group, given by the images of the basis generators."""

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError(f"expected {self.rank} images, got {len(self.images)}")
        for img in self.images:
            if img.rank != self.rank:
                raise ValueError("image rank mismatch")

    def is_identity(self) -> bool:
        return all(img.letters == (j,) for j, img in enumerate(self.images, start=1))


def _conjugated(u: list[int], u_inv: list[int], v, budget: int | None):
    """The image u v u^-1, where v = (V, r, V^-1) stands for V x_r V^-1.

    u v u^-1 = C x_r C^-1 with C the reduced product u V, stripped of
    trailing x_r^+-1.  u is a fresh list and becomes C.

    Only |u v u^-1| is checked against the budget.  Reducing u, v, u^-1
    letter by letter also passes through u and u v, but neither can be the
    first word over a budget: |u| and |v| are lengths of images checked
    earlier, or 1, and |u v| <= max(|u|, |v|, |u v u^-1|).  (If u V cancels
    less than all of V, one of |v|, |u v u^-1| is at least |u v|; if it
    cancels all of V, |u v| <= |u| + 1, with |u v| above all three only
    when u = v, that is a = b or b^-1 = a, which an automorphism never
    allows.)
    """
    V, r, V_inv = v
    lu, lv = len(u), len(V)
    # most junctions cancel nothing: test the first letter before the call
    c = _junction(u, V_inv) if lv and u[-1] == V_inv[-1] else 0
    C_inv = V_inv[: lv - c] + u_inv[c:]
    u[lu - c :] = V[c:]
    if c == lv:
        # V cancelled completely, so C is a prefix of u and may end in x_r^+-1
        m = _conjugator_length(u, r)
        del C_inv[: len(u) - m]
        del u[m:]
    if budget is not None and 2 * len(u) + 1 > budget:
        raise BudgetExceededError(
            f"endomorphism image exceeded {budget} letters; raise the budget to continue"
        )
    return u, r, C_inv


@lru_cache(maxsize=2)
def _artin_images(strand_count: int, letters: tuple[int, ...], budget: int | None = None) -> list[tuple]:
    """Images of x_1..x_n under the word's action, in conjugator form.

    Entry j - 1 is (W, p, W^-1) for the image W x_p W^-1 of x_j, with W
    reduced and not ending in x_p^+-1; p is the strand permutation's
    image of j.  Builds the composite right-to-left so each braid letter
    touches only two images.  No stored list is ever changed, so the
    identity images can share one empty list.

    Memoized on (strand_count, letters, budget), the last two calls:
    the fewest that catch every repeated word within one verification
    plan.  A result, its entries and their lists are shared with every
    later caller of the same key, so no caller may change them either.
    """
    empty: list[int] = []
    imgs: list[tuple] = [(empty, j, empty) for j in range(1, strand_count + 1)]
    for k in reversed(letters):
        i = abs(k) - 1
        if k > 0:
            # x_i -> a b a^-1, x_{i+1} -> a
            A, p, A_inv = a = imgs[i]
            imgs[i] = _conjugated([*A, p, *A_inv], [*A, -p, *A_inv], imgs[i + 1], budget)
            imgs[i + 1] = a
        else:
            # x_i -> b, x_{i+1} -> b^-1 a b
            B, q, B_inv = b = imgs[i + 1]
            imgs[i + 1] = _conjugated([*B, -q, *B_inv], [*B, q, *B_inv], imgs[i], budget)
            imgs[i] = b
    return imgs


def artin_disk_endo(w, max_image_letters: int | None = None) -> EndoOnBasis:
    """The action of a braid word on the rank-n free group (n = strand count)."""
    n = w.strand_count
    imgs = _artin_images(n, w.letters, max_image_letters)
    return EndoOnBasis(n, tuple(FreeWord(n, (*W, p, *W_inv)) for W, p, W_inv in imgs))


def eq_Bn(w, v, max_image_letters: int | None = None) -> bool:
    """Exact equality in B_n via the Artin action.

    True iff the action of w * v^-1 is the identity endomorphism;
    computed as equality of the two actions, which is the same predicate.
    The conjugator form of an image is unique, so the actions are compared
    on it without expanding the images.
    """
    check_comparable(w, v)
    return _artin_images(w.strand_count, w.letters, max_image_letters) == _artin_images(
        v.strand_count, v.letters, max_image_letters
    )
