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

Most plan words are built from half twists, and a half twist is one
permutation braid (Epstein et al., Word Processing in Groups, ch. 9):
a positive or negative braid in which any two strands cross at most
once.  Its action has a closed form (`_chunk_step`): x_j goes to
W_j x_pi(j) W_j^-1, with pi the permutation and W_j the product of the
x_k over an index set read off pi.  When every index set is an interval
[a, b], the action phi built so far composes with the chunk through
phi(x_a..x_b) = Q_{a-1}^-1 Q_b, where Q_m = phi(x_lo..x_m) and lo is
the least a, so a chunk costs about one junction per strand instead of
one per letter.  Walking the letters right to left, the engine splits
them into maximal permutation-braid chunks of one sign (`_walk`).  A
chunk of at least CHUNK_LETTERS_PER_STRAND * n letters takes the closed
form (`_long_chunks`), and every other letter the letter step.  The walk
repeats garside's permutation-braid test in a few lines of its own, so
the two engines share no code.

The torsion roots' words alpha0^n, alpha1^(n-1) and alpha2^(n-2) split
into chunks of about 2n letters, too short for the closed form.  A word
built as a power u^k says so: `BraidWord.__pow__` records |u| as its
period.  So at n >= 9 a power u^k (k >= 2) of at least 2n letters with
|u| < CHUNK_LETTERS_PER_STRAND * n is composed one period at a time
instead (`_power_images`): phi^(j+1) = phi^j o phi for phi = the action
of u, substituting phi^j into the conjugators of phi.  A word given by
its letters alone, as `act` parses one, declares no period and is never
composed, however its letters repeat.  Artin's theorem
gives the shortcut: a braid automorphism fixes the boundary word
D = x_1..x_n, so phi^j(x_a..x_b) =
phi^j(x_1..x_{a-1})^-1 D phi^j(x_{b+1}..x_n)^-1, and a period of an
alpha_i or of alpha0^-1 costs at most two junctions per image instead of
about n letter steps.  A power whose period would cost more that way
than letter by letter goes as any other word.

The budget bounds every stored image, every Q_m and every product a
composed period builds, not the images the letter step would pass
through inside a chunk or a composed period.

The disk action is memoized: `_artin_images` keeps its last two
results, keyed on (strand_count, letters, budget, period).  `_images`
passes the declared period only where the power path runs and 0
elsewhere, so a word's key never splits on a period the engine would
not use.  The root identities
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

The chunk splits are memoized too: `_split` keeps the split of
the last two words of at least CHUNK_LETTERS_PER_STRAND * n letters at
n >= 9, each chunk with its closed form.  A shorter word, or any word
at smaller n, is never walked and never enters the memo, so a short
factor such as sigma_i cannot evict a long one.  A word's first chunk,
with no letter to its right, takes its closed form's images on the
identity as they are, held to the budget as the chunk step holds them.

`_images` is the one entry into the engine: `artin_disk_endo`, `eq_Bn`
and the sphere layer all call it.  A product of words
(`words.BraidWord.product`) acts factor by factor there: the last
factor's images come from `_artin_images`, with its memo and its
declared period, and each earlier factor acts on them, right to left,
by its own memoized chunk split.  Step b4's words x sigma_i x^-1 are such
products, so the action of x^-1 is computed once per plan and x is
walked once, where the flat word walked some n^2 letters in every pair;
the conjugations x y x^-1 and x alpha0 x^-1 and the squares x x of q8
and dicyclic are products too.  A product's chunks end at its factor
boundaries, where the flat word's may run across one: on the flat
x sigma_i x^-1 the walk closes x's last letters with sigma_i.  On the
plan words the product still meets the flat word's budgets, which the
tests check.  `_run_plan` empties the chunk memo with the Artin memo.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .words import check_comparable


class BudgetExceededError(RuntimeError):
    """A computation outgrew its budget.

    Raised when an endomorphism image outgrows the letter budget, and by
    presentations when a coset enumeration hits its coset cap.
    """


# junctions are scanned letter by letter up to this length, then galloped
_SCAN = 8

# A permutation-braid chunk of at least this many letters per strand goes
# through its closed form.  A shorter one costs about as many junctions
# as it has letters either way, and goes letter by letter.
CHUNK_LETTERS_PER_STRAND = 4


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


def _over_budget(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"endomorphism image exceeded {budget} letters; raise the budget to continue")


def _conjugated(u: list[int], u_inv: list[int], v, budget: int | None):
    """The image u v u^-1, where v = (V, r, V^-1) stands for V x_r V^-1.

    u v u^-1 = C x_r C^-1 with C the reduced product u V, stripped of
    trailing x_r^+-1.  u is a fresh, nonempty list and becomes C.

    Only |u v u^-1| is checked against the budget.  On the letter path
    u v u^-1 is a b a^-1 (or b^-1 a b) for two images a, b, and reducing
    it letter by letter also passes through u and u v, but neither can be
    the first word over a budget: |u| and |v| are lengths of images
    checked earlier, or 1, and |u v| <= max(|u|, |v|, |u v u^-1|).  (If
    u V cancels less than all of V, one of |v|, |u v u^-1| is at least
    |u v|; if it cancels all of V, |u v| <= |u| + 1, with |u v| above all
    three only when u = v, that is a = b or b^-1 = a, which an
    automorphism never allows.)  On the chunk path u is the image of a
    product of generators, built from the checked Q_m of `_chunk_step`
    but not itself checked, and the images the letter path would pass
    through inside the chunk are never built: there the budget bounds
    every stored image and every Q_m, not the peaks inside a chunk.  On
    the power path u is a checked product (`_power_images`), and the
    images inside a period are never built either.
    """
    V, r, V_inv = v
    lv = len(V)
    if lv and u[-1] != V_inv[-1]:
        # most junctions cancel nothing, which the first letter shows
        C_inv = V_inv + u_inv
        u += V
    else:
        c = _junction(u, V_inv) if lv else 0
        C_inv = V_inv[: lv - c] + u_inv[c:]
        u[len(u) - c :] = V[c:]
        if c == lv:
            # V cancelled completely, so C is a prefix of u and may end in x_r^+-1
            m = _conjugator_length(u, r)
            del C_inv[: len(u) - m]
            del u[m:]
    if budget is not None and 2 * len(u) + 1 > budget:
        raise _over_budget(budget)
    return u, r, C_inv


def _letter_steps(imgs: list[tuple], letters, budget: int | None) -> None:
    """Compose the images with the action of each letter in turn, in place.

    `letters` run right to left; each one touches two images.
    """
    for k in letters:
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


class _ChunkForm(NamedTuple):
    """A permutation braid's closed form, and its action on the identity images."""

    perm: tuple[int, ...]  # the strand permutation (images, 1-based, word order)
    spans: list[tuple[int, int, int]]  # (j, a, b): W_j = (x_a..x_b)^{+-1}, j 0-based
    lo: int  # the least a
    hi: int  # the largest b
    images: list[tuple]  # the images of x_1..x_n under the braid alone
    peak: int  # the longest of those images and of the Q_m = x_lo..x_m


def _chunk_form(perm: tuple[int, ...], positive: bool) -> _ChunkForm | None:
    """The closed form of the permutation braid of one sign with strand permutation perm; None if
    some index set is not an interval.

    perm is given as images, 1-based, in word order.  The braid sends x_j
    to W_j x_perm(j) W_j^-1, where W_j is
      positive: the increasing product of x_k over
                k in {perm(i) : i > j, perm(i) < perm(j)};
      negative: the decreasing product of x_k^-1 over
                k in {perm(i) : i < j, perm(i) > perm(j)}.
    On the identity images, W_j is the image's conjugator itself, since
    no index in its set is perm(j), so it cannot end in x_perm(j)^+-1.
    The result and its lists are shared through the memo of
    `_long_chunks`, so no caller may change them.
    """
    n = len(perm)
    spans = []
    passed: list[int] = []  # the perm values already walked past, sorted
    for j in range(n - 1, -1, -1) if positive else range(n):
        pj = perm[j]
        t = bisect_left(passed, pj)
        ks = passed[:t] if positive else passed[t:]
        if ks:
            if ks[-1] - ks[0] + 1 != len(ks):
                return None
            spans.append((j, ks[0], ks[-1]))
        passed.insert(t, pj)
    empty: list[int] = []
    images = [(empty, p, empty) for p in perm]
    for j, a, b in spans:
        W, W_inv = list(range(a, b + 1)), list(range(-b, -a + 1))
        images[j] = (W, perm[j], W_inv) if positive else (W_inv, perm[j], W)
    lo, hi = min(a for _, a, _ in spans), max(b for _, _, b in spans)
    longest = max(b - a + 1 for _, a, b in spans)
    return _ChunkForm(perm, spans, lo, hi, images, max(hi - lo + 1, 2 * longest + 1))


def _chunk_step(imgs: list[tuple], form: _ChunkForm, positive: bool, budget: int | None) -> None:
    """Compose the images phi with the action of a permutation braid P of one sign, in place.

    form is P's closed form (`_chunk_form`), every index set an interval.
    phi o P sends x_j to phi(W_j) phi(x_perm(j)) phi(W_j)^-1, and for
    W_j = x_a..x_b, phi(x_a..x_b) = Q_{a-1}^-1 Q_b with Q_m the reduced
    phi(x_lo..x_m), lo the least a: one junction per Q_m and per image.
    Each Q_m is held to the budget.
    """
    lo = form.lo
    Q: list[list[int]] = [[]]  # Q[m - lo + 1] is Q_m
    Q_inv: list[list[int]] = [[]]
    for A, p, A_inv in imgs[lo - 1 : form.hi]:
        q, q_inv = Q[-1], Q_inv[-1]
        v, v_inv = [*A, p, *A_inv], [*A, -p, *A_inv]
        c = _junction(q, v_inv)
        Q.append(q[: len(q) - c] + v[c:])
        Q_inv.append(v_inv[: len(v) - c] + q_inv[c:])
        if budget is not None and len(Q[-1]) > budget:
            raise _over_budget(budget)
    new = [imgs[p - 1] for p in form.perm]
    for j, a, b in form.spans:
        # Q_{a-1}^-1 Q_b cancels the common prefix of Q_{a-1} and Q_b
        head, head_inv, tail, tail_inv = Q[a - lo], Q_inv[a - lo], Q[b - lo + 1], Q_inv[b - lo + 1]
        c = _junction(head_inv, tail_inv)
        u = head_inv[: len(head) - c] + tail[c:]
        u_inv = tail_inv[: len(tail) - c] + head[c:]
        if not positive:
            u, u_inv = u_inv, u
        new[j] = _conjugated(u, u_inv, new[j], budget)
    imgs[:] = new


def _walk(letters: tuple[int, ...], n: int):
    """The maximal permutation-braid chunks of one sign, walking the letters right to left.

    A letter joins the open chunk while it has the chunk's sign and its
    two strands have not crossed in it; otherwise it opens the next
    chunk.  Yields (start, end, positive, perm) for each chunk
    letters[start:end], perm[i] the position where the strand starting
    at position i ends (perm[0] = 0).  This is the permutation-braid test
    of garside's chunk entry, kept here so that the two engines share no
    code.
    """
    identity = list(range(n + 1))
    end, sign, perm = len(letters), 1 if letters[-1] > 0 else -1, identity[:]
    t = len(letters)
    for k in reversed(letters):
        t -= 1
        i = k * sign
        if i > 0:
            a, b = perm[i], perm[i + 1]
            if a < b:  # the strands at i and i + 1 have not crossed: join
                perm[i], perm[i + 1] = b, a
                continue
        yield t + 1, end, sign > 0, perm
        if i < 0:
            sign, i = -sign, -i
        end, perm = t + 1, identity[:]
        perm[i], perm[i + 1] = i + 1, i
    yield 0, end, sign > 0, perm


def _long_chunks(letters: tuple[int, ...], n: int) -> tuple:
    """The chunks of `_walk` with at least CHUNK_LETTERS_PER_STRAND * n letters, right to left,
    each as (start, end, positive, form) with form its closed form or None (`_chunk_form`).

    Below n = 2 * CHUNK_LETTERS_PER_STRAND + 1 no permutation braid is
    that long, so neither a word there nor a shorter word is walked, and
    neither enters the memo (`_split`).
    """
    least = CHUNK_LETTERS_PER_STRAND * n
    if n * (n - 1) // 2 < least or len(letters) < least:
        return ()
    return _split(letters, n)


@lru_cache(maxsize=2)
def _split(letters: tuple[int, ...], n: int) -> tuple:
    """`_long_chunks` of the last two long words it was asked for, with their closed forms.

    Step b4's products x sigma_i x^-1 ask for x's split once a pair and
    for x^-1's only when the Artin memo computes x^-1's action, and q8's
    and dicyclic's x x reads x's split twice.  The result and its forms
    are shared, so no caller may change them.  `theorems._run_plan`
    empties this memo with the Artin memo.
    """
    return tuple(
        (start, end, positive, _chunk_form(tuple(perm[1:]), positive))
        for start, end, positive, perm in _walk(letters, n)
        if end - start >= CHUNK_LETTERS_PER_STRAND * n
    )


def _substituted(imgs: list[tuple], letters):
    """The factors phi(x_|x|)^(sign x) for the letters x, each as the list pair (v, v^-1)."""
    for x in letters:
        A, q, A_inv = imgs[abs(x) - 1]
        v, v_inv = [*A, q, *A_inv], [*A, -q, *A_inv]
        yield (v, v_inv) if x > 0 else (v_inv, v)


def _conjugator_factors(W: list[int], D: list[int], D_inv: list[int]) -> tuple[list[int], list, list[int]]:
    """phi(W) as a product: (left, middle, right), middle [D^+-1] or [] between substituted letters.

    A braid automorphism phi fixes D = x_1..x_n, so for an interval
    W = x_a..x_b
        phi(W) = phi(x_1..x_{a-1})^-1 D phi(x_{b+1}..x_n)^-1,
    n - |W| + 1 factors instead of |W|, and the inverse of an interval
    takes the inverse of that.  That side is taken when it is shorter;
    any other W is substituted as it stands.
    """
    n = len(D)
    if 2 * len(W) > n:
        if W[0] > 0 and W == D[W[0] - 1 : W[-1]]:
            return D_inv[n - W[0] + 1 :], [(D, D_inv)], D_inv[: n - W[-1]]
        if W[0] < 0 and W == D_inv[n + W[0] : n + W[-1] + 1]:
            return D[-W[0] :], [(D_inv, D)], D[: -W[-1] - 1]
    return W, [], []


def _power_images(base: list[tuple], period: int, k: int, budget: int | None) -> list[tuple] | None:
    """The images of phi^k, composed one period at a time from base = phi.

    phi^(j+1) = phi^j o phi sends x_i, with base entry (W, p, W^-1), to
    U x_p' U^-1 for U = phi^j(W) and x_p' the image phi^j(x_p).  An empty
    W shares the image of x_p; any other U is multiplied out one factor,
    and one junction, at a time, through D^+-1 when W is a long interval
    x_a..x_b or its inverse (`_conjugator_factors`).
    For alpha0, alpha1 and alpha2 that is at most two junctions per image
    and period, the conjugation included, against about n letter steps.
    Returns None, having built no image, when a period would take more
    factors and conjugations than it has letters, each of which costs
    the letter path one conjugation.  D and D^-1 are built once per
    action and shared by every product, whose letters are sliced from
    them and from the images.

    Every image stored at a period boundary and every product of two or
    more factors is held to the budget; a single factor is a stored
    image, or D^+-1, which is shorter than the image of phi whose
    conjugator it starts.  The stored images equal the letter path's at
    the same points, since the conjugator form is unique; the images
    inside a period are never built.
    """
    n = len(base)
    D = list(range(1, n + 1))
    D_inv = _inv(D)
    plans = [_conjugator_factors(W, D, D_inv) if W else None for W, _, _ in base]
    if sum(len(left) + len(middle) + len(right) + 1 for left, middle, right in filter(None, plans)) > period:
        return None
    imgs = base
    for _ in range(k - 1):
        new = []
        for (_, p, _), plan in zip(base, plans):
            if plan is None:
                new.append(imgs[p - 1])
                continue
            left, middle, right = plan
            factors = chain(_substituted(imgs, left), middle, _substituted(imgs, right))
            U, U_inv = next(factors)
            if middle and not left:
                U, U_inv = U[:], U_inv[:]  # D^+-1 itself, which _conjugated would extend
            # the product loop of `_chunk_step`'s Q_m, inline in both: a shared
            # generator slowed the chunk step by about 2 %
            for v, v_inv in factors:
                c = _junction(U, v_inv)
                U, U_inv = U[: len(U) - c] + v[c:], v_inv[: len(v) - c] + U_inv[c:]
                if budget is not None and len(U) > budget:
                    raise _over_budget(budget)
            new.append(_conjugated(U, U_inv, imgs[p - 1], budget))
        imgs = new
    return imgs


@lru_cache(maxsize=2)
def _artin_images(
    strand_count: int, letters: tuple[int, ...], budget: int | None = None, period: int = 0
) -> list[tuple]:
    """Images of x_1..x_n under the word's action, in conjugator form.

    Entry j - 1 is (W, p, W^-1) for the image W x_p W^-1 of x_j, with W
    reduced and not ending in x_p^+-1; p is the strand permutation's
    image of j.  Builds the composite right-to-left.  A nonzero period p
    says the letters are u^k for u their first p letters; `_images`
    passes one only for k >= 2, at least 2n letters, n >= 9 and
    p < CHUNK_LETTERS_PER_STRAND * n.  Such a word takes u letter by
    letter and the other k - 1 periods by composition (`_power_images`),
    unless a composed period costs more than u's letters.  Otherwise a
    permutation-braid chunk of one sign with at least
    CHUNK_LETTERS_PER_STRAND * n letters (`_long_chunks`) goes through
    its closed form (`_chunk_step`), the word's first chunk as the images
    its memoized form holds; every other letter goes letter by
    letter (`_letter_steps`), touching two images.  Below
    n = 2 * CHUNK_LETTERS_PER_STRAND + 1 no permutation braid is that
    long, and no chunk is looked for.

    Every stored image, every Q_m of a chunk (the first chunk's among
    them) and every product of two or more factors in a composed period
    is held to the budget.  The images stored at
    period boundaries equal the letter path's there, since the
    conjugator form is unique.  The images the letter path would pass
    through inside a chunk or a composed period are never built, so
    their peaks are not held to the budget.  No stored list is ever
    changed, so the identity images can share one empty list, and
    composed periods share the images they only permute.

    Memoized on (strand_count, letters, budget, period), the last two calls:
    the fewest that catch every repeated word within one verification
    plan.  A result, its entries and their lists are shared with every
    later caller of the same key, so no caller may change them either.
    """
    n = strand_count
    empty: list[int] = []
    imgs: list[tuple] = [(empty, j, empty) for j in range(1, n + 1)]
    done = len(letters)  # letters[done:] are applied
    if period:
        _letter_steps(imgs, reversed(letters[:period]), budget)
        powered = _power_images(imgs, period, done // period, budget)
        if powered is not None:
            return powered
        done -= period
    chunks = _long_chunks(letters[:done], n)
    if chunks and chunks[0][1] == len(letters) and (form := chunks[0][3]):
        # no letter to its right: the images are its own, from the memo
        if budget is not None and form.peak > budget:
            raise _over_budget(budget)
        imgs, done, chunks = form.images[:], chunks[0][0], chunks[1:]
    _compose(imgs, letters[:done], chunks, budget)
    return imgs


def _compose(imgs: list[tuple], letters: tuple[int, ...], chunks, budget: int | None) -> None:
    """Compose the images with the action of the letters, in place: each of the chunks, given
    right to left as `_long_chunks` gives them, through its closed form, and every other letter,
    those of a chunk with no closed form among them, by the letter step."""
    done = len(letters)
    for start, end, positive, form in chunks:
        if form is not None:
            _letter_steps(imgs, reversed(letters[end:done]), budget)
            _chunk_step(imgs, form, positive, budget)
            done = start
    _letter_steps(imgs, reversed(letters[:done]), budget)


def _images(w, budget: int | None) -> list[tuple]:
    """The disk images of w in conjugator form; a product (`BraidWord.product`) by its factors.

    The one entry into the engine.  The last factor's images come from
    `_artin_images`, with its memo, its first-chunk rule and, where its
    gate lets it run, the power path on the factor's declared period;
    each earlier factor then acts on them, right to left, by its own
    `_long_chunks` split.  So a chunk never crosses a factor boundary,
    and on the plan words x sigma_i x^-1, x x, x y x^-1 and
    x alpha0 x^-1 the product meets the flat word's budgets.  The
    product's images are not memoized.
    """
    n = w.strand_count
    *rest, last = w.factors or (w,)
    least, period = CHUNK_LETTERS_PER_STRAND * n, last.period
    # the power path's gate: n >= 9, as in `_long_chunks`, two periods or more, at least 2n letters
    if n * (n - 1) // 2 < least or len(last) < max(2 * n, 2 * period) or period >= least:
        period = 0
    imgs = _artin_images(n, last.letters, budget, period)
    if not rest:
        return imgs
    imgs = imgs[:]
    for f in reversed(rest):
        _compose(imgs, f.letters, _long_chunks(f.letters, n), budget)
    return imgs


def _clear_memos() -> None:
    """Empty the disk-action memo and the chunk-split memo."""
    _artin_images.cache_clear()
    _split.cache_clear()


def artin_disk_endo(w, max_image_letters: int | None = None) -> EndoOnBasis:
    """The action of a braid word on the rank-n free group (n = strand count)."""
    n = w.strand_count
    imgs = _images(w, max_image_letters)
    return EndoOnBasis(n, tuple(FreeWord(n, (*W, p, *W_inv)) for W, p, W_inv in imgs))


def eq_Bn(w, v, max_image_letters: int | None = None) -> bool:
    """Exact equality in B_n via the Artin action.

    True iff the action of w * v^-1 is the identity endomorphism;
    computed as equality of the two actions, which is the same predicate.
    The conjugator form of an image is unique, so the actions are compared
    on it without expanding the images.
    """
    check_comparable(w, v)
    return _images(w, max_image_letters) == _images(v, max_image_letters)
