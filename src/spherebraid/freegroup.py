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
concatenation.  The letters taken one at a time (`_letter_steps`) are
freely reduced with a stack first, so sigma_k next to sigma_k^-1 costs
nothing.

Long words go through one substitution step (`_substitute`).  It composes
the images phi with an action psi that sends x_j to W_j x_q W_j^-1, every
W_j an interval x_a..x_b, its inverse, or one letter.  With the prefix
products R_m = phi(x_1..x_m), phi(x_a..x_b) = R_{a-1}^-1 R_b, so a step
costs about one junction per R_m and per image instead of one per letter.
The step walks the R_m in whichever way takes fewer junctions: up from the
least run end, or, since a braid automorphism fixes D = x_1..x_n, up from
R_0 = 1 and down from R_n = D around the widest gap between run ends.  A
one-letter W_j takes its image as it stands.  Two kinds of word take it:

- A permutation braid (Epstein et al., Word Processing in Groups, ch. 9)
  is a braid of one sign in which two strands cross at most once; its
  action is such a psi when its index sets are intervals (`_chunk_form`).
  Walking the letters right to left, `_walk` splits them into maximal
  permutation-braid chunks of one sign.  A chunk of at least
  CHUNK_LETTERS_PER_STRAND * n letters takes the step (`_long_chunks`),
  and every other letter the letter step.  The walk repeats, for letters
  of one sign, garside's permutation-braid test in a few lines of its
  own, so the two engines share no code.
- A power u^k built with ** declares its period |u|
  (`words.BraidWord.__pow__`).  At n >= 9, a power of at least 2n letters
  with k >= 2 and |u| < CHUNK_LETTERS_PER_STRAND * n takes u letter by
  letter.  When u's images are such a psi and one step costs at most |u|
  junctions and conjugations, each later period is one step; that holds
  for alpha0^n, alpha1^(n-1), alpha2^(n-2) and, at n = 12, 14 and 16 only,
  a^2 for q8's bipolar twist a, whose period of n(n-2)/4 letters reaches
  the gate from n = 18.
  Any other power goes by chunks and letters, as a word given by its
  letters alone does, however its letters repeat.

Every stored image and every R_m is held to the budget.  The images the
letter step would pass through inside a chunk or a composed period are
never built, so their peaks are not, and neither are the images of the
letter pairs that free reduction cancels before the letter step.

`_images` is the one entry into the engine: `artin_disk_endo`, `eq_Bn`
and the sphere layer all call it.  A product of words
(`words.BraidWord.product`) acts factor by factor there: the last
factor's images come from `_artin_images`, and each earlier factor acts
on them, right to left, by its own chunk split, so a chunk never crosses
a factor boundary.  Step b4's x sigma_i and sigma_(n-i) x, q8's and
dicyclic's x x and their relation words a x a x^-1 are such products, so
x and x^-1 are walked once per plan, except in q8 from n = 18 on, where
the bipolar twist and its square take the chunk memo's two entries in
between.  In b4, x sigma_i is one substitution step of x over sigma_i's
images from n = 9 on, and sigma_(n-i) x one letter step on x's memoized
images, so no pair acts with x^-1.  On the plan words the product meets
the flat word's budgets, which the tests check.
A word's first chunk, with no letter to its right, takes its form's
images on the identity as they are, held to the budget at the peak the
step would reach there.

Two memos, each of two entries: `_artin_images` keyed on (strand_count,
letters, budget, period), where `_images` passes a power's period only
where the gate for composing it holds and 0 elsewhere, and `_split`, the
chunk split of the last two words long enough to be walked.  Two is the
smallest size that catches every repeat within a plan (the root
identities compare several words with one full twist).  The budget is part of the key, so a result
is never returned under another budget, and a call over its budget raises
BudgetExceededError, which is not cached.  `theorems._run_plan` empties
both memos when a plan starts and when it ends.  Results are shared:
callers read them and never change a stored list.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
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
# through the substitution step.  A shorter one costs about as many junctions
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
    automorphism never allows.)  In the substitution step (`_substitute`)
    u is phi(W_j), a stored image or R_s^-1 R_t for two checked prefix
    products, and is not itself checked; the images the letter path would
    pass through inside the step are never built.  So there the budget
    bounds every stored image and every R_m, not the peaks between them.
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

    `letters` run right to left.  They are freely reduced with a stack
    first, so a letter next to its inverse builds no image; each letter
    left touches two images.
    """
    reduced: list[int] = []
    for k in letters:
        if reduced and reduced[-1] == -k:
            reduced.pop()
        else:
            reduced.append(k)
    for k in reduced:
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


def _runs(action: list[tuple]) -> list[tuple[int, int, int]] | None:
    """(j, s, t) with W_j = R_s^-1 R_t, R_m = x_1..x_m, for each nonempty conjugator W_j of the
    action: (j, a - 1, b) for x_a..x_b and (j, b, a - 1) for its inverse, so a letter has
    |s - t| = 1; None if some W_j is neither."""
    runs = []
    for j, (W, _, _) in enumerate(action):
        if W:
            # the letters of an interval, or of an interval's inverse, rise by one
            if W != list(range(W[0], W[0] + len(W))):
                return None
            runs.append((j, W[0] - 1, W[-1]) if W[0] > 0 else (j, -W[0], -W[-1] - 1))
    return runs


def _plan(runs: list[tuple[int, int, int]], n: int) -> tuple:
    """How `_substitute` composes with an action whose conjugators the runs give (`_runs`):
    (runs, lo, walk, D, D^-1).

    walk holds (m, +-1), one per R_m+-1 the step builds from R_m: up from
    R_lo = 1 to R_hi, then down from R_n = D = x_1..x_n to R_top.  The run
    ends are the s and t of the runs of two or more letters.  Up from the
    least end to the largest (top = n) takes the largest minus the least
    junctions; around the widest gap between neighbouring ends (lo = 0)
    takes n minus that gap, and is taken when that is fewer.  The walk, D
    and D^-1 are built here, once per action, since most steps are short.
    """
    ends = sorted({e for _, s, t in runs if abs(s - t) > 1 for e in (s, t)})
    lo, hi, top = 0, 0, n
    if ends:
        gaps = [b - a for a, b in zip(ends, ends[1:])]
        i = gaps.index(max(gaps))  # the first widest
        if gaps[i] > ends[0] + n - ends[-1]:
            hi, top = ends[i], ends[i + 1]
        else:
            lo, hi = ends[0], ends[-1]
    walk = [(m, 1) for m in range(lo, hi)] + [(m, -1) for m in range(n, top, -1)]
    return runs, lo, walk, list(range(1, n + 1)), list(range(-n, 0))


def _substitute(imgs: list[tuple], action: list[tuple], plan: tuple, budget: int | None) -> list[tuple]:
    """The images of phi o psi, for phi the images and psi the action, with its `_plan`.

    phi o psi sends x_j, with psi's image W_j x_q W_j^-1, to
    phi(W_j) phi(x_q) phi(W_j)^-1, and phi(W_j) = R_s^-1 R_t for the run
    (j, s, t), R_m = phi(x_1..x_m); R_n = D, since a braid automorphism
    fixes D.  That is one junction per R_m the walk builds and per
    conjugator, and one more per conjugation.  The walk up from lo needs
    no R_lo: R_lo^-1 cancels from every R_s^-1 R_t it serves.  Each R_m
    the walk builds is held to the budget, and each image the conjugation
    stores.
    """
    runs, lo, walk, D, D_inv = plan
    n = len(imgs)
    R: list = [None] * (n + 1)
    R_inv: list = [None] * (n + 1)
    R[lo] = R_inv[lo] = []
    R[n], R_inv[n] = D, D_inv
    # R_m+1 = R_m phi(x_m+1) going up, R_m-1 = R_m phi(x_m)^-1 going down
    for m, step in walk:
        A, p, A_inv = imgs[m if step > 0 else m - 1]
        v, v_inv = [*A, step * p, *A_inv], [*A, -step * p, *A_inv]
        q, q_inv = R[m], R_inv[m]
        c = _junction(q, v_inv)
        R[m + step] = w = q[: len(q) - c] + v[c:]
        R_inv[m + step] = v_inv[: len(v) - c] + q_inv[c:]
        if budget is not None and len(w) > budget:
            raise _over_budget(budget)
    new = [imgs[p - 1] for _, p, _ in action]
    for j, s, t in runs:
        if abs(s - t) == 1:
            # a letter's image as it stands
            A, p, A_inv = imgs[max(s, t) - 1]
            u, u_inv = [*A, p, *A_inv], [*A, -p, *A_inv]
            if t < s:
                u, u_inv = u_inv, u
        else:
            # R_s^-1 R_t cancels the common prefix of R_s and R_t
            head, head_inv, tail, tail_inv = R[s], R_inv[s], R[t], R_inv[t]
            c = _junction(head_inv, tail_inv) if head else 0
            u = head_inv[: len(head) - c] + tail[c:]
            u_inv = tail_inv[: len(tail) - c] + head[c:]
        new[j] = _conjugated(u, u_inv, new[j], budget)
    return new


class _ChunkForm(NamedTuple):
    """A permutation braid's action, its `_plan`, and its peak on the identity."""

    images: list[tuple]  # the images of x_1..x_n under the braid alone
    plan: tuple  # `_plan` of those images
    peak: int  # the longest of those images and of the R_m `_substitute` builds on the identity


def _chunk_form(perm: tuple[int, ...], positive: bool) -> _ChunkForm | None:
    """The action of the permutation braid of one sign with strand permutation perm; None if some
    index set is not an interval.

    perm is given as images, 1-based, in word order.  The braid sends x_j
    to W_j x_perm(j) W_j^-1, where W_j is
      positive: the increasing product of x_k over
                k in {perm(i) : i > j, perm(i) < perm(j)};
      negative: the decreasing product of x_k^-1 over
                k in {perm(i) : i < j, perm(i) > perm(j)}.
    No index in W_j's set is perm(j), so W_j is in conjugator form.  The
    result and its lists are shared through the memo of `_split`, so no
    caller may change them.
    """
    n = len(perm)
    images: list[tuple] = [None] * n
    passed: list[int] = []  # the perm values already walked past, sorted
    for j in range(n - 1, -1, -1) if positive else range(n):
        pj = perm[j]
        t = bisect_left(passed, pj)
        W = passed[:t] if positive else [-k for k in reversed(passed[t:])]
        images[j] = (W, pj, _inv(W))
        passed.insert(t, pj)
    runs = _runs(images)
    if runs is None:
        return None
    plan = _plan(runs, n)
    walk = plan[2]
    up = sum(step > 0 for _, step in walk)
    # on the identity |R_m| is m - lo up from lo, at most `up`, and m down from n
    longest = max(len(W) for W, _, _ in images)
    return _ChunkForm(images, plan, max(up, n - 1 if up < len(walk) else 0, 2 * longest + 1))


def _walk(letters: tuple[int, ...], n: int):
    """The maximal permutation-braid chunks of one sign, walking the letters right to left.

    A letter joins the open chunk while it has the chunk's sign and its
    two strands have not crossed in it; otherwise it opens the next
    chunk.  Yields (start, end, positive, perm) for each chunk
    letters[start:end], perm[i] the position where the strand starting
    at position i ends (perm[0] = 0).  This is the permutation-braid test
    of garside's chunk entry for a letter of the chunk's sign, kept here
    so that the two engines share no code; garside's chunks also take
    letters of the other sign, which a chunk of one sign cannot.
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
    each as (start, end, positive, form) with form its action or None (`_chunk_form`).

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
    """`_long_chunks` of the last two long words it was asked for, with their actions.

    Step b4's products x sigma_i ask for x's split once a pair, and
    sigma_(n-i) x once a plan, when the Artin memo computes x's action;
    q8's and dicyclic's x x reads x's split twice.  The result and its forms
    are shared, so no caller may change them.  `theorems._run_plan`
    empties this memo with the Artin memo.
    """
    return tuple(
        (start, end, positive, _chunk_form(tuple(perm[1:]), positive))
        for start, end, positive, perm in _walk(letters, n)
        if end - start >= CHUNK_LETTERS_PER_STRAND * n
    )


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
    letter, and each of the other k - 1 periods as one substitution step
    (`_substitute`) when u's conjugators are intervals, their inverses or
    single letters (`_runs`) and the step's junctions (`_plan`) and
    conjugations number at most p.  Otherwise each long chunk
    (`_long_chunks`) with an action of that kind takes the step, the
    word's first chunk as the images its memoized form holds, and the
    letters between those chunks go letter by letter (`_letter_steps`),
    freely reduced, each letter left touching two images.

    Every stored image and every R_m a step builds is held to the budget;
    the first chunk's images are held to the peak the step would reach on
    the identity.  The images the letter path would pass through inside a
    step, or for a letter pair that free reduction cancels, are never
    built, so their peaks are not held to the budget.  The
    images stored between steps equal the letter path's there, since the
    conjugator form is unique.  No stored list is ever changed, so the
    identity images can share one empty list, and a step shares the
    images it only permutes.

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
        runs = _runs(imgs)
        if runs is not None:
            plan = _plan(runs, n)
            if len(plan[2]) + sum(1 + (abs(s - t) > 1) for _, s, t in runs) <= period:
                action = imgs
                for _ in range(done // period - 1):
                    imgs = _substitute(imgs, action, plan, budget)
                return imgs
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
    right to left as `_long_chunks` gives them, by the substitution step, and every other letter,
    those of a chunk with no form among them, by the letter step."""
    done = len(letters)
    for start, end, _, form in chunks:
        if form is not None:
            _letter_steps(imgs, reversed(letters[end:done]), budget)
            imgs[:] = _substitute(imgs, form.images, form.plan, budget)
            done = start
    _letter_steps(imgs, reversed(letters[:done]), budget)


def _images(w, budget: int | None) -> list[tuple]:
    """The disk images of w in conjugator form; a product (`BraidWord.product`) by its factors.

    The one entry into the engine.  The last factor's images come from
    `_artin_images`, with its memo, its first-chunk rule and, where its
    gate lets it run, the factor's declared period;
    each earlier factor then acts on them, right to left, by its own
    `_long_chunks` split.  So a chunk never crosses a factor boundary,
    and on the plan words x sigma_i, sigma_(n-i) x, x x and a x a x^-1
    the product meets the flat word's budgets.  The
    product's images are not memoized.
    """
    n = w.strand_count
    *rest, last = w.factors or (w,)
    least, period = CHUNK_LETTERS_PER_STRAND * n, last.period
    # the gate for composing a power: n >= 9, as in `_long_chunks`, two periods or more, at least 2n letters
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
