"""Cross-oracle property suite: the two exact engines must agree.

The Garside normal form and the Artin free-group action decide equality
in B_n by entirely different computations, so running both on the same
random pairs is a strong end-to-end check of each.  A slice of the
pairs is made equivalent on purpose (by rewriting one word with braid
relations, commutations and free insertions) so the agreeing answer is
exercised on both sides of the boolean.

Also checks, for a range of n, that every defining relation of the
sphere braid presentation acts trivially on the punctured sphere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import freegroup, garside
from .sphere import DEFAULT_MAX_IMAGE_LETTERS, acts_trivially, sphere_endo
from .presentations import presentation_library
from .words import BraidWord

EQUIVALENT_FRACTION = 0.3  # share of the pairs made equivalent on purpose
REWRITE_MOVES = 12  # random moves per equivalent rewrite
RELATION_NS = range(3, 9)  # n at which the sphere relations are checked


def random_word(n: int, max_len: int, rng: random.Random) -> BraidWord:
    length = rng.randint(0, max_len)
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
    )
    return BraidWord(n, letters)


def rewrite_equivalent(w: BraidWord, rng: random.Random) -> BraidWord:
    """A different word for the same braid group element."""
    n = w.strand_count
    letters = list(w.letters)
    for _ in range(REWRITE_MOVES):
        kind = rng.randrange(4)
        if kind == 0:
            # insert a free inverse pair
            pos = rng.randint(0, len(letters))
            k = rng.choice((1, -1)) * rng.randint(1, n - 1)
            letters[pos:pos] = [k, -k]
        elif kind == 1:
            # delete a free inverse pair if one exists
            spots = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
            if spots:
                i = rng.choice(spots)
                del letters[i : i + 2]
        elif kind == 2:
            # commute two far-apart generators
            spots = [
                i
                for i in range(len(letters) - 1)
                if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2
            ]
            if spots:
                i = rng.choice(spots)
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        else:
            # braid move on a same-sign triple i (i+-1) i
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
    return BraidWord(n, tuple(letters))


@dataclass
class SelftestReport:
    pairs_per_n: dict[int, int] = field(default_factory=dict)
    equal_pairs_per_n: dict[int, int] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)
    relations_checked: dict[int, int] = field(default_factory=dict)
    relations_ok: bool = True

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.relations_ok

    def as_dict(self) -> dict:
        return {
            "pairs_per_n": {str(k): v for k, v in self.pairs_per_n.items()},
            "equal_pairs_per_n": {str(k): v for k, v in self.equal_pairs_per_n.items()},
            "mismatches": self.mismatches,
            "relations_checked": {str(k): v for k, v in self.relations_checked.items()},
            "relations_ok": self.relations_ok,
            "ok": self.ok,
        }


def run_cross_oracle(
    ns=range(3, 8),
    pairs: int = 1000,
    max_len: int = 40,
    seed: int = 20240801,
) -> SelftestReport:
    report = SelftestReport()
    for n in ns:
        rng = random.Random(seed * 1009 + n)
        equal_count = 0
        for k in range(pairs):
            w = random_word(n, max_len, rng)
            if rng.random() < EQUIVALENT_FRACTION:
                v = rewrite_equivalent(w, rng)
            else:
                v = random_word(n, max_len, rng)
            g = garside.equal_Bn(w, v)
            a = freegroup.eq_Bn(w, v, DEFAULT_MAX_IMAGE_LETTERS)
            if g != a:
                report.mismatches.append(
                    {"n": n, "w": w.to_text(), "v": v.to_text(), "garside": g, "artin": a}
                )
            if g:
                equal_count += 1
        report.pairs_per_n[n] = pairs
        report.equal_pairs_per_n[n] = equal_count
    for n in RELATION_NS:
        pres = presentation_library("sphere_braid", n)
        for rel in pres.relators:
            word = BraidWord(n, rel)
            if not acts_trivially(word, DEFAULT_MAX_IMAGE_LETTERS):
                report.relations_ok = False
            # relators that already hold in B_n (the two braid families)
            # must act as the exact identity endomorphism; the surface
            # relator is trivial only up to conjugation
            if garside.equal_Bn(word, BraidWord(n)):
                if not sphere_endo(word, DEFAULT_MAX_IMAGE_LETTERS).is_identity():
                    report.relations_ok = False
        report.relations_checked[n] = len(pres.relators)
    return report
