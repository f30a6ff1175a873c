"""Finite presentations, coset enumeration and small-group classification.

todd_coxeter enumerates the cosets of the trivial subgroup of a finitely
presented group with the HLT strategy: walk every relator from every
live coset, defining new cosets to fill gaps, closing scans into
deductions, and merging coincidences through a union-find with path
compression.  A cap on the number of live cosets guarantees
termination; hitting it raises BudgetExceededError, never returns a
wrong table.  On success the cosets are exactly the group elements, and
the result is the order with the generators' action on them, checked
against every relator: O(order * generators) entries.  The full
multiplication table, which the element-order, involution and
derived-subgroup checks read, is built from that action on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .freegroup import BudgetExceededError
from .words import named_element


class PresentationError(ValueError):
    """A presentation is malformed (bad generator index in a relator)."""


@dataclass(frozen=True)
class FinitePresentation:
    """Generators 1..generator_count and relator words in signed indices."""

    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.generator_count < 1:
            raise PresentationError("need at least one generator")
        for rel in self.relators:
            for k in rel:
                if k == 0 or abs(k) > self.generator_count:
                    raise PresentationError(
                        f"relator letter {k} out of range for {self.generator_count} generators"
                    )


@dataclass(frozen=True)
class CayleyTable:
    """A finite group as its generators' action; element 0 is the identity.

    action[a][c] is the element a*g for column c = 2i (g the generator
    i+1) and a*g^-1 for column c = 2i+1.  table[a][b] is the index of the
    product a*b (a acting first, then b, matching word order).
    """

    order: int
    action: tuple[tuple[int, ...], ...]

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        # right multiplication by b permutes the elements: right[b][a] = a*b.
        # Closing the generator columns from the identity, x*(b*g) is
        # (x*b)*g, so right[b*g] follows from right[b] and column g.
        right = {0: tuple(range(self.order))}
        frontier = [0]
        while frontier:
            b = frontier.pop()
            for c, e in enumerate(self.action[b]):
                if e not in right:
                    right[e] = tuple(self.action[x][c] for x in right[b])
                    frontier.append(e)
        return tuple(zip(*(right[b] for b in range(self.order))))

    def inverse(self, a: int) -> int:
        return self.table[a].index(0)

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != 0:
            acc = self.table[acc][a]
            k += 1
        return k

    def involution_count(self) -> int:
        return sum(1 for a in range(1, self.order) if self.table[a][a] == 0)


def presentation_library(name: str, n: int = 0) -> FinitePresentation:
    """The presentations used throughout: sphere_braid(n), q8, dicyclic(n).

    sphere_braid(n): sigma_1..sigma_{n-1} with the two braid relation
    families and the sphere relator.  dicyclic(n): <a, b | a^(2n),
    a^n b^-2, b^-1 a b a>, of order 4n.  q8 is dicyclic(2).
    """
    if name == "q8":
        return presentation_library("dicyclic", 2)
    if name == "dicyclic":
        if n < 2:
            raise PresentationError(f"dicyclic needs n >= 2, got {n}")
        return FinitePresentation(
            2, (tuple([1] * (2 * n)), tuple([1] * n + [-2, -2]), (-2, 1, 2, 1))
        )
    if name == "sphere_braid":
        if n < 2:
            raise PresentationError(f"sphere_braid needs n >= 2, got {n}")
        rels: list[tuple[int, ...]] = []
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                rels.append((i, j, -i, -j))
        for i in range(1, n - 1):
            rels.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
        rels.append(named_element("surface_relator", n).letters)
        return FinitePresentation(n - 1, tuple(rels))
    raise PresentationError(f"unknown presentation {name!r}")


class _Enumeration:
    """Mutable state of one HLT coset enumeration."""

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]
        self.live = 1
        self.queue: list[int] = []

    def rep(self, k: int) -> int:
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != root:
            self.p[k], k = root, self.p[k]
        return root

    def define(self, alpha: int, c: int):
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.live += 1
        if self.live > self.max_cosets:
            raise BudgetExceededError(f"coset cap {self.max_cosets} hit")
        self.table[alpha][c] = beta
        self.table[beta][c ^ 1] = alpha

    def merge(self, a: int, b: int):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.p[hi] = lo
            self.live -= 1
            self.queue.append(hi)

    def coincidence(self, a: int, b: int):
        self.merge(a, b)
        while self.queue:
            e = self.queue.pop()
            for c in range(self.ncols):
                f = self.table[e][c]
                if f is None:
                    continue
                self.table[f][c ^ 1] = None
                e1, f1 = self.rep(e), self.rep(f)
                if self.table[e1][c] is not None:
                    self.merge(f1, self.table[e1][c])
                elif self.table[f1][c ^ 1] is not None:
                    self.merge(e1, self.table[f1][c ^ 1])
                else:
                    self.table[e1][c] = f1
                    self.table[f1][c ^ 1] = e1

    def scan_and_fill(self, alpha: int, cols: tuple[int, ...], inv_cols: tuple[int, ...]):
        """Scan a relator from alpha, given as its columns and their inverse columns."""
        table = self.table
        f, b = alpha, alpha
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and (e := table[f][cols[i]]) is not None:
                f = e
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (e := table[b][inv_cols[j]]) is not None:
                b = e
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][inv_cols[i]] = f
                return
            self.define(f, cols[i])


def todd_coxeter(p: FinitePresentation, max_cosets: int) -> CayleyTable:
    """Enumerate the cosets of the trivial subgroup; the cosets are the group.

    Returns the order and the generators' action on the cosets, checked
    against every relator and reaching every coset from the identity.
    Raises BudgetExceededError when more than max_cosets cosets would be
    live at once.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    # each relator as table columns, converted once: 2i for the generator
    # i+1 and 2i+1 for its inverse, whose column is c ^ 1
    relators = [tuple(2 * abs(k) - 2 + (k < 0) for k in rel) for rel in p.relators if rel]
    scans = [(cols, tuple(c ^ 1 for c in cols)) for cols in relators]
    enum = _Enumeration(p.generator_count, max_cosets)
    alpha = 0
    while alpha < len(enum.table):
        if enum.p[alpha] != alpha:
            alpha += 1
            continue
        for cols, inv_cols in scans:
            enum.scan_and_fill(alpha, cols, inv_cols)
            if enum.p[alpha] != alpha:
                break
        if enum.p[alpha] == alpha:
            for c in range(enum.ncols):
                if enum.table[alpha][c] is None:
                    enum.define(alpha, c)
        alpha += 1

    live = [k for k in range(len(enum.table)) if enum.p[k] == k]
    index = {k: i for i, k in enumerate(live)}
    order = len(live)
    # compact generator action and verify completeness / relator closure
    action = tuple(
        tuple(index[enum.rep(enum.table[k][c])] for c in range(enum.ncols)) for k in live
    )
    for i in range(order):
        for cols in relators:
            acc = i
            for c in cols:
                acc = action[acc][c]
            if acc != i:
                raise RuntimeError("coset table failed relator verification")

    reached = {0}
    frontier = [0]
    while frontier:
        for b in action[frontier.pop()]:
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    if len(reached) != order:
        raise RuntimeError("coset table is not transitive over the identity coset")
    return CayleyTable(order, action)


def subgroup_closure(t: CayleyTable, elements) -> tuple[int, ...]:
    """The subgroup generated by the given element indices."""
    seen = {0}
    frontier = [0]
    gens = sorted(set(elements))
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = t.table[a][g]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(seen))


def derived_subgroup(t: CayleyTable) -> tuple[int, ...]:
    """Element indices of the commutator subgroup."""
    comms = set()
    for a in range(t.order):
        ia = t.inverse(a)
        for b in range(t.order):
            c = t.table[t.table[t.table[ia][t.inverse(b)]][a]][b]
            comms.add(c)
    return subgroup_closure(t, comms)


def is_cyclic_subgroup(t: CayleyTable, elements) -> bool:
    elems = set(elements)
    return any(
        len(elems) == t.element_order(a) and set(subgroup_closure(t, [a])) == elems
        for a in elems
    )
