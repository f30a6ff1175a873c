import pytest

from spherebraid.freegroup import BudgetExceededError
from spherebraid.presentations import (
    FinitePresentation,
    PresentationError,
    derived_subgroup,
    is_cyclic_subgroup,
    presentation_library,
    subgroup_closure,
    todd_coxeter,
)

D4 = FinitePresentation(2, ((1, 1, 1, 1), (2, 2), (2, 1, 2, 1)))
Z8 = FinitePresentation(1, ((1,) * 8,))
Z4Z2 = FinitePresentation(2, ((1, 1, 1, 1), (2, 2), (1, 2, -1, -2)))
Z2CUBED = FinitePresentation(
    3, ((1, 1), (2, 2), (3, 3), (1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))
)


def traced_table(t):
    """Reference multiplication table: a*b by tracing a word for b from a.

    One representative word per element, found breadth-first from the
    identity through the generator action, is traced from every element.
    """
    reps = [None] * t.order
    reps[0] = ()
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for c, b in enumerate(t.action[a]):
                if reps[b] is None:
                    reps[b] = reps[a] + (c,)
                    nxt.append(b)
        frontier = nxt
    table = []
    for a in range(t.order):
        row = []
        for b in range(t.order):
            acc = a
            for c in reps[b]:
                acc = t.action[acc][c]
            row.append(acc)
        table.append(tuple(row))
    return tuple(table)


class TestPresentationLibrary:
    def test_sphere_braid_3(self):
        p = presentation_library("sphere_braid", 3)
        assert p.generator_count == 2
        assert set(p.relators) == {(1, 2, 1, -2, -1, -2), (1, 2, 2, 1)}

    def test_q8(self):
        p = presentation_library("q8")
        assert p.generator_count == 2
        assert p.relators == ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1))

    def test_q8_is_dicyclic_2(self):
        assert presentation_library("q8") == presentation_library("dicyclic", 2)

    def test_dicyclic_3(self):
        p = presentation_library("dicyclic", 3)
        assert p.relators == ((1, 1, 1, 1, 1, 1), (1, 1, 1, -2, -2), (-2, 1, 2, 1))

    def test_parameter_validation(self):
        with pytest.raises(PresentationError):
            presentation_library("sphere_braid", 1)
        with pytest.raises(PresentationError):
            presentation_library("dicyclic", 1)
        with pytest.raises(PresentationError):
            presentation_library("nope")

    def test_relator_letters_validated(self):
        with pytest.raises(PresentationError):
            FinitePresentation(2, ((3,),))


class TestToddCoxeter:
    def test_q8_order_eight(self):
        t = todd_coxeter(presentation_library("q8"), 100)
        assert t.order == 8

    def test_sphere_braid_3_order_twelve(self):
        t = todd_coxeter(presentation_library("sphere_braid", 3), 10000)
        assert t.order == 12

    def test_sphere_braid_4_overflows(self):
        with pytest.raises(BudgetExceededError, match="coset cap 2000 hit"):
            todd_coxeter(presentation_library("sphere_braid", 4), 2000)

    def test_sphere_braid_2(self):
        assert todd_coxeter(presentation_library("sphere_braid", 2), 100).order == 2

    def test_dicyclic_orders(self):
        for n in range(2, 9):
            t = todd_coxeter(presentation_library("dicyclic", n), 16 * n)
            assert t.order == 4 * n

    def test_orders_match_sympy_coset_enumeration(self):
        fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
        from sympy.combinatorics.free_groups import free_group

        # <a, b | b a^-1 b^-1 a^2 b^-1, b^4> has order 4, and its enumeration
        # takes the coincidence branch that fills a column from the other
        # side and the path compression of the coset union-find
        coinciding = FinitePresentation(2, ((2, -1, -2, 1, 1, -2), (2, 2, 2, 2)))
        presentations = [presentation_library(name, n) for name, n in (("q8", 0), ("dicyclic", 5), ("sphere_braid", 3))]
        for p in [*presentations, coinciding]:
            free, *gens = free_group(" ".join(f"g{i}" for i in range(p.generator_count)))
            relators = []
            for rel in p.relators:
                word = free.identity
                for k in rel:
                    word *= gens[abs(k) - 1] ** (1 if k > 0 else -1)
                relators.append(word)
            assert todd_coxeter(p, 10000).order == fp_groups.FpGroup(free, relators).order()
        assert todd_coxeter(coinciding, 10000).order == 4

    def test_table_satisfies_relators(self):
        for name, n in (("q8", 0), ("dicyclic", 4), ("sphere_braid", 3)):
            p = presentation_library(name, n)
            t = todd_coxeter(p, 10000)
            for rel in p.relators:
                for a in range(t.order):
                    acc = a
                    for k in rel:
                        g = t.action[0][2 * (abs(k) - 1)]
                        acc = t.table[acc][g if k > 0 else t.inverse(g)]
                    assert acc == a

    def test_table_matches_representative_word_trace(self):
        groups = [presentation_library("q8"), D4, Z8, Z4Z2, Z2CUBED]
        groups += [presentation_library("sphere_braid", n) for n in (2, 3)]
        groups += [presentation_library("dicyclic", n) for n in range(2, 9)]
        for p in groups:
            t = todd_coxeter(p, 10000)
            assert t.table == traced_table(t), p

    def test_rows_and_columns_are_permutations(self):
        t = todd_coxeter(presentation_library("dicyclic", 3), 100)
        full = set(range(t.order))
        for a in range(t.order):
            assert set(t.table[a]) == full
            assert {t.table[b][a] for b in range(t.order)} == full

    def test_associativity_exhaustive(self):
        t = todd_coxeter(presentation_library("q8"), 100)
        for a in range(t.order):
            for b in range(t.order):
                ab = t.table[a][b]
                for c in range(t.order):
                    assert t.table[ab][c] == t.table[a][t.table[b][c]]

    def test_identity_is_element_zero(self):
        t = todd_coxeter(presentation_library("dicyclic", 2), 100)
        assert all(t.table[0][b] == b and t.table[b][0] == b for b in range(t.order))

    def test_max_cosets_validation(self):
        with pytest.raises(ValueError):
            todd_coxeter(presentation_library("q8"), 0)


def order_spectrum(t):
    """The sorted element orders of a Cayley table."""
    return sorted(t.element_order(a) for a in range(t.order))


Q8_SPECTRUM = [1, 2, 4, 4, 4, 4, 4, 4]


class TestOrderSpectrum:
    def test_trivial_group(self):
        t = todd_coxeter(FinitePresentation(1, ((1,),)), 10)
        assert order_spectrum(t) == [1]

    def test_q8_spectrum(self):
        t = todd_coxeter(presentation_library("q8"), 100)
        assert order_spectrum(t) == Q8_SPECTRUM

    def test_sphere_braid_3_unique_involution(self):
        t = todd_coxeter(presentation_library("sphere_braid", 3), 10000)
        assert t.involution_count() == 1
        assert order_spectrum(t).count(2) == 1

    def test_dicyclic_unique_involution(self):
        for n in range(2, 9):
            t = todd_coxeter(presentation_library("dicyclic", n), 16 * n)
            assert t.involution_count() == 1


class TestIsoTypeOrder8:
    """The order spectrum tells the five groups of order eight apart."""

    def test_all_five_types(self):
        spectra = [
            order_spectrum(todd_coxeter(p, 100))
            for p in (presentation_library("q8"), D4, Z8, Z4Z2, Z2CUBED)
        ]
        assert spectra == [
            Q8_SPECTRUM,
            [1, 2, 2, 2, 2, 2, 4, 4],
            [1, 2, 4, 4, 8, 8, 8, 8],
            [1, 2, 2, 2, 4, 4, 4, 4],
            [1, 2, 2, 2, 2, 2, 2, 2],
        ]

    def test_dicyclic_2_is_q8(self):
        t = todd_coxeter(presentation_library("dicyclic", 2), 100)
        assert order_spectrum(t) == Q8_SPECTRUM
        assert t.involution_count() == 1


class TestSubgroupHelpers:
    def test_b3_sphere_structure(self):
        t = todd_coxeter(presentation_library("sphere_braid", 3), 10000)
        der = derived_subgroup(t)
        assert len(der) == 3
        assert is_cyclic_subgroup(t, der)
        assert t.order // len(der) == 4  # the abelianization

    def test_q8_derived_is_center(self):
        t = todd_coxeter(presentation_library("q8"), 100)
        der = derived_subgroup(t)
        assert len(der) == 2
        assert t.order // len(der) == 4  # the abelianization

    def test_subgroup_closure(self):
        t = todd_coxeter(presentation_library("q8"), 100)
        g = t.action[0][0]
        assert len(subgroup_closure(t, [g])) == 4
