"""Decision procedures for the sphere braid groups B_n(S^2).

The n-strand sphere braid group is the quotient of B_n by the relation

    sigma_1 .. sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} .. sigma_1 = 1.

Its elements act on the fundamental group of the n-punctured sphere,
a free group of rank n-1 obtained from the disk generators x_1..x_n by
killing the product x_1..x_n.  A representative of that action is the
disk action in conjugator form, x_j -> S_j x_p S_j^-1, with
x_n := (x_1..x_{n-1})^-1 substituted in S_j; sphere_endo expands it for
`act` and the self-test.  Because the basepoint is lost on the sphere,
the representative is canonical only up to inner automorphisms; the
relator above, for instance, acts by conjugation.  Triviality of the
*outer* action is therefore the decidable notion, and by axiom A1 it
characterizes membership in the central pair {1, Delta^2}, which
acts_trivially decides by comparing the conjugators unexpanded.

No procedure here distinguishes 1 from Delta^2 on its own.  The two
disambiguation rules -- relator_trivializes (exact, at the B_n level)
and square_rule (via the uniqueness of the involution, axioms A1-A3) --
each back an auditable certificate step, and torsion_order chains them
with cheap invariants to pin exact element orders.
"""

from __future__ import annotations

from dataclasses import replace
import math

from . import freegroup, garside
from .certificates import ProofStep, Verdict, VerificationCertificate
from .freegroup import EndoOnBasis, FreeWord, _extend, _images, _inv, _over_budget
from .words import (
    BraidWord,
    check_comparable,
    exponent_sum,
    named_element,
    permutation,
    xi,
)

DEFAULT_MAX_IMAGE_LETTERS = 10**6


class EngineDisagreementError(RuntimeError):
    """The Garside and Artin-action engines returned different answers."""


def _both_engines_equal(lhs: BraidWord, rhs: BraidWord, budget) -> bool:
    """Equality in B_n decided by both exact engines, which must agree."""
    g = garside.equal_Bn(lhs, rhs)
    a = freegroup.eq_Bn(lhs, rhs, budget)
    if g != a:
        raise EngineDisagreementError(
            f"garside says {g}, artin action says {a} on "
            f"[{lhs.to_text()}] vs [{rhs.to_text()}] in B_{lhs.strand_count}"
        )
    return g


def _exact_step(step_id, statement, pairs, budget) -> ProofStep:
    """One exact-Bn step covering the listed word identities, both engines."""
    n = pairs[0][0].strand_count
    ok = all(_both_engines_equal(lhs, rhs, budget) for lhs, rhs in pairs)
    return ProofStep(
        id=step_id,
        statement=statement,
        method="exact-Bn",
        ok=ok,
        data={
            "n": n,
            "pairs": [[lhs.to_text(), rhs.to_text()] for lhs, rhs in pairs],
            "engines": ["garside", "artin"],
            "equal": ok,
        },
    )


def _check_image(letters: int, max_image_letters: int | None) -> None:
    if max_image_letters is not None and letters > max_image_letters:
        raise _over_budget(max_image_letters)


def _sphere_conjugators(n: int, disk_images: list[tuple]) -> list[tuple[list[int], int]]:
    """(S_j, p) for j < n: the conjugator W_j of the disk image W_j x_p W_j^-1
    of x_j, with x_n := (x_1..x_{n-1})^-1 substituted and reduced."""
    closure = list(range(-(n - 1), 0))  # (x_1 .. x_{n-1})^-1
    substitute = {n: (closure, _inv(closure)), -n: (_inv(closure), closure)}
    out = []
    for W, p, W_inv in disk_images[: n - 1]:
        if n not in W and -n not in W:
            out.append((W, p))  # shared with the engine, which never changes it
            continue
        S: list[int] = []
        start, end = 0, len(W)
        for t in [t for t, k in enumerate(W) if k == n or k == -n]:
            _extend(S, W[start:t], W_inv[end - t : end - start])
            _extend(S, *substitute[W[t]])
            start = t + 1
        _extend(S, W[start:], W_inv[: end - start])
        out.append((S, p))
    return out


def _common_conjugator(conjugators: list[list[int]]) -> tuple[int, ...] | None:
    """The reduced c with c x_j c^-1 = C_j x_j C_j^-1 for every j, or None.

    Each C_j is reduced and does not end in x_j^+-1.  In rank >= 2 the
    centraliser of x_j is <x_j>, so c fits x_j iff c = C_j x_j^m, that is
    iff c stripped of its trailing x_j^+-1 is C_j; and c ends in a power
    of at most one generator, so it is the longest C_j.
    """
    c = max(conjugators, key=len)
    if all(c[: freegroup._conjugator_length(c, j)] == C for j, C in enumerate(conjugators, start=1)):
        return tuple(c)
    return None


def sphere_endo(w: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> EndoOnBasis:
    """Action of w on the rank-(n-1) free group of the n-punctured sphere.

    Disk action on x_1..x_n, then every occurrence of x_n is replaced by
    (x_1..x_{n-1})^-1 and the images reduced.  The image of x_n itself is
    dropped.  The representative is canonical only up to conjugation.
    """
    n = w.strand_count
    if n < 3:
        raise ValueError(f"the sphere action needs n >= 3, got n = {n}")
    closure = list(range(-(n - 1), 0))  # (x_1 .. x_{n-1})^-1
    images = []
    for S, p in _sphere_conjugators(n, _images(w, max_image_letters)):
        out = S[:]
        _extend(out, *((closure, _inv(closure)) if p == n else ([p], [-p])))
        _extend(out, _inv(S), S)
        _check_image(len(out), max_image_letters)
        images.append(FreeWord(n - 1, tuple(out)))
    return EndoOnBasis(n - 1, tuple(images))


def inner_conjugator(e: EndoOnBasis) -> tuple[int, ...] | None:
    """The reduced word c with e = (g -> c g c^-1), or None if e is not inner.

    An inner e maps x_j to the reduced word C_j x_j C_j^-1, so C_j is the
    first half of the image of x_j.
    """
    conjugators = [list(img.letters[: len(img) // 2]) for img in e.images]
    for j, (img, C) in enumerate(zip(e.images, conjugators), start=1):
        if img.letters != (*C, j, *_inv(C)):
            return None
    return _common_conjugator(conjugators)


def acts_trivially(w: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> bool:
    """True iff w acts trivially on the punctured sphere (outer action).

    By axiom A1 this means exactly w in {1, Delta^2} in B_n(S^2).  The test
    never tells 1 from Delta^2; only square_rule, relator_trivializes or an
    exact identity in B_n can.  A word with a nontrivial strand permutation
    moves a puncture class and is rejected without computing the action.
    Otherwise p = j, every image C_j x_j C_j^-1 (C_j: S_j without trailing
    x_j^+-1) is held to the budget, and the C_j are compared; when every
    disk image is x_j, every C_j is empty and the comparison says True.
    """
    n = w.strand_count
    if n < 3:
        raise ValueError(f"acts_trivially needs n >= 3, got n = {n}")
    if not permutation(w).is_identity():
        return False
    conjugators = [
        S[: freegroup._conjugator_length(S, p)]
        for S, p in _sphere_conjugators(n, _images(w, max_image_letters))
    ]
    _check_image(2 * max(map(len, conjugators)) + 1, max_image_letters)
    return _common_conjugator(conjugators) is not None


def eq_mod_center(w: BraidWord, v: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> bool:
    """True iff w = v or w = Delta^2 v in B_n(S^2) (axiom A1).

    That is, iff w v^-1 acts trivially.  The outer action is a
    homomorphism, so when v itself acts trivially, w v^-1 acts as w does,
    and the test acts on w and v instead of on the longer w v^-1.  An
    action a plan has just computed comes from the engine's memo:
    Delta^2's, in a torsion plan from alpha1's exact step and in q8 from
    s1, x x against the full twist.
    """
    check_comparable(w, v)
    if acts_trivially(v, max_image_letters):
        return acts_trivially(w, max_image_letters)
    return acts_trivially(w * v.inverse(), max_image_letters)


def _relator_target(w: BraidWord) -> BraidWord | None:
    """The one of the surface relator and 1 that has w's exponent sum, or None.

    The exponent sum is a homomorphism B_n -> Z, and the relator's, 2(n-1),
    is not 0, so w can equal at most this one of the two in B_n.
    """
    n, total = w.strand_count, exponent_sum(w)
    if total == 0:
        return BraidWord(n)
    relator = named_element("surface_relator", n)
    return relator if exponent_sum(relator) == total else None


def relator_trivializes(w: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> bool:
    """Exact test that w is, as a B_n element, the surface relator or trivial.

    Either way w = 1 in B_n(S^2); the test is exact and rests on no axiom.
    Both engines compare w, under the image budget, with `_relator_target(w)`;
    when neither has w's exponent sum, w is neither and no engine runs.
    """
    target = _relator_target(w)
    return target is not None and _both_engines_equal(w, target, max_image_letters)


def square_rule(v: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> ProofStep | None:
    """Certify v^2 = Delta^2 (so v has order 4) in B_n(S^2), or fail.

    Needs a nontrivial strand permutation and a trivial sphere action of
    v^2.  Then v^2 lies in {1, Delta^2} by A1; v^2 = 1 would make v an
    involution different from Delta^2, impossible by A2; so v^2 = Delta^2,
    and since Delta^2 has order 2 (A3), v has order exactly 4.
    """
    if v.strand_count < 3:
        raise ValueError(f"square_rule needs n >= 3, got n = {v.strand_count}")
    if permutation(v).is_identity():
        return None
    if not acts_trivially(v**2, max_image_letters):
        return None
    return ProofStep(
        id="square-rule",
        statement=f"the square of [{v.to_text()}] acts trivially on the punctured "
        f"sphere, so it lies in {{1, Delta^2}}; the strand permutation of the element "
        f"is nontrivial, so it is not an involution, forcing its square to be Delta^2 "
        f"and its order to be exactly 4 in B_{v.strand_count}(S^2)",
        method="square-rule",
        axioms=("A1", "A2", "A3"),
        data={"n": v.strand_count, "word": v.to_text()},
    )


def _root_identity_steps(w: BraidWord, k: int, prefix: str, max_image_letters) -> list[ProofStep]:
    """Certify w^k = Delta^2 in B_n(S^2), by the first of three routes that applies.

    1. w^k has the letters of the full-twist word, which `named_element`
       builds as alpha0^n: one `identical-words` step, which runs no engine
       and cites no axiom, and whose data names both words' bases and
       exponents instead of writing their letters.
    2. w^k = Delta^2 in B_n: one exact-Bn step, both engines.  It is tried
       only when w^k and Delta^2 have the same exponent sum, k times that
       of w against n(n-1).  The exponent sum is a homomorphism B_n -> Z,
       so unequal sums make the step fail for certain, and it is skipped.
    3. On the sphere: a mod-center step (A1), then the square rule when
       w^k is a square as a word.  Otherwise A5 gives the value, flagged
       axiom-backed consistency, when w^k is a canonical root
       alpha_i^(n-i) letter for letter; for any other word the root step
       fails.
    """
    n = w.strand_count
    power = w**k
    delta2 = named_element("full_twist", n)
    if power.letters == delta2.letters:
        base = BraidWord(n, delta2.letters[: delta2.period])
        exponent = len(delta2) // len(base)
        return [
            ProofStep(
                id=f"{prefix}root",
                statement=f"[{w.to_text()}]^{k} is the full-twist word [{base.to_text()}]^"
                f"{exponent} letter for letter, so it equals Delta^2 in B_{n}",
                method="identical-words",
                data={
                    "n": n,
                    "word": w.to_text(),
                    "power": k,
                    "full_twist": {"word": base.to_text(), "power": exponent},
                },
            )
        ]
    if k * exponent_sum(w) == n * (n - 1):
        exact = _exact_step(
            f"{prefix}root",
            f"[{w.to_text()}]^{k} equals the full-twist word already in B_{n} "
            f"(normal forms and free-group actions both agree)",
            [(power, delta2)],
            max_image_letters,
        )
        if exact.ok:
            return [exact]
    # Not a disk identity: certify on the sphere.  Consistency first.
    consistent = eq_mod_center(power, delta2, max_image_letters)
    steps = [
        ProofStep(
            id=f"{prefix}modc",
            statement=f"[{w.to_text()}]^{k} agrees with the full twist up to the central "
            f"pair {{1, Delta^2}} in B_{n}(S^2)",
            method="mod-center",
            ok=consistent,
            axioms=("A1",),
            data={"n": n, "lhs": power.to_text(), "rhs": delta2.to_text()},
        )
    ]
    if not consistent:
        return steps
    # Disambiguate 1 vs Delta^2 with the square rule when w^k is a square
    # as a word: w^(k/2) for even k, and for odd k the half of its letters
    # when they split into two equal halves (alpha2 = sigma_1^2 at n = 3).
    root = w ** (k // 2) if k % 2 == 0 else BraidWord(n, power.letters[: len(power) // 2])
    if root**2 == power:
        sq = square_rule(root, max_image_letters)
        if sq is not None:
            steps.append(
                replace(
                    sq,
                    id=f"{prefix}root",
                    statement=sq.statement
                    + f"; in particular [{w.to_text()}]^{k} = Delta^2 in B_{n}(S^2)",
                    depends_on=(f"{prefix}modc",),
                )
            )
            return steps
    # Last resort: the classification of torsion elements pins the value,
    # but only for the canonical roots alpha_i^(n-i).
    i = n - k
    if not (0 <= i <= 2 and w.letters == named_element(f"alpha{i}", n).letters):
        steps.append(
            ProofStep(
                id=f"{prefix}root",
                statement=f"[{w.to_text()}]^{k} lies in {{1, Delta^2}}, but the square rule does "
                f"not settle which, and the classification of torsion elements does so only for "
                f"the canonical roots, so its value Delta^2 is not established in B_{n}(S^2)",
                method="square-rule",
                ok=False,
                depends_on=(f"{prefix}modc",),
                data={"n": n, "word": w.to_text(), "power": k},
            )
        )
        return steps
    steps.append(
        ProofStep(
            id=f"{prefix}root",
            statement=f"axiom-backed consistency: [{w.to_text()}]^{k} lies in {{1, Delta^2}} "
            f"and the classification of torsion elements gives it the value Delta^2",
            method="axiom",
            depends_on=(f"{prefix}modc",),
            axioms=("A5",),
            data={"n": n, "word": w.to_text(), "power": k, "flag": "axiom-backed consistency"},
        )
    )
    return steps


def torsion_order(
    w: BraidWord,
    claimed: int,
    max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS,
    step_prefix: str = "t",
) -> VerificationCertificate:
    """Certificate that w has order exactly `claimed` in B_n(S^2), or a refutation.

    The upper bound comes from a root identity w^(claimed/2) = Delta^2
    plus the order of Delta^2 (A3); lower bounds chain the cheap
    invariants in the fixed order permutation, then abelianization.
    Steps that only the torsion classification can close, for the
    canonical roots alpha_i^(n-i), cite A5 and are flagged axiom-backed
    consistency.  An odd claimed order that the
    invariants do not refute is INCONCLUSIVE.
    """
    n = w.strand_count
    if n < 3:
        raise ValueError(f"torsion_order needs n >= 3, got n = {n}")
    if claimed < 1:
        raise ValueError(f"claimed order must be >= 1, got {claimed}")
    claim = f"the element [{w.to_text()}] has order exactly {claimed} in B_{n}(S^2)"
    pre = step_prefix

    perm = permutation(w)
    perm_order = perm.order()
    residue = xi(w)
    xi_order = residue.order()
    lower = math.lcm(perm_order, xi_order)

    inv_step = ProofStep(
        id=f"{pre}inv",
        statement=f"the strand permutation of [{w.to_text()}] has order {perm_order} and its "
        f"abelianization class has order {xi_order} in Z_{residue.modulus}; both divide the "
        f"order of the element, so the order is a multiple of {lower}",
        method="invariant",
        data={
            "n": n,
            "word": w.to_text(),
            "permutation": list(perm.images),
            "permutation_order": perm_order,
            "xi": [residue.value, residue.modulus],
            "xi_order": xi_order,
            "lower_multiple": lower,
        },
    )

    # Refutation by invariant separation: the invariant orders must divide
    # the claimed order, else w^claimed is visibly nontrivial.
    if claimed % perm_order != 0 or claimed % xi_order != 0:
        witness = "permutation" if claimed % perm_order else "abelianization"
        steps = [
            inv_step,
            ProofStep(
                id=f"{pre}refute",
                statement=f"w^{claimed} has a nontrivial {witness} invariant, so the order "
                f"of [{w.to_text()}] does not divide {claimed}",
                method="invariant",
                ok=False,
                depends_on=(f"{pre}inv",),
                data={"n": n, "word": w.to_text(), "claimed": claimed, "witness": witness},
            ),
        ]
        return VerificationCertificate(claim, n, Verdict.REFUTED, steps)

    if claimed % 2 != 0:
        return VerificationCertificate(claim, n, Verdict.INCONCLUSIVE, [inv_step])

    k = claimed // 2
    root_steps = _root_identity_steps(w, k, pre, max_image_letters)
    if not root_steps[-1].ok:
        return VerificationCertificate(claim, n, Verdict.INCONCLUSIVE, [inv_step] + root_steps)
    root_id = root_steps[-1].id

    upper_step = ProofStep(
        id=f"{pre}upper",
        statement=f"w^{k} = Delta^2 and Delta^2 has order 2, so w^{claimed} = 1 and the "
        f"order of [{w.to_text()}] divides {claimed}",
        method="arithmetic",
        depends_on=(root_id,),
        axioms=("A3",),
        data={"n": n, "word": w.to_text(), "half_power": k, "claimed": claimed},
    )

    # Candidates: divisors of claimed that are multiples of the invariant
    # lower bound.  A proper candidate d that divides k is ruled out: w^d = 1
    # would force w^k to be a power of 1, against w^k = Delta^2 != 1 (A3).
    # A proper candidate need not divide k (sigma_1 at n = 3 claimed at 12
    # has lower bound 4 and leaves 4, which does not divide 6), and then
    # the order stays INCONCLUSIVE.
    candidates = [d for d in range(1, claimed + 1) if claimed % d == 0 and d % lower == 0]
    improper = [d for d in candidates if d != claimed]
    not_dividing_k = [d for d in improper if k % d != 0]
    if not_dividing_k:
        return VerificationCertificate(
            claim, n, Verdict.INCONCLUSIVE, [inv_step] + root_steps + [upper_step]
        )
    if improper:
        pin_statement = (
            f"the divisors of {claimed} compatible with the invariants are {candidates}; "
            f"every proper one divides {k}, and w^{k} = Delta^2 != 1 rules it out, so the "
            f"order is exactly {claimed}"
        )
    else:
        pin_statement = (
            f"the only divisor of {claimed} compatible with the invariants is {claimed} "
            f"itself, so the order is exactly {claimed}"
        )
    pin_step = ProofStep(
        id=f"{pre}pin",
        statement=pin_statement,
        method="arithmetic",
        depends_on=(f"{pre}inv", root_id, f"{pre}upper"),
        axioms=("A3",),
        data={"n": n, "word": w.to_text(), "claimed": claimed, "candidates": candidates},
    )
    steps = [inv_step] + root_steps + [upper_step, pin_step]
    flags = {"a5_backed": any("A5" in s.axioms for s in root_steps)}
    return VerificationCertificate(claim, n, Verdict.VERIFIED, steps, flags)
