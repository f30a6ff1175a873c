"""Decision procedures for the sphere braid groups B_n(S^2).

The n-strand sphere braid group is the quotient of B_n by the relation

    sigma_1 .. sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} .. sigma_1 = 1.

Its elements act on the fundamental group of the n-punctured sphere,
a free group of rank n-1 obtained from the disk generators x_1..x_n by
killing the product x_1..x_n.  sphere_endo computes a representative of
that action: the disk action followed by the substitution
x_n := (x_1..x_{n-1})^-1.  Because the basepoint is lost on the sphere,
the representative is canonical only up to inner automorphisms; the
relator above, for instance, acts by conjugation.  Triviality of the
*outer* action is therefore the decidable notion, and by axiom A1 it
characterizes membership in the central pair {1, Delta^2}.

No procedure here distinguishes 1 from Delta^2 on its own.  The two
disambiguation rules -- relator_trivializes (exact, at the B_n level)
and square_rule (via the uniqueness of the involution, axioms A1-A3) --
each leave an auditable certificate step, and torsion_order chains them
with cheap invariants to pin exact element orders.
"""

from __future__ import annotations

from enum import Enum
import math

from . import freegroup, garside
from .certificates import AxiomId, ProofStep, Verdict, VerificationCertificate, make_certificate
from .freegroup import BudgetExceededError, EndoOnBasis, FreeWord, _artin_images, _extend, _inv
from .words import (
    BraidWord,
    StrandCountMismatchError,
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


AXIOMS: dict[str, AxiomId] = {
    "A1": AxiomId(
        "A1",
        "For n >= 3 the kernel of the outer action of the n-strand sphere braid "
        "group on the fundamental group of the n-punctured sphere is exactly "
        "{1, Delta^2}.",
        "classical surface mapping class group theory (Magnus; Gillette-Van Buskirk)",
    ),
    "A2": AxiomId(
        "A2",
        "For n >= 3 the full twist Delta^2 is the unique element of order 2 in the "
        "n-strand sphere braid group.",
        "classical sphere braid group theory (Fadell-Van Buskirk; Gillette-Van Buskirk)",
    ),
    "A3": AxiomId(
        "A3",
        "For n >= 3 the full twist Delta^2 generates the centre of the n-strand "
        "sphere braid group and has order exactly 2.",
        "classical sphere braid group theory (Gillette-Van Buskirk)",
    ),
    "A4": AxiomId(
        "A4",
        "The action of the n-strand braid group of the disk on the free group of "
        "rank n is faithful.",
        "Artin (1925/1947)",
    ),
    "A5": AxiomId(
        "A5",
        "Every torsion element of the n-strand sphere braid group (n >= 3) is a "
        "conjugate of a power of one of the canonical roots of the full twist, of "
        "orders 2n, 2(n-1) and 2(n-2) respectively.",
        "Murasugi (1982), Seifert fibre spaces and braid groups",
    ),
}


class CenterDecision(Enum):
    """Whether a word lies in the central pair {1, Delta^2} of B_n(S^2).

    InCenterSet never distinguishes 1 from Delta^2 by itself; route all
    disambiguation through square_rule, relator_trivializes or exact
    identities in B_n.
    """

    NotInCenterSet = "NotInCenterSet"
    InCenterSet = "InCenterSet"


def sphere_endo(w: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> EndoOnBasis:
    """Action of w on the rank-(n-1) free group of the n-punctured sphere.

    Disk action on x_1..x_n, then every occurrence of x_n is replaced by
    (x_1..x_{n-1})^-1 and the images reduced.  The image of x_n itself is
    dropped.  The representative is canonical only up to conjugation.
    """
    n = w.strand_count
    if n < 3:
        raise ValueError(f"the sphere action needs n >= 3, got n = {n}")
    disk = _artin_images(n, w.letters, max_image_letters)
    closure = list(range(-(n - 1), 0))  # (x_1 .. x_{n-1})^-1
    closure_inv = list(range(1, n))
    substitute = {n: (closure, closure_inv), -n: (closure_inv, closure)}
    images = []
    for W, p, W_inv in disk[: n - 1]:
        # the disk image is W x_p W^-1, so x_n is substituted in W and x_p only
        if p != n and n not in W and -n not in W:
            out = (*W, p, *W_inv)  # already reduced
        else:
            # S is W with x_n substituted, reduced one piece at a time
            S: list[int] = []
            start, end = 0, len(W)
            for t in [t for t, k in enumerate(W) if k == n or k == -n]:
                _extend(S, W[start:t], W_inv[end - t : end - start])
                _extend(S, *substitute[W[t]])
                start = t + 1
            _extend(S, W[start:], W_inv[: end - start])
            out = S[:]
            _extend(out, *substitute.get(p, ([p], [-p])))
            _extend(out, _inv(S), S)
        if max_image_letters is not None and len(out) > max_image_letters:
            raise BudgetExceededError(
                f"endomorphism image exceeded {max_image_letters} letters"
            )
        images.append(FreeWord(n - 1, tuple(out)))
    return EndoOnBasis(n - 1, tuple(images))


def inner_conjugator(e: EndoOnBasis) -> tuple[int, ...] | None:
    """The reduced word c with e = (g -> c g c^-1), or None if e is not inner.

    The image of x_1 under a conjugation is a reduced word u x_1 u^-1,
    which pins the conjugator down to c = u x_1^k; the exponent k is read
    off the image of x_2 and the full candidate is then verified against
    every generator, so a non-None answer is a checked equality.
    """
    imgs = [list(img.letters) for img in e.images]
    w1 = imgs[0]
    if len(w1) % 2 != 1:
        return None
    half = len(w1) // 2
    if w1[half] != 1:
        return None
    u = w1[:half]
    if w1 != u + [1] + _inv(u):
        return None
    if len(imgs) == 1:
        return tuple(u)
    # psi_j = u^-1 e(x_j) u; conjugating by the empty word changes nothing
    psi = imgs
    if u:
        u_inv = _inv(u)
        psi = []
        for img in imgs:
            conj = u_inv[:]
            _extend(conj, img, _inv(img))
            _extend(conj, u, u_inv)
            psi.append(conj)
    if psi[0] != [1]:
        return None
    # psi_j must be x_1^k x_j x_1^-k for one k shared by all j >= 2
    p2 = psi[1]
    if len(p2) % 2 != 1:
        return None
    k = len(p2) // 2
    if k and p2[0] not in (1, -1):
        return None
    sign = 1 if not k or p2[0] == 1 else -1
    for j, pj in enumerate(psi[1:], start=2):
        expected = [sign] * k + [j] + [-sign] * k
        if pj != expected:
            return None
    _extend(u, [sign] * k, [-sign] * k)
    return tuple(u)


def acts_trivially(w: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> CenterDecision:
    """InCenterSet iff w acts trivially on the punctured sphere (outer action).

    By axiom A1 this means exactly w in {1, Delta^2} in B_n(S^2).  A word
    with a nontrivial strand permutation moves a puncture class and is
    rejected without computing the action.
    """
    if w.strand_count < 3:
        raise ValueError(f"acts_trivially needs n >= 3, got n = {w.strand_count}")
    if not permutation(w).is_identity():
        return CenterDecision.NotInCenterSet
    e = sphere_endo(w, max_image_letters)
    if inner_conjugator(e) is None:
        return CenterDecision.NotInCenterSet
    return CenterDecision.InCenterSet


def eq_mod_center(w: BraidWord, v: BraidWord, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS) -> bool:
    """True iff w = v or w = Delta^2 v in B_n(S^2) (axiom A1)."""
    if w.strand_count != v.strand_count:
        raise StrandCountMismatchError(
            f"cannot compare words on {w.strand_count} and {v.strand_count} strands"
        )
    return acts_trivially(w * v.inverse(), max_image_letters) is CenterDecision.InCenterSet


def relator_trivializes(w: BraidWord) -> tuple[bool, ProofStep]:
    """Exact test that w is, as a B_n element, the surface relator or trivial.

    Either way w = 1 in B_n(S^2); the step is exact and cites no axioms.
    """
    n = w.strand_count
    relator = named_element("surface_relator", n)
    empty = BraidWord(n)
    matched = None
    if garside.equal_Bn(w, relator):
        matched = "surface-relator"
    elif garside.equal_Bn(w, empty):
        matched = "identity"
    step = ProofStep(
        id="relator",
        statement=f"the word [{w.to_text()}] equals "
        + (
            f"the defining sphere relator of B_{n} in B_{n}, hence is trivial in B_{n}(S^2)"
            if matched == "surface-relator"
            else f"the empty word in B_{n}"
            if matched == "identity"
            else f"neither the sphere relator nor the empty word in B_{n}"
        ),
        method="relator",
        ok=matched is not None,
        data={"n": n, "word": w.to_text(), "matched": matched},
    )
    return matched is not None, step


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
    if acts_trivially(v * v, max_image_letters) is not CenterDecision.InCenterSet:
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


def _root_identity_steps(w: BraidWord, k: int, prefix: str, max_image_letters) -> tuple[list[ProofStep], bool]:
    """Certify w^k = Delta^2 in B_n(S^2); returns (steps, a5_backed)."""
    n = w.strand_count
    power = w**k
    delta2 = named_element("full_twist", n)
    if _both_engines_equal(power, delta2, max_image_letters):
        return (
            [
                ProofStep(
                    id=f"{prefix}root",
                    statement=f"[{w.to_text()}]^{k} equals the full-twist word already in B_{n} "
                    f"(normal forms and free-group actions both agree)",
                    method="exact-Bn",
                    data={
                        "n": n,
                        "pairs": [[power.to_text(), delta2.to_text()]],
                        "engines": ["garside", "artin"],
                        "equal": True,
                    },
                )
            ],
            False,
        )
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
        return steps, False
    # Disambiguate 1 vs Delta^2 with the square rule when a square root of
    # w^k is available as a word: w^(k/2) for even k, or the literal half of
    # the letter sequence when it happens to repeat.
    half_word = None
    if k % 2 == 0:
        half_word = w ** (k // 2)
    else:
        letters = power.letters
        mid = len(letters) // 2
        if len(letters) % 2 == 0 and letters[:mid] == letters[mid:]:
            half_word = BraidWord(n, letters[:mid])
    if half_word is not None:
        sq = square_rule(half_word, max_image_letters)
        if sq is not None:
            steps.append(
                ProofStep(
                    id=f"{prefix}root",
                    statement=sq.statement
                    + f"; in particular [{w.to_text()}]^{k} = Delta^2 in B_{n}(S^2)",
                    method="square-rule",
                    depends_on=(f"{prefix}modc",),
                    axioms=sq.axioms,
                    data=sq.data,
                )
            )
            return steps, False
    # Last resort: the classification of torsion elements pins the order.
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
    return steps, True


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
    Steps that only the torsion classification can close cite A5 and are
    flagged axiom-backed consistency.
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
        return make_certificate(claim, n, Verdict.REFUTED, steps)

    if claimed % 2 != 0:
        # Odd claimed orders never arise from the canonical roots handled
        # here; certify only when the invariants already pin the order and
        # the power is visibly central, resolving 1 vs Delta^2 by A5.
        if lower != claimed or acts_trivially(w**claimed, max_image_letters) is not CenterDecision.InCenterSet:
            return make_certificate(claim, n, Verdict.INCONCLUSIVE, [inv_step])
        steps = [
            inv_step,
            ProofStep(
                id=f"{pre}odd",
                statement=f"axiom-backed consistency: w^{claimed} lies in {{1, Delta^2}}, the "
                f"invariants force the order to be a multiple of {claimed}, and the torsion "
                f"classification resolves w^{claimed} = 1",
                method="axiom",
                depends_on=(f"{pre}inv",),
                axioms=("A1", "A5"),
                data={"n": n, "word": w.to_text(), "claimed": claimed, "flag": "axiom-backed consistency"},
            ),
        ]
        return make_certificate(claim, n, Verdict.VERIFIED, steps)

    k = claimed // 2
    root_steps, a5_backed = _root_identity_steps(w, k, pre, max_image_letters)
    if not root_steps[-1].ok:
        return make_certificate(claim, n, Verdict.INCONCLUSIVE, [inv_step] + root_steps)
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
    # lower bound.  A proper candidate d divides k (since claimed = 2k and
    # lower | d), and w^d = 1 would force w^k to be a power of 1, against
    # w^k = Delta^2 != 1 (A3).
    candidates = [d for d in range(1, claimed + 1) if claimed % d == 0 and d % lower == 0]
    improper = [d for d in candidates if d != claimed]
    not_dividing_k = [d for d in improper if k % d != 0]
    if not_dividing_k:
        return make_certificate(
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
    flags = {"a5_backed": a5_backed}
    return make_certificate(claim, n, Verdict.VERIFIED, steps, flags)
