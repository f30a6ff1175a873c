"""Scripted verification plans for the realization results.

Each plan is a hard-coded DAG of proof steps, not a theorem search:
the goal is an auditable reproduction in which every step names the
computation or the axiom that carries it.  Where an identity already
holds in the disk braid group (x^2 = Delta^2, a x a x^-1 = the surface
relator, conjugation by the half twist mirrors indices), the plan runs
BOTH exact engines and requires agreement; sphere-level reasoning
appears only where the identity genuinely lives in the quotient (the
bipolar twist squares to Delta^2), so the trusted base of every step is
as small as possible.

q8 at even n and dicyclic are one statement, <a, x> = Dic_4m, and one
certifier makes both (`_dicyclic_steps`): a is the bipolar twist with
m = 2 or the cycle word alpha0 with m = n, and x is the half twist.  It
takes a's order from `sphere.torsion_order`, which runs no engine on
alpha0^n = Delta^2, the full-twist word letter for letter, and certifies
the bipolar twist's square Delta^2 by the square rule.  The order of the
subgroup follows from the certified relations by counting (s6, d6): the
relations move every x to the right, which bounds the group from above,
and a cyclic subgroup with one element outside it bounds it from below.
Coset enumeration runs only in background at n = 2 and 3.

Every plan runs through `_run_plan`, which checks n, makes the certificate
and returns it INCONCLUSIVE instead of raising when a configured budget
(background's coset cap, the endomorphism letter cap) runs out.  Each
plan starts and ends with empty memos (`freegroup._clear_memos`: the
disk actions and the chunk splits of long words; `garside._clear_memos`:
the normal forms of the long factors of products), so it reuses only
its own work and leaves none behind.  Step b4's words x sigma_i and
sigma_(n-i) x, for x the half twist, and the words x x and a x a x^-1
are built as products (`BraidWord.product`), so both engines read x and
x^-1 by their factors.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import freegroup, garside, presentations, sphere
from .certificates import ProofStep, Verdict, VerificationCertificate
from .freegroup import BudgetExceededError
from .presentations import presentation_library, todd_coxeter
from .sphere import (
    DEFAULT_MAX_IMAGE_LETTERS,
    _exact_step,
    acts_trivially,
    torsion_order,
)
from .words import BraidWord, named_element, permutation, xi

DEFAULT_MAX_COSETS = 10_000


def _run_plan(key: str, n: int, body: Callable[[], tuple]) -> VerificationCertificate:
    """Certify the (verdict, steps, flags) that the body of PLANS[key] returns at n.

    A budget that runs out anywhere in the body gives the one-step
    INCONCLUSIVE certificate naming the reason.
    """
    plan = PLANS[key]
    plan.check_n(n)
    _clear_memos()
    try:
        verdict, steps, flags = body()
    except BudgetExceededError as exc:
        reason = str(exc)
        step = ProofStep(
            id="budget",
            statement=f"computation aborted: {reason}",
            method="budget",
            ok=False,
            data={"n": n, "reason": reason},
        )
        verdict, steps, flags = Verdict.INCONCLUSIVE, [step], None
    finally:
        _clear_memos()
    return VerificationCertificate(plan.claim, n, verdict, steps, flags or {})


def _clear_memos() -> None:
    """Empty the plan memos, which each module names in its own `_clear_memos`."""
    freegroup._clear_memos()
    garside._clear_memos()


def _verdict(steps: list[ProofStep]) -> Verdict:
    return Verdict.VERIFIED if all(s.ok for s in steps) else Verdict.REFUTED


def _dicyclic_steps(prefix: str, a: BraidWord, x: BraidWord, m: int, budget) -> list[ProofStep]:
    """The steps that certify <a, x> = Dic_4m, the dicyclic group of order 4m, in B_n(S^2).

    Dic_4m = <a, x | a^(2m) = 1, x^2 = a^m, x a x^-1 = a^-1>; Dic_8 is the
    quaternion group.  The steps, with p the prefix:

    - p1: x^2 = Delta^2, exact in B_n, both engines.
    - p2.*: a has order exactly 2m, the steps of `torsion_order(a, 2m)`;
      its root step gives a^m = Delta^2, so x^2 = a^m.
    - p3: x a x^-1 = a^-1, since a x a x^-1 is the surface relator or 1
      in B_n, whichever has its exponent sum (`sphere._relator_target`),
      exact in B_n, both engines; hence 1 in B_n(S^2).
    - p4: x lies outside <a>: every power of a's strand permutation that
      sends 1 where x's does differs from x's.
    - p6: the order 4m, by counting.  It holds only when `torsion_order`
      is VERIFIED, not merely when its steps are ok: an order that the
      invariants cannot pin leaves every step ok and the order open.  The
      id is the one the benchmark's known answers read (s6, d6).
    """
    n = a.strand_count
    steps = [
        _exact_step(
            f"{prefix}1",
            f"the square of x equals the full-twist word in B_{n}",
            [(BraidWord.product(x, x), named_element("full_twist", n))],
            budget,
        )
    ]
    order = torsion_order(a, 2 * m, budget, step_prefix=f"{prefix}2.")
    steps += order.steps
    relation = BraidWord.product(a, x, a, x.inverse())
    target = sphere._relator_target(relation)
    if target is None:  # neither has the relation's exponent sum: compare with the relator
        target = named_element("surface_relator", n)
    name = "the surface relator" if target.letters else "1"
    steps.append(
        _exact_step(
            f"{prefix}3",
            f"a x a x^-1 is {name} in B_{n} (normal forms and free-group actions "
            f"both agree), so it is 1 in B_{n}(S^2): x a x^-1 = a^-1",
            [(relation, target)],
            budget,
        )
    )
    perm_a, perm_x = permutation(a), list(permutation(x).images)
    g, powers, point = perm_a.images, [], 1  # point = g^k(1)
    # power = g^at, advanced only to each match: alpha0 matches at k = 1 of n
    power, at = list(range(1, n + 1)), 0
    for k in range(perm_a.order()):
        if point == perm_x[0]:
            for _ in range(k - at):
                power = [g[v - 1] for v in power]
            powers.append([k, power])
            at = k
        point = g[point - 1]
    steps.append(
        ProofStep(
            id=f"{prefix}4",
            statement=f"the powers of a's strand permutation that send 1 where x's does are "
            f"those listed, with their exponents below its order, and each differs from x's, so "
            f"x lies outside the subgroup generated by a",
            method="invariant",
            ok=all(power != perm_x for _, power in powers),
            data={"n": n, "perm_x": perm_x, "powers": powers},
        )
    )
    steps.append(
        ProofStep(
            id=f"{prefix}6",
            statement=f"a and x satisfy a^{2 * m} = 1 and a^{m} = Delta^2 ({prefix}2), x^2 = "
            f"Delta^2 ({prefix}1) and x a x^-1 = a^-1 ({prefix}3), which move every x to the "
            f"right, so each element of the subgroup they generate is a^i x^e with 0 <= i < "
            f"{2 * m} and e in {{0, 1}}: at most {4 * m} elements; it holds the {2 * m} "
            f"elements of <a> ({prefix}2) and x outside <a> ({prefix}4), so at least "
            f"{4 * m}; the dicyclic presentation maps onto it, so the subgroup is the whole "
            f"dicyclic group of order {4 * m}",
            method="arithmetic",
            ok=order.verdict is Verdict.VERIFIED,
            depends_on=(f"{prefix}1", order.steps[-1].id, f"{prefix}3", f"{prefix}4"),
            data={"n": n, "presentation": {"name": "dicyclic", "n": m}, "order": 4 * m},
        )
    )
    return steps


def verify_q8(
    n: int,
    max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS,
) -> VerificationCertificate:
    """Realization of the quaternion group of order 8 inside B_n(S^2).

    Even n: the bipolar twist a and the half twist x generate a copy, which
    `_dicyclic_steps` certifies as Dic_8; for n divisible by 4 it lies in
    the commutator subgroup.  Odd n:
    the steps are those of `verify_odd_obstruction`, and the verdict is
    REFUTED-realization (certified non-existence) when that argument
    holds, REFUTED otherwise.
    """

    def body() -> tuple:
        if n % 2 == 1:
            steps = _odd_obstruction_steps(n)
            verdict = _verdict(steps)
            if verdict is Verdict.VERIFIED:
                verdict = Verdict.REFUTED_REALIZATION
            return verdict, steps, {"in_commutator": False}
        a, x = named_element("bipolar_twist", n), named_element("half_twist", n)
        steps = _dicyclic_steps("s", a, x, 2, max_image_letters)
        in_commutator = n % 4 == 0
        xi_a = xi(a)
        xi_x = xi(x)
        if in_commutator:
            s7 = ProofStep(
                id="s7",
                statement=f"the abelianization values of a and x are both zero modulo "
                f"{xi_x.modulus}, so the subgroup lies in the commutator subgroup of "
                f"B_{n}(S^2)",
                method="invariant",
                ok=xi_a.is_zero() and xi_x.is_zero(),
                depends_on=("s6",),
                data={
                    "n": n,
                    "xi_a": [xi_a.value, xi_a.modulus],
                    "xi_x": [xi_x.value, xi_x.modulus],
                },
            )
        else:
            s7 = ProofStep(
                id="s8",
                statement=f"the abelianization value of x is {xi_x.value} modulo "
                f"{xi_x.modulus}, nonzero, so this copy does not lie in the commutator "
                f"subgroup",
                method="invariant",
                ok=not xi_x.is_zero(),
                depends_on=("s6",),
                data={"n": n, "xi_x": [xi_x.value, xi_x.modulus]},
            )
        steps.append(s7)
        return _verdict(steps), steps, {"in_commutator": in_commutator}

    return _run_plan("q8", n, body)


def verify_odd_obstruction(n: int) -> VerificationCertificate:
    """The non-existence of a quaternion subgroup for odd n, as a VERIFIED claim."""

    def body() -> tuple:
        steps = _odd_obstruction_steps(n)
        return _verdict(steps), steps, None

    return _run_plan("odd-obstruction", n, body)


def _odd_obstruction_steps(n: int) -> list[ProofStep]:
    a1 = named_element("alpha1", n)
    half = (n - 1) // 2
    modulus = 2 * (n - 1)
    o1 = ProofStep(
        id="o1",
        statement=f"every element of order 4 in B_{n}(S^2) is a conjugate of a power of one "
        f"of the three canonical torsion roots; their orders are 2n = {2 * n}, 2(n-1) = "
        f"{modulus} and 2(n-2) = {2 * (n - 2)}, and for odd n only the middle one is "
        f"divisible by 4, so order-4 elements are conjugates of the +-{half} powers of the "
        f"order-{modulus} root.  If a quaternion subgroup existed, replacing it by a "
        f"conjugate lets one generator be such a power on the nose, and inverting it makes "
        f"the two generators carry opposite signs",
        method="axiom",
        axioms=("A5",),
        data={"n": n, "half_power": half},
    )
    word = a1**half
    r_plus = xi(word)
    r_minus = xi(word.inverse())
    o2 = ProofStep(
        id="o2",
        statement=f"the abelianization values of the two candidate order-4 powers are "
        f"{r_plus.value} and {r_minus.value} modulo {modulus}, both nonzero",
        method="arithmetic",
        ok=r_plus.value != 0 and r_minus.value != 0,
        depends_on=("o1",),
        data={
            "n": n,
            "residues": sorted([r_plus.value, r_minus.value]),
            "modulus": modulus,
            "word": word.to_text(),
        },
    )
    o3 = ProofStep(
        id="o3",
        statement="with opposite signs the product of the two generators is a commutator, "
        "and the exponent sum of any commutator is zero, so the product has abelianization "
        "value zero",
        method="arithmetic",
        depends_on=("o1",),
        data={"n": n},
    )
    o4 = ProofStep(
        id="o4",
        statement="the product of the generators has order 4 inside the quaternion group, "
        "hence is itself conjugate to one of the candidate powers and must have nonzero "
        "abelianization value; this contradicts the zero value of the commutator, so no "
        f"subgroup of B_{n}(S^2) is isomorphic to the quaternion group of order 8",
        method="arithmetic",
        depends_on=("o1", "o2", "o3"),
        data={"n": n},
    )
    return [o1, o2, o3, o4]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def verify_dicyclic(
    n: int,
    max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS,
) -> VerificationCertificate:
    """The cycle word and the half twist generate a dicyclic group of order 4n."""

    def body() -> tuple:
        a, x = named_element("alpha0", n), named_element("half_twist", n)
        steps = _dicyclic_steps("d", a, x, n, max_image_letters)
        gen_quat = _is_power_of_two(n)
        if gen_quat:
            steps.append(
                ProofStep(
                    id="d7",
                    statement=f"n = {n} is a power of two, so this subgroup is the "
                    f"generalised quaternion group of order {4 * n}",
                    method="arithmetic",
                    depends_on=("d6",),
                    data={"n": n},
                )
            )
        return _verdict(steps), steps, {"generalized_quaternion": gen_quat, "order": 4 * n}

    return _run_plan("dicyclic", n, body)


def verify_torsion_table(
    n: int, max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS
) -> VerificationCertificate:
    """Orders of the three canonical torsion elements: 2n, 2(n-1), 2(n-2)."""

    def body() -> tuple:
        steps: list[ProofStep] = []
        a5_backed: list[str] = []
        orders: dict[str, int] = {}
        all_ok = True
        for i, name in enumerate(("alpha0", "alpha1", "alpha2")):
            w = named_element(name, n)
            claimed = 2 * (n - i)
            sub = torsion_order(w, claimed, max_image_letters, step_prefix=f"{name}.")
            orders[name] = claimed
            if sub.verdict is not Verdict.VERIFIED:
                all_ok = False
            if sub.flags.get("a5_backed"):
                a5_backed.append(name)
            steps.extend(sub.steps)
        verdict = Verdict.VERIFIED if all_ok else Verdict.INCONCLUSIVE
        return verdict, steps, {"orders": orders, "a5_backed": a5_backed}

    return _run_plan("torsion", n, body)


def _relator_shape(rel: tuple[int, ...]) -> tuple[int, ...] | None:
    """The word a far commutator or a braid relator is on the strands it touches, else None.

    A far commutator (i, j, -i, -j), j >= i + 2, touches strands i, i + 1,
    j and j + 1, and numbering them 1..4 makes it (1, 3, -1, -3); a braid
    relator (i, i+1, i, -(i+1), -i, -(i+1)) touches i..i + 2 and becomes
    (1, 2, 1, -2, -1, -2).  A letter sigma_k touches k and k + 1, which
    stay neighbours, so the disk images of the touched x_j are those of
    the shape renumbered, and every other x_j stays fixed.  The engine
    takes words this short letter by letter at any n, so the relator's
    images meet the budget checks the shape's meet, in the same order,
    and are all x_j iff the shape's are: then the relator is 1 in B_n and
    acts trivially on the punctured sphere.  A trivial outer action on
    fewer punctures would not carry over to n; the disk identity does.
    """
    i = rel[0]
    if len(rel) == 4 and rel == (i, rel[1], -i, -rel[1]) and 1 <= i <= rel[1] - 2:
        return (1, 3, -1, -3)
    if rel == (i, i + 1, i, -i - 1, -i, -i - 1) and i >= 1:
        return (1, 2, 1, -2, -1, -2)
    return None


def verify_background(
    n: int,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS,
) -> VerificationCertificate:
    """The finite sphere braid groups and the half-twist conjugation identities.

    b1 (n = 2) and b2 (n = 3) enumerate cosets; b3 checks that every
    defining relator acts trivially on the punctured sphere; b4 compares
    x sigma_i with sigma_(n-i) x on both exact engines, for x the half
    twist, which is the conjugation identity x sigma_i x^-1 = sigma_(n-i)
    with no word that acts with x^-1.
    """

    def body() -> tuple:
        steps: list[ProofStep] = []
        if n == 2:
            tc = todd_coxeter(presentation_library("sphere_braid", 2), max_cosets)
            steps.append(
                ProofStep(
                    id="b1",
                    statement=f"coset enumeration of the 2-strand sphere braid presentation "
                    f"closes with {tc.order} elements: the group is cyclic of order 2",
                    method="coset-enumeration",
                    ok=tc.order == 2,
                    data={
                        "n": 2,
                        "presentation": {"name": "sphere_braid", "n": 2},
                        "max_cosets": max_cosets,
                        "order": tc.order,
                    },
                )
            )
            return _verdict(steps), steps, None

        if n == 3:
            tc = todd_coxeter(presentation_library("sphere_braid", 3), max_cosets)
            der = presentations.derived_subgroup(tc)
            cyclic = presentations.is_cyclic_subgroup(tc, der)
            ab_order = tc.order // len(der)
            involutions = tc.involution_count()
            steps.append(
                ProofStep(
                    id="b2",
                    statement=f"the 3-strand sphere braid group has order {tc.order} with "
                    f"exactly {involutions} involution; its derived subgroup has order "
                    f"{len(der)} and is cyclic, and its abelianization has order {ab_order} "
                    f"= 2(n-1)",
                    method="coset-enumeration",
                    ok=tc.order == 12
                    and involutions == 1
                    and len(der) == 3
                    and cyclic
                    and ab_order == 4,
                    data={
                        "n": 3,
                        "presentation": {"name": "sphere_braid", "n": 3},
                        "max_cosets": max_cosets,
                        "order": tc.order,
                        "involutions": involutions,
                        "derived_order": len(der),
                        "derived_cyclic": cyclic,
                        "abelianization_order": ab_order,
                    },
                )
            )

        pres = presentation_library("sphere_braid", n)
        decided: dict[tuple[int, ...], bool] = {}

        def trivial(rel: tuple[int, ...]) -> bool:
            shape = _relator_shape(rel)
            if shape is None:
                # the presentation has checked every letter against its n - 1 generators
                return acts_trivially(BraidWord._of_checked(n, rel), max_image_letters)
            if shape not in decided:
                word = BraidWord(max(shape) + 1, shape)
                one = BraidWord(word.strand_count)
                decided[shape] = sphere._both_engines_equal(word, one, max_image_letters)
            return decided[shape]

        relations_ok = all(map(trivial, pres.relators))
        steps.append(
            ProofStep(
                id="b3",
                statement=f"all defining relations of the {n}-strand sphere braid "
                f"presentation act trivially on the punctured sphere, so the computed "
                f"action factors through B_{n}(S^2)",
                method="invariant",
                ok=relations_ok,
                data={"n": n, "relator_count": len(pres.relators)},
            )
        )
        x = named_element("half_twist", n)
        pairs = [
            (BraidWord.product(x, BraidWord(n, (i,))), BraidWord.product(BraidWord(n, (n - i,)), x))
            for i in range(1, n)
        ]
        steps.append(
            _exact_step(
                "b4",
                f"x sigma_i = sigma_(n-i) x in B_{n} for every i (normal forms and "
                f"free-group actions both agree), so conjugation by the half twist "
                f"sends sigma_i to sigma_(n-i)",
                pairs,
                max_image_letters,
            )
        )
        return _verdict(steps), steps, None

    return _run_plan("background", n, body)


class Plan(NamedTuple):
    """A verification plan: the claim its certificates carry, how to run it, and its n."""

    claim: str
    # (n, max_cosets, max_image_letters); only background reads max_cosets
    run: Callable[[int, int, int | None], VerificationCertificate]
    minimum: int = 3
    odd: bool = False  # n must be odd

    def check_n(self, n: int) -> None:
        """Raise ValueError unless the plan runs at n."""
        if n < self.minimum or (self.odd and n % 2 == 0):
            parity = "odd " if self.odd else ""
            raise ValueError(f"{self.claim} needs {parity}n >= {self.minimum}, got n = {n}")


# Keyed by the CLI claim name.  Entries look their plan up when called, so a
# wrapper put in place of the module attribute (a tracer) sees every call.
PLANS = {
    "q8": Plan("q8-subgroup", lambda n, c, m: verify_q8(n, m)),
    "dicyclic": Plan("dicyclic-subgroup", lambda n, c, m: verify_dicyclic(n, m)),
    "odd-obstruction": Plan(
        "odd-obstruction", lambda n, c, m: verify_odd_obstruction(n), odd=True
    ),
    "torsion": Plan("torsion-orders", lambda n, c, m: verify_torsion_table(n, m)),
    "background": Plan("background", lambda n, c, m: verify_background(n, c, m), minimum=2),
}


def replay_certificate(
    cert: VerificationCertificate,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_image_letters: int | None = DEFAULT_MAX_IMAGE_LETTERS,
) -> bool:
    """Check a certificate by running the plan that made it again.

    The plan for `cert.claim` is re-run at `cert.n`, and the result must
    equal `cert` in every field: step ids, DAG, methods, ok flags,
    statements, data, verdict, flags and axiom ledger.  Pass the budgets
    the certificate was made with, which a machine document's `config`
    records: background's coset steps (n = 2 and 3) record their cap, and
    a run out of budget is INCONCLUSIVE.  Raises ValueError if no plan
    makes `cert.claim`, such as a standalone `sphere.torsion_order`
    certificate, and if `cert.n` lies outside the plan's domain
    (`Plan.check_n`), such as an odd-obstruction certificate at even n or
    a q8 certificate at n = 2.
    """
    for plan in PLANS.values():
        if plan.claim == cert.claim:
            return plan.run(cert.n, max_cosets, max_image_letters).as_dict() == cert.as_dict()
    raise ValueError(f"no verification plan makes certificates for the claim {cert.claim!r}")
