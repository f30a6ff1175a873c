"""Proof steps, verdicts and verification certificates.

A certificate is a topologically ordered DAG of steps.  Each step is
either exact (decided by an equality engine or direct computation) or
axiom-backed, in which case it names the classical statements it rests
on, from the catalog AXIOMS.  The axiom ledger of a certificate is
exactly the union of the axioms cited by its steps, so a reader can see
at a glance what has to be trusted beyond the computations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum


class Verdict(str, Enum):
    VERIFIED = "VERIFIED"
    REFUTED = "REFUTED"
    # A verified *non-existence*: the claim asked for a realization and the
    # certificate proves there is none.  Distinct from REFUTED so that the
    # exit status of a run can treat it as the expected outcome.
    REFUTED_REALIZATION = "REFUTED-realization"
    INCONCLUSIVE = "INCONCLUSIVE"


METHODS = (
    "exact-Bn",
    "identical-words",
    "mod-center",
    "square-rule",
    "invariant",
    "axiom",
    "arithmetic",
    "coset-enumeration",
    "budget",
)


@dataclass(frozen=True)
class AxiomId:
    """A named trusted statement with its classical source."""

    id: str
    statement: str
    source: str


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


@dataclass(frozen=True)
class ProofStep:
    id: str
    statement: str
    method: str
    ok: bool = True
    depends_on: tuple[str, ...] = ()
    axioms: tuple[str, ...] = ()
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown step method {self.method!r}")
        if not set(self.axioms) <= AXIOMS.keys():
            raise ValueError(f"unknown axiom in {self.axioms!r}")

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "statement": self.statement,
            "method": self.method,
            "ok": self.ok,
            "depends_on": list(self.depends_on),
            "axioms": list(self.axioms),
            "data": self.data,
        }


@dataclass(frozen=True)
class VerificationCertificate:
    claim: str
    n: int
    verdict: Verdict
    steps: tuple[ProofStep, ...]
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))
        seen: set[str] = set()
        for step in self.steps:
            for dep in step.depends_on:
                if dep not in seen:
                    raise ValueError(
                        f"step {step.id} depends on {dep}, which does not precede it"
                    )
            seen.add(step.id)
        if self.verdict is Verdict.VERIFIED and not all(s.ok for s in self.steps):
            raise ValueError("a VERIFIED certificate cannot contain a failed step")

    def cited_axiom_ids(self) -> tuple[str, ...]:
        """The ids of the axioms cited by the steps, in id order: the axiom ledger."""
        return tuple(sorted({a for step in self.steps for a in step.axioms}))

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "n": self.n,
            "verdict": self.verdict.value,
            "flags": self.flags,
            "steps": [s.as_dict() for s in self.steps],
            "axioms": [asdict(AXIOMS[a]) for a in self.cited_axiom_ids()],
        }


def to_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
