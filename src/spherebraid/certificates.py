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
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii


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


# json.dumps indents in C from Python 3.13 on; below 3.13 an indent sends it
# down its pure-Python encoder, which `_write_json` outruns more than twofold.
# Drop the branch and `_write_json` when requires-python reaches 3.13.
_DUMPS_INDENTS_IN_C = sys.version_info >= (3, 13)


def to_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.

    On every supported Python the text is json.dumps(obj, sort_keys=True,
    indent=2) plus a newline: made by that call from 3.13 on, where it is
    the faster, and by `_write_json` below 3.13.
    """
    if _DUMPS_INDENTS_IN_C:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return _write_json(obj)


def _write_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", written directly.

    Takes what a machine document holds: dicts with str keys, lists and
    tuples, str, int, bool and None; any other type, and a key that is not
    a str, raises TypeError.  Every token goes into one list, joined once.
    """
    parts: list[str] = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(o, newline: str, append) -> None:
    """Append the tokens of o; newline is a line break and the indent of the line o ends on.

    Strings and keys are escaped by json's own C function (which refuses a
    non-str key) and ints written by int.__repr__, as json.dumps writes
    them; a container's items go one to a line, two spaces deeper than the
    container, and an empty one is [] or {}.  A module function, not a
    closure over the token list: a closure that calls itself is a
    reference cycle, which would keep every token alive until the cyclic
    garbage collector next ran.
    """
    t = type(o)
    if t is str:
        append(encode_basestring_ascii(o))
    elif t is int:
        append(int.__repr__(o))
    elif t is dict:
        if not o:
            append("{}")
            return
        inner = newline + "  "
        head, sep = "{" + inner, "," + inner
        for key in sorted(o):
            append(head)
            append(encode_basestring_ascii(key))
            append(": ")
            _write(o[key], inner, append)
            head = sep
        append(newline)
        append("}")
    elif t is list or t is tuple:
        if not o:
            append("[]")
            return
        inner = newline + "  "
        head, sep = "[" + inner, "," + inner
        for item in o:
            append(head)
            _write(item, inner, append)
            head = sep
        append(newline)
        append("]")
    elif t is bool:
        append("true" if o else "false")
    elif o is None:
        append("null")
    else:
        raise TypeError(f"{t.__name__} is not written to a machine document")
