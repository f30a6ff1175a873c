"""Known answers for `verify --format machine`, taken from the paper, not from the program.

Gonçalves–Guaschi (math/0603377) and the classical facts it cites fix
what every certificate of the `certify` and `background` grids must
say.  `expectation` writes those facts down as formulas in n, and
`misses` compares one `verify` call (its exit code and its JSON
document) against them.  Each miss is one line of text; an empty list
means the call gave the known answer.
"""

from __future__ import annotations

import json

CLAIM_NAMES = {
    "q8": "q8-subgroup",
    "dicyclic": "dicyclic-subgroup",
    "torsion": "torsion-orders",
    "background": "background",
}

POWERS_OF_TWO = frozenset(2**k for k in range(1, 16))


def expectation(claim: str, n: int) -> dict:
    """Field path -> known value for `verify --claim claim --n n`.

    Paths: "exit_code"; "claim", "n", "verdict" of the certificate;
    "flags.<key>"; "step.<id>.<key>" for a key of that step's data.
    """
    expect = {"exit_code": 0, "claim": CLAIM_NAMES[claim], "n": n}
    if claim == "q8":
        if n % 2 == 0:
            # the quaternion group embeds for even n, inside the
            # commutator subgroup exactly when 4 | n
            expect.update(
                {"verdict": "VERIFIED", "flags.in_commutator": n % 4 == 0, "step.s6.order": 8}
            )
        else:
            # odd n: the counting obstruction rules every copy out
            expect.update({"verdict": "REFUTED-realization", "flags.in_commutator": False})
    elif claim == "dicyclic":
        expect.update(
            {
                "verdict": "VERIFIED",
                "flags.order": 4 * n,
                "flags.generalized_quaternion": n in POWERS_OF_TWO,
                "step.d6.order": 4 * n,
            }
        )
    elif claim == "torsion":
        expect.update(
            {
                "verdict": "VERIFIED",
                "flags.orders": {"alpha0": 2 * n, "alpha1": 2 * (n - 1), "alpha2": 2 * (n - 2)},
            }
        )
    elif claim == "background":
        expect["verdict"] = "VERIFIED"
        if n == 3:
            # B_3(S^2): order 12, one involution, derived subgroup Z_3,
            # abelianization Z_4 = Z_{2(n-1)}
            expect.update(
                {
                    "step.b2.order": 12,
                    "step.b2.involutions": 1,
                    "step.b2.derived_order": 3,
                    "step.b2.abelianization_order": 4,
                }
            )
    else:
        raise ValueError(f"no known answer for claim {claim!r}")
    return expect


_MISSING = object()


def _field(cert: dict, path: str):
    head, _, rest = path.partition(".")
    if not rest:
        return cert.get(head, _MISSING)
    if head == "flags":
        return cert.get("flags", {}).get(rest, _MISSING)
    step_id, _, key = rest.partition(".")
    for step in cert.get("steps", ()):
        if step.get("id") == step_id:
            return step.get("data", {}).get(key, _MISSING)
    return _MISSING


def misses(claim: str, n: int, exit_code: int, text: str, expect: dict | None = None) -> list[str]:
    """Every way one `verify` call departs from the known answer."""
    expect = expectation(claim, n) if expect is None else expect
    found = []
    if exit_code != expect["exit_code"]:
        found.append(f"exit code {exit_code}, expected {expect['exit_code']}")
    try:
        certs = json.loads(text)["certificates"]
    except (ValueError, KeyError, TypeError) as exc:
        return found + [f"no machine document: {exc!r}"]
    if len(certs) != 1:
        return found + [f"{len(certs)} certificates, expected 1"]
    for path, want in expect.items():
        if path == "exit_code":
            continue
        got = _field(certs[0], path)
        if got is _MISSING:
            found.append(f"{path} missing, expected {want!r}")
        elif got != want or type(got) is not type(want):
            found.append(f"{path} = {got!r}, expected {want!r}")
    return found
