"""spherebraid: certified computations in sphere braid groups.

Braid words, two independent exact equality engines for B_n (Garside
normal form and the Artin free-group action), a decision layer for the
sphere quotient B_n(S^2), Todd-Coxeter coset enumeration for the small
groups involved, and scripted verification plans that certify the
realization of the quaternion and dicyclic groups inside B_n(S^2).
"""

__version__ = "0.1.0"

from .certificates import AXIOMS, AxiomId, ProofStep, Verdict, VerificationCertificate
from .freegroup import (
    BudgetExceededError,
    EndoOnBasis,
    FreeWord,
    artin_disk_endo,
    eq_Bn,
)
from .garside import (
    GarsideNormalForm,
    equal_Bn,
    normal_form,
)
from .presentations import (
    CayleyTable,
    FinitePresentation,
    presentation_library,
    todd_coxeter,
)
from .sphere import (
    acts_trivially,
    eq_mod_center,
    relator_trivializes,
    sphere_endo,
    square_rule,
    torsion_order,
)
from .theorems import (
    replay_certificate,
    verify_background,
    verify_dicyclic,
    verify_odd_obstruction,
    verify_q8,
    verify_torsion_table,
)
from .words import (
    BraidWord,
    Permutation,
    Residue,
    StrandCountMismatchError,
    WordSyntaxError,
    exponent_sum,
    mirror,
    named_element,
    permutation,
    xi,
)
