"""Exact arithmetic for the algebra of surgery theory.

Quadratic and split forms over rings with involution, lagrangian
algorithms, Witt invariants over the integers, plumbing forms,
two-term quadratic chain complexes with their cobordisms, and
formations.  Everything is computed exactly; every structural claim
an operation makes is returned as a checkable witness.
"""

from . import (
    complexes,
    errors,
    formations,
    forms,
    lagrangians,
    matrices,
    plumbing,
    rings,
    serialize,
    unitary,
    witt,
)
from .complexes import (
    Cobordism,
    OddComplex,
    SurgeryData,
    cobordism_from_automorphism,
    complex_homology,
    is_contractible,
    odd_complex,
    reflexive_cobordism,
    reverse_cobordism,
    surgery_effect,
    surgery_on_complex,
    union_cobordisms,
    validate_cobordism,
    validate_complex,
    zero_complex,
)
from .errors import (
    DomainError,
    PreconditionError,
    SchemaError,
    SingularMatrixError,
    SurgeryAlgebraError,
    WrongRingError,
)
from .formations import (
    Formation,
    boundary_formation,
    boundary_witness,
    complex_to_formation,
    direct_sum_formation,
    formation,
    formation_from_automorphism,
    formation_homology,
    formation_to_complex,
    is_trivial_formation,
    normalize_formation,
    null_cobordism_of_boundary,
    trivial_formation,
    validate_formation,
    verify_formation_isomorphism,
    verify_stable_isomorphism,
)
from .forms import (
    FormIsometry,
    QuadraticForm,
    SplitForm,
    SymmetricForm,
    hyperbolic_quadratic,
    hyperbolic_split,
    is_isometry,
    is_nonsingular,
    quadratic_form,
    quadratic_to_split,
    split_form,
    split_to_quadratic,
    symmetric_form,
)
from .lagrangians import (
    LagrangianInclusion,
    diagonal_splitting,
    extend_lagrangian,
    is_lagrangian,
    sublagrangian_reduction,
    surgery_on_form,
)
from .matrices import FormMatrix, identity_matrix, int_matrix, matrix, zero_matrix
from .plumbing import (
    PlumbingGraph,
    boundary_homology,
    e8_graph,
    exotic7_class,
    graph_to_form,
    is_homotopy_sphere_boundary,
    milnor_sphere,
    plumbing_graph,
)
from .rings import RingSpec, cyclic, integers, laurent, q_eps_group, q_eps_reduce, symmetrize
from .unitary import (
    UnitaryAutomorphism,
    elementary_diag,
    elementary_lower,
    elementary_upper,
    identity_unitary,
    sigma_eps,
    unitary_from_matrix,
    unitary_membership,
)
from .witt import arf, signature, witt_class

__version__ = "0.1.0"
