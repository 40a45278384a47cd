"""omlkit: finite ortholattices, their subalgebra posets, and what those determine.

The package builds Sub(L) and BSub(L) for finite (ortho)lattices, rebuilds
an orthomodular lattice from the bare order type of BSub(L), lifts
subalgebra-poset isomorphisms back to element isomorphisms, and carries the
preimage-functor analysis, all checked against brute-force oracles at desk
scale.
"""

from .errors import (
    BadOrthocomplement,
    BlockMismatch,
    ExplosionCap,
    FlavorError,
    FrameCap,
    GlueConflict,
    Inconsistent,
    MalformedInput,
    NoBoundedLattice,
    NoLeastElement,
    NotAMorphism,
    NotAnIso,
    NotAPartialOrder,
    NotBoolean,
    OmlkitError,
    RestrictionMismatch,
    SizeCap,
    UnknownName,
    Unsupported,
)
from .lattice_core import (
    FiniteOrtholattice,
    Morphism,
    ORTHOLATTICE,
    ORTHOMODULAR,
    SubalgebraSet,
    automorphisms,
    benzene,
    bits,
    boolean_algebra,
    catalog,
    compose,
    example22,
    find_isomorphism,
    horizontal_sum,
    identity_morphism,
    isomorphisms,
    mask_of,
    mo,
    morphism,
    product,
    relabel,
    sublattice,
)
from .subalgebra_posets import (
    AbstractPoset,
    SubalgebraPoset,
    bsub,
    enumerate_subalgebras,
    poset_automorphisms,
    poset_isomorphic,
    poset_isomorphisms,
    sub,
)
from .sachs_boolean import (
    DualDecomposition,
    Partition,
    dual_decomposition,
    dual_order_test,
    is_boolean_algebra,
    partition_lattice,
    partition_to_subalgebra,
    pd_mask,
    pd_order_test,
    principal_element,
    subalgebra_to_partition,
)
from .reconstruction import (
    OrthoFrame,
    build_frame,
    classify_atoms,
    orthoclosed_lattice,
    reconstruct,
)
from .iso_lifting import (
    DeterminationReport,
    boolean_nodes,
    induced_node_map,
    lift_boolean_iso,
    lift_bsub_iso,
    lift_sub_iso,
    recognize_boolean_node,
    verify_determination,
)
from .functorial import (
    MeetMapReport,
    PreimageMap,
    RecoveryKind,
    RecoveryReport,
    classify_recovery,
    enumerate_homs,
    image_subalgebra,
    preimage_functor,
    unrealized_meet_preserving_map,
)

__version__ = "0.1.0"
