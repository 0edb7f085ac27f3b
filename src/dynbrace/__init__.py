"""dynbrace: enumeration and verification of braided structures on quivers
built from regular subsets of the automorphism-extended group of a finite
group, with the transport machinery that turns connected braided quivers back
into dynamical data."""

from .errors import InputError, ResourceCapError
from .groups import (
    FiniteGroup,
    automorphism_group,
    build_group,
    is_abelian,
)
from .holomorph import DEFAULT_CAP
from .quivers import (
    ComponentReport,
    LabelledQuiver,
    connected_components,
    export_dot,
    homogeneous_weight,
    quiver_of_dynamical_set,
)
from .structures import (
    Check,
    DynamicalSkewBrace,
    QuiverBraiding,
    Report,
    SkewBracoid,
    braiding_of_qtsb,
    semiloopoid_of_dsb,
    verify_bracoid,
    verify_braiding,
    verify_dsb,
)
from .enumeration import (
    EnumerationResult,
    InvariantTable,
    enumerate_full,
    enumerate_unital,
    initial_counts,
    invariants,
)
from .parallelise import (
    TernaryHeap,
    braiding_from_heap,
    group_from_pointed_heap,
    parallelise,
    schurian_transversal,
    ternary_of_braiding,
    verify_heap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
