"""Exact engine for finite simplicial complexes.

Facet-based complexes with Alexander duality, elementary-collapse search,
integral homology via Smith normal form, recognition of recursive grape
decompositions with replayable certificates, and the graph-derived
complexes (independence, dominance, edge cover, edge dominance, path-free,
path-missing) together with theorem-verification harnesses.
"""

from .collapse import (
    ReplayError,
    ShvResult,
    collapse_search,
    lifted_collapse,
    replay,
)
from .complexes import (
    Complex,
    InputError,
    alexander_dual,
    complex_from_json,
    complex_to_json,
    deletion,
    enumerate_complexes,
    irrelevant_complex,
    link,
    minimal_nonfaces,
    new_complex,
    restrict_ground,
    void_complex,
)
from .grape import (
    GrapeVariant,
    GrapeVerdict,
    certificate_from_json,
    certificate_to_json,
    check_grape,
    classify_strong,
    predicted_wedge,
    verify_certificate,
)
from .graphs import (
    Digraph,
    Graph,
    contract_arc,
    delete_arc,
    digraph,
    dominance_complex,
    edge_cover_complex,
    edge_dominance_complex,
    graph,
    has_cycle,
    independence_complex,
    invariants,
    nonsinks,
    pf_complex,
    pm_complex,
    useless_arcs,
)
from .homology import (
    HomologyProfile,
    reduced_cohomology,
    reduced_homology,
    smith_normal_form,
)

__version__ = "0.1.0"
