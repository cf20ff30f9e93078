"""Exact polyhedral geometry of metrics embeddable in the real line with
unit minimum separation: decomposition into simplicial cones, combinatorial
classification of the unbounded edges of the closed convex hull, and
machine-checked certificates for every verdict."""

__version__ = "0.1.0"

from .core import (
    Perm,
    SymZMat,
    Word,
    conjugate,
    exhaustion_bound,
    inner_product,
    pair_indices,
    parse_rat,
    perm_classes,
    word_classes,
)
from .permutahedron import (
    facet_rhs,
    in_normal_cone,
    incident,
    incident_sets,
    over_ridge_sets,
    over_the_ridge,
    perm_vertex,
    polar_vertex,
)
from .line_metrics import (
    LineMetric,
    SpreadingReport,
    SpreadingViolation,
    analyze_metric,
    cut_metric,
    decomposition_cone_check,
    embed,
    perm_metric,
    qn_facet_value,
    recover_embedding,
    separated_membership,
    spreading_check,
)
from .edge_theory import (
    EdgeVerdict,
    HalfLinePair,
    NonEdgeWitness,
    VerifyReport,
    classify,
    enumerate_edges_at,
    non_edge_witness,
    symmetry_transport,
    verify_certificate,
)
from .certificates import (
    BASE_NAMES,
    BaseCertificate,
    EdgeCertificate,
    NonEdgeError,
    alternating_word,
    base_certificate,
    face_certificate,
    induct_alternating,
    lift,
    lifted_word,
    path_certificate,
    plain_alternating_base,
    synthesize,
)
from .oracle import OracleVerdict, oracle_bound, oracle_classify
