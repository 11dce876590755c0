"""Desk-scale verification toolkit for b-coloring bounds on powers of
hypercubes and Hamming graphs."""

from .bcoloring import (
    BChromaticResult,
    BColorCertificate,
    Coloring,
    HammingVertex,
    PowerGraph,
    SolveBudget,
    adjacent,
    coset_coloring,
    exact_b_chromatic,
    greedy_b_coloring,
    hamming_power,
    hypercube_power,
    singleton_certificate,
    validate_coloring,
    verify_coset_bcoloring,
)
from .bounds import (
    BoundReport,
    bound_report,
    bound_table,
    clique_number,
    hamming_lower,
    upper_new,
    upper_old,
    upper_rough,
    verify_r_ge_3s,
)
from .compression import (
    FixpointClass,
    SectionPair,
    classify_fixpoint,
    compress,
    compress_fully,
    is_compressed,
    sections,
    verify_compression_inequality,
    verify_fixpoint_classification,
)
from .errors import HyperbError, InfeasibleError, IntegrityError
from .neighborhoods import (
    ClosedFormParams,
    CommonNeighborhood,
    VerifyReport,
    closed_form_open_count,
    common_closed,
    common_neighborhood,
    common_open,
    find_open_counterexample,
    is_initial_segment,
    verify_close_inequality,
    verify_closed_form,
    verify_initial_segment_closure,
    verify_open_inequality,
    verify_section_identity,
)
from .subsets import (
    Family,
    GroundSet,
    SimplicialRank,
    SubsetMask,
    family_cmp,
    format_subset,
    initial_segment,
    level_set,
    parse_subset,
    rank,
    simplicial_cmp,
    unrank,
)

__version__ = "0.1.0"
