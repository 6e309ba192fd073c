"""Exact deformation invariants of toric varieties from fan data.

The package computes, over exact rationals, fine-graded local cohomology of
total coordinate rings at squarefree monomial ideals, first-order deformation
spaces of affine toric varieties and of anticanonical hypersurfaces, and
machine-checkable rigidity certificates.  Everything is driven by lattice
combinatorics; there is no floating point anywhere.
"""

from .ideals import SquarefreeMonomialIdeal
from .lattice import (
    AffineSystem,
    BoundExceeded,
    Infeasible,
    SmithDecomposition,
    Witness,
    hilbert_basis,
    integer_feasible,
    integer_kernel,
    lattice_points,
    smith_normal_form,
)
from .localcoh import (
    GradedPiece,
    SimplicialComplex,
    cech_piece,
    h2_via_graph,
    local_coh_piece,
    mult_map,
)
from .rigidity import (
    RigidityCertificate,
    Verdict,
    der_vanishing_gamma,
    fano_rigidity,
    qgorenstein_rigidity,
    quotient_rigidity,
    wps_rigidity,
)
from .t1 import (
    CoxPolynomial,
    T1Report,
    cox_polynomial,
    cy_t1,
    hom_q_h3,
    t1_affine,
    t1_polygon,
)
from .toric import (
    Cone,
    CoxData,
    Fan,
    WeightSystem,
    affine_cone,
    class_group,
    faces,
    gorenstein,
    graph_gamma,
    graph_gamma_f,
    irrelevant_ideal,
    is_complete,
    is_fano,
    is_simplicial,
    is_smooth,
    q_gorenstein,
    simplicial_codim,
    singular_codim,
    validate_fan,
    wps_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSystem",
    "BoundExceeded",
    "Cone",
    "CoxData",
    "CoxPolynomial",
    "Fan",
    "GradedPiece",
    "Infeasible",
    "RigidityCertificate",
    "SimplicialComplex",
    "SmithDecomposition",
    "SquarefreeMonomialIdeal",
    "T1Report",
    "Verdict",
    "WeightSystem",
    "Witness",
    "affine_cone",
    "cech_piece",
    "class_group",
    "cox_polynomial",
    "cy_t1",
    "der_vanishing_gamma",
    "faces",
    "fano_rigidity",
    "gorenstein",
    "graph_gamma",
    "graph_gamma_f",
    "h2_via_graph",
    "hilbert_basis",
    "hom_q_h3",
    "integer_feasible",
    "integer_kernel",
    "irrelevant_ideal",
    "is_complete",
    "is_fano",
    "is_simplicial",
    "is_smooth",
    "lattice_points",
    "local_coh_piece",
    "mult_map",
    "q_gorenstein",
    "qgorenstein_rigidity",
    "quotient_rigidity",
    "simplicial_codim",
    "singular_codim",
    "smith_normal_form",
    "t1_affine",
    "t1_polygon",
    "validate_fan",
    "wps_normalize",
    "wps_rigidity",
]
