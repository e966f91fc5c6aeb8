"""Rigidity diagnostics for constant-curvature cone-3-manifolds.

The package computes the linear-algebra layer of local rigidity theory:
twisted group cohomology of holonomy representations, meridian trace-rank
tests, closed-form cross-section spectra with cone-admissibility verdicts,
and numerical checks of the radial decay estimates.  All values are
immutable and every operation is a pure function.
"""

__version__ = "0.1.0"

from .errors import (
    CurvatureMismatch,
    DegenerateElement,
    DomainError,
    IllConditioned,
    InvalidRepresentation,
    ManifestError,
    NotSemisimple,
    UnknownGenerator,
)
from .liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    IsomAlgebraElement,
    ad_matrix,
    bracket,
    complex_length_sl2c,
    complex_length_su2pair,
    killing_form,
    sigma_fields,
    sn_cs_ct,
)
from .words import (
    Meridian,
    Presentation,
    Representation,
    evaluate,
    parse_word,
    relator_residual,
    split_representation,
)
from .cohomology import (
    BoundaryComponent,
    CohomologyReport,
    DimensionAudit,
    RigidityReport,
    cocycle_space,
    coboundary_space,
    dimension_audit,
    h1_basis,
    rigidity_test,
    standard_torus_cocycles,
    trace_differential,
    z0_space,
)
from .spectral import (
    AdmissibilityVerdict,
    ConePoint,
    SingularEdge,
    SingularVertex,
    SpectrumReport,
    circle_B_spectrum,
    circle_dirac_spectrum,
    cone_admissibility_verdict,
    link_B_spectrum,
)
from .radial import (
    FormProfile,
    RadialGrid,
    TubeVerdict,
    l2_tube_verdict,
    norm_profile,
    pb_min_singular,
    t_b0,
    t_b0_bound,
    t_b1,
    t_b1_bound,
)
from .manifest import (
    Manifest,
    fixture_path,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    report_text,
    write_report,
)
