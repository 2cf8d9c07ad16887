"""Fredholm conditions for compatible operators on collars with
cylindrical (b), hyperbolic (zero), and Euclidean/conical (sc) ends:
ellipticity plus invertibility of every limit operator, with an
independent numerical oracle for each verdict."""

from .liestruct import (
    RADIAL,
    FrameField,
    FredholmKitError,
    GroupKind,
    IsotropyDescriptor,
    LieStructure,
    NotRepresentableError,
    StructureKind,
    VectorField,
    bracket,
    compatible_metric,
    isotropy,
    structure_constants,
)
from .crosssec import (
    ChannelTable,
    CrossKind,
    CrossSection,
    ModeTable,
    channels,
    spectrum,
    sphere_multiplicity,
)
from .opalg import (
    BoundaryOperator,
    CoeffTerm,
    Coefficient,
    EllipticityResult,
    MultiIndex,
    RadialGrid,
    builtin_suite,
    cgamma_rewrite,
    compose,
    conjugate,
    default_mode_cutoff,
    identity_operator,
    is_elliptic,
    kondratiev_transform,
    make_model,
    make_operator,
    principal_symbol,
)
from .limitops import (
    IndicialFamily,
    freeze_coefficients,
    indicial_family,
    normal_operator,
)
from .fredholm import (
    FredholmOptions,
    FredholmReport,
    HalfSpaceSample,
    IndicialRoot,
    LineVerdict,
    RootTable,
    ScVerdict,
    TailBound,
    VERDICT_FREDHOLM,
    VERDICT_NOT,
    VERDICT_UNDECIDED,
    fredholm_check,
    half_space_sample,
    indicial_roots,
    normal_invertible,
    safe_weight_intervals,
    sc_invertible,
    tail_bound,
)
from .numoracle import (
    CheckLedger,
    ScanResult,
    brute_roots,
    cross_check,
    scan_line,
)

__version__ = "0.1.0"
