"""frameforge: numerical toolkit for windowed-exponential frame systems."""

from .geometry import (
    Box,
    BoxUnionSet,
    CantorTower,
    Lattice,
    ResidueVerdict,
    ResidueWitness,
    canonicalize,
    cantor_tower,
    lattice_residue_check,
    overlap_profile,
    overlap_zero_set,
    translate_overlap,
)
from .pointsets import (
    DensityReport,
    EventuallyPeriodic1D,
    FinitePerturbation,
    FiniteSet,
    LatticeCosets,
    StructuredPointSet,
    WeightedComb,
    density_closed_form,
    density_windowed,
    integers,
)
from .gridfn import GridFunction
from .convolution import (
    ConvolutionBracketReport,
    check_density_convolution_bracket,
    comb_convolve,
    translation_bounded_probe,
)
from .windows import Window, parse_expr
from .framebounds import (
    BracketCheckReport,
    ContinuousFreqMeasure,
    EssBoundsReport,
    FrameBoundsReport,
    WindowedSystem,
    ess_bounds,
    estimate_frame_bounds,
    lower_bound_decay_probe,
    nyquist_box,
    window_density_bracket_check,
)
from .construction import (
    CertificateRefusal,
    ConstructionRefusal,
    ConstructionResult,
    ObstructionVerdict,
    TightCertificate,
    TightFrameRefusal,
    analysis_coefficients,
    build_bounded_window_frame,
    build_lattice_tight_frame,
    cosine_measure_certificate,
    tight_frame_obstruction_scan,
)
from .zak import (
    GaborVerdict,
    ZakGrid,
    certify_gabor,
    certify_gabor_separable,
    gabor_windows,
    quasiperiodicity_residuals,
    zak_transform,
)
from .errors import InputError

__version__ = "0.1.0"
