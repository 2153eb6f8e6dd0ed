"""Finite-window workbench for piecewise-syndetic structure, polynomial
return-time sets, and the sequence systems they induce."""

from .check import (
    PwsCert,
    PwsCert2D,
    Syndetic2DCert,
    Syndetic2DRefutation,
    SyndeticCert,
    SyndeticRefutation,
    ThickCert,
    verify_pws,
    verify_pws_2d,
    verify_syndetic,
    verify_syndetic_2d,
    verify_thick,
)
from .constants import RealSpec, parse_real
from .errors import (
    BadBoundError,
    BadEpsilonError,
    ConfigError,
    DegreeTooLowError,
    EmptySetError,
    NoRowError,
    NotIntegralError,
    NotNormalFormError,
    NotVanishingError,
    PsyndError,
    RadiusExhaustedError,
    WindowExhaustedError,
)
from .induced import (
    Block,
    PeriodicBlock,
    shift_block,
    apply_map,
    block_distance,
    orbit_block,
    recurrence_times,
    split_block,
)
from .polynomials import (
    IntegralPolynomial,
    PolyFamily,
    essentially_distinct,
    parse_polynomial,
    reduce_to_normal_form,
    separation_constant,
    separation_holds,
    shift_coincidence,
)
from .returnsets import (
    ReturnQuery,
    combinatorial_set_2d,
    masked_dilation_2d,
    pws_area_witness_2d,
    return_set_1d,
    return_set_2d,
    shift_cover_search,
)
from .systems import (
    HeisenbergNil,
    IndicatorSubshift,
    SkewProduct,
    SystemSpec,
    TorusRotation,
    system_from_json_obj,
)
from .windows import (
    GapSummary,
    GridSet,
    WindowSet,
    best_slice,
    dilate,
    find_ap,
    gap_summary,
    grid_slice,
    longest_run,
    max_gap,
    max_rectangle,
    pws_witness,
    pws_witness_2d,
    syndetic_2d_certificate,
    syndetic_certificate,
)

__version__ = "0.1.0"
