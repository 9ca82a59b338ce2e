"""Graded barcodes on the real line.

A barcode here is a finite multiset of intervals, each carrying explicit
boundary flags and a cohomological degree.  The library computes the
convolution (smoothing) action on barcodes, morphism-space dimensions
between single bars, the exact bottleneck distance between barcodes as a
matching problem (allowing matches across a degree step), geodesic
interpolation between barcodes at finite distance, and a lossless bridge
to one-parameter persistence diagrams for the half-open parts.
"""

from .intervals import (
    DEFAULT_TOL,
    INF,
    GradedInterval,
    Interval,
    Kind,
    ParseError,
    classify,
    close,
    parse_graded_interval,
    parse_interval,
)
from .barcode import (
    Barcode,
    CLRSplit,
    format_barcode,
    global_sections,
    parse_barcode,
    split_clr,
)
from .homs import (
    DEGREE1_RULE_DEVIATIONS,
    RuleDeviation,
    ext_oracle,
    generator_composite_nonzero,
    hom_dim,
)
from .convolve import convolve_barcode, convolve_interval, stalk_type
from .costs import deletion_cost, pair_cost
from .matching import (
    Matching,
    bruteforce_distance,
    distance_with_matching,
    part_bottleneck,
)
from .interpolate import interpolate, pair_path, same_component
from .persistence import (
    PersistenceDiagram,
    format_diagrams,
    from_persistence,
    parse_diagrams,
    to_persistence,
)

__version__ = "0.1.0"

__all__ = [
    "Barcode",
    "CLRSplit",
    "DEFAULT_TOL",
    "DEGREE1_RULE_DEVIATIONS",
    "GradedInterval",
    "INF",
    "Interval",
    "Kind",
    "Matching",
    "ParseError",
    "PersistenceDiagram",
    "RuleDeviation",
    "bruteforce_distance",
    "classify",
    "close",
    "convolve_barcode",
    "convolve_interval",
    "deletion_cost",
    "distance_with_matching",
    "ext_oracle",
    "format_barcode",
    "format_diagrams",
    "from_persistence",
    "generator_composite_nonzero",
    "global_sections",
    "hom_dim",
    "interpolate",
    "pair_cost",
    "pair_path",
    "parse_barcode",
    "parse_diagrams",
    "parse_graded_interval",
    "parse_interval",
    "part_bottleneck",
    "same_component",
    "split_clr",
    "stalk_type",
    "to_persistence",
]
