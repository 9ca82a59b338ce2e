"""Graded barcodes on the real line.

A barcode here is a finite multiset of intervals, each carrying explicit
boundary flags and a cohomological degree.  The library computes the
convolution (smoothing) action on barcodes, morphism-space dimensions
between single bars, the exact bottleneck distance between barcodes as a
matching problem (allowing matches across a degree step), geodesic
interpolation between barcodes at finite distance, and a lossless bridge
to one-parameter persistence diagrams for the half-open parts.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562) and kept here, so a
command-line call pays only for the modules its command runs.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

#: module of each public name
_HOME = {
    **dict.fromkeys(
        ("INF", "GradedInterval", "Interval", "ParseError", "parse_graded_interval",
         "parse_interval"),
        "intervals",
    ),
    **dict.fromkeys(
        ("Barcode", "format_barcode", "parse_barcode"),
        "barcode",
    ),
    **dict.fromkeys(("global_sections", "hom_dim"), "homs"),
    **dict.fromkeys(("convolve_barcode", "convolve_interval"), "convolve"),
    **dict.fromkeys(("deletion_cost", "pair_cost"), "costs"),
    **dict.fromkeys(
        ("Matching", "bruteforce_distance", "distance_with_matching", "part_bottleneck",
         "same_component"),
        "matching",
    ),
    **dict.fromkeys(("interpolate", "pair_path"), "interpolate"),
    **dict.fromkeys(
        ("PersistenceDiagram", "format_diagrams", "from_persistence", "parse_diagrams",
         "to_persistence"),
        "persistence",
    ),
}

__all__ = sorted(_HOME)

_MODULES = {*_HOME.values(), "cli"}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
        return value
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _MODULES)


class _Package(_ModuleType):
    """The package's module type.  Loading a submodule binds it as an
    attribute of its package; ``interpolate`` names both a submodule and
    a public function, and the function keeps the name."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
