"""The package root, the modules a command loads, and the record classes."""

import copy
import importlib
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import sheafdist
from sheafdist import (
    Barcode,
    GradedInterval,
    Interval,
    Matching,
    PersistenceDiagram,
    parse_barcode,
)
from sheafdist.intervals import INF

FIXTURES = Path(__file__).parent / "fixtures"


def run_python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


# ---------------------------------------------------------------------
# lazy package root
# ---------------------------------------------------------------------


def test_every_public_name_resolves_to_its_module_object():
    for name in sheafdist.__all__:
        home = importlib.import_module(f"sheafdist.{sheafdist._HOME[name]}")
        assert getattr(sheafdist, name) is getattr(home, name)
    namespace: dict = {}
    exec("from sheafdist import *", namespace)
    assert set(sheafdist.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(sheafdist, name) for name in sheafdist.__all__)
    assert set(sheafdist.__all__) <= set(dir(sheafdist))
    with pytest.raises(AttributeError):
        sheafdist.nope
    with pytest.raises(ImportError):
        exec("from sheafdist import nope", {})


def test_fresh_import_loads_nothing_and_resolves_on_access():
    out = run_python(
        "import sys, sheafdist\n"
        "print(sorted(m for m in sys.modules if m.startswith('sheafdist.')))\n"
        # loading a submodule first must not shadow the function of its name
        "import sheafdist.interpolate\n"
        "from sheafdist import pair_path, interpolate\n"
        "print(callable(interpolate), interpolate.__name__, sheafdist.interpolate is interpolate)\n"
        "print(sheafdist.matching.__name__, sheafdist.costs.pair_cost.__name__)\n"
        "ns = {}\n"
        "exec('from sheafdist import *', ns)\n"
        "print(sorted(set(sheafdist.__all__) - set(ns)), 'interpolate' in dir(sheafdist))\n"
    )
    assert out.splitlines() == [
        "[]",
        "True interpolate True",
        "sheafdist.matching pair_cost",
        "[] True",
    ]


def test_match_loads_only_the_modules_it_runs():
    # component counts bars in matching, so it loads no more than match
    f, g = str(FIXTURES / "circle_f.gbc"), str(FIXTURES / "circle_g.gbc")
    for command in ("match", "component"):
        out = run_python(
            "import sys\n"
            "had = 'dataclasses' in sys.modules\n"
            "import sheafdist.cli\n"
            f"assert sheafdist.cli.main([{command!r}, {f!r}, {g!r}]) == 0\n"
            "unwanted = ['sheafdist.homs', 'sheafdist.persistence', 'sheafdist.interpolate',\n"
            "            'sheafdist.convolve', 'fractions'] + ([] if had else ['dataclasses'])\n"
            "print(sorted(m for m in unwanted if m in sys.modules))\n"
        )
        assert out.splitlines()[-1] == "[]", command


# ---------------------------------------------------------------------
# records: immutable, equal and hashed by their fields
# ---------------------------------------------------------------------

IV = Interval(0.0, 1.5, True, False)
BAR = GradedInterval(IV, 2)
BARCODE = parse_barcode("0 [0,1)\n0 (-1,1)\n1 [0,0]\n")


def _records():
    """(value, an equal value built separately, a field name) per record."""
    pairs = ((BAR, BAR, 0.0),)
    return [
        (IV, Interval(0.0, 1.5, True, False), "lo"),
        (BAR, GradedInterval(Interval(0.0, 1.5, True, False), 2), "degree"),
        (BARCODE, parse_barcode("1 [0,0]\n0 (-1,1)\n0 [0,1)\n"), "bars"),
        (Matching(pairs, 0.0), Matching(pairs, 0.0), "pairs"),
        (PersistenceDiagram(1, ((0.0, 2.0), (-INF, 1.0))),
         PersistenceDiagram(1, ((-INF, 1.0), (0.0, 2.0))), "pairs"),
    ]


@pytest.mark.parametrize("value, twin, field", _records(), ids=lambda x: type(x).__name__)
def test_records_are_immutable_values(value, twin, field):
    assert value == twin and value is not twin and not value != twin
    assert hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_graded_interval_keeps_key_and_point_out_of_equality():
    a, b = GradedInterval(IV, 2), GradedInterval(IV, 2)
    sheafdist.intervals.point(a)
    assert a == b and hash(a) == hash(b) and a.key == b.key == (2, 0.0, False, 1.5, True)
    assert GradedInterval(IV, 3) != a and Barcode((a,)) != Barcode((GradedInterval(IV, 3),))
    assert repr(Barcode((a,))) == f"Barcode(bars=({a!r},))"
    assert repr(Matching.infeasible()) == "Matching(pairs=(), achieved=inf)"


INTERVAL_ERRORS = [
    ((math.nan, 1, False, False), "NaN endpoint"),
    ((0, math.nan, False, False), "NaN endpoint"),
    ((INF, INF, False, False), "empty interval: endpoint at the wrong infinity"),
    ((-INF, -INF, False, False), "empty interval: endpoint at the wrong infinity"),
    ((-INF, 1, True, False), "closed flag on infinite endpoint"),
    ((0, INF, False, True), "closed flag on infinite endpoint"),
    ((2, 1, True, True), "empty interval: lo=2 > hi=1"),
    ((0, 0, True, False), "empty interval: equal endpoints need both flags closed"),
    # every finite end below 2**1022, so no width, midpoint or cost overflows
    ((0, 2**1022, True, False), "endpoint out of range: a finite end must be below 2**1022"),
    ((-1.7e308, 1.7e308, True, False), "endpoint out of range: a finite end must be below 2**1022"),
    ((5e307, INF, True, False), "endpoint out of range: a finite end must be below 2**1022"),
    ((-INF, -5e307, False, False), "endpoint out of range: a finite end must be below 2**1022"),
]


@pytest.mark.parametrize("args, message", INTERVAL_ERRORS)
def test_interval_validation_messages(args, message):
    with pytest.raises(ValueError) as exc:
        Interval(*args)
    assert str(exc.value) == message
    # the tuple's own builders check too
    with pytest.raises(ValueError):
        Interval._make(args)
    with pytest.raises(ValueError):
        IV._replace(lo=args[0], hi=args[1], lo_closed=args[2], hi_closed=args[3])


def test_interval_is_a_tuple_of_its_fields():
    assert tuple(IV) == (0.0, 1.5, True, False) == IV
    lo, hi, lo_closed, hi_closed = IV
    assert (lo, hi, lo_closed, hi_closed) == (IV.lo, IV.hi, IV.lo_closed, IV.hi_closed)
    assert IV._replace(hi=2.0) == Interval(0.0, 2.0, True, False)
    assert repr(IV) == "Interval(lo=0.0, hi=1.5, lo_closed=True, hi_closed=False)"


def test_persistence_diagram_validation_messages():
    for pairs, message in [
        (((3.0, 3.0),), "bad diagram pair (3.0, 3.0)"),
        (((0.0, 1.0), (4.0, 1.0)), "bad diagram pair (4.0, 1.0)"),
        (((math.nan, 1.0),), "bad diagram pair (nan, 1.0)"),
    ]:
        with pytest.raises(ValueError) as exc:
            PersistenceDiagram(0, pairs)
        assert str(exc.value) == message
        with pytest.raises(ValueError):
            PersistenceDiagram._make((0, pairs))
    d = PersistenceDiagram(0, ((2.0, 3.0), (0.0, 1.0)))
    assert d.pairs == ((0.0, 1.0), (2.0, 3.0)) and PersistenceDiagram(0).pairs == ()
    assert d._replace(degree=1) == PersistenceDiagram(1, d.pairs)
