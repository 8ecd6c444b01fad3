"""lbk's values and records against the dataclasses they stand for: the same fields, defaults, repr, equality,
hash and immutability, and copies and pickles that go through ``__init__``."""
import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lbk.apartment import AffineIsometry, ConvexRegion, HalfApartment, RegionShape, Sector, SectorGerm
from lbk.atlas import BuildingGerm, BuildingPoint, BuildingSector, Transition, ValidationReport, validate
from lbk.axioms import (
    AxiomReport,
    CheckLine,
    CoapartmentResult,
    CoverResult,
    EquivalenceReport,
    OppositeResult,
    equivalence_suite,
    finite_cover,
    germ_coapartment,
)
from lbk.fixtures import fan
from lbk.infinity import InfinityComplex, infinity_complex
from lbk.linarith import GE, ConstraintSystem, Feasibility, LinearConstraint, feasible
from lbk.records import Value

ROOT = Path(__file__).resolve().parent.parent

REQUIRED = inspect.Parameter.empty
FACTORY = dataclasses.field(default_factory=list)

# Each class's fields in order, with the default its dataclass gave each; FACTORY is default_factory=list.
FIELDS = {
    AffineIsometry: {"linear": REQUIRED, "shift": REQUIRED},
    HalfApartment: {"root": REQUIRED, "sense": REQUIRED, "bound": REQUIRED},
    ConvexRegion: {"halves": REQUIRED},
    Sector: {"base": REQUIRED, "direction": REQUIRED},
    SectorGerm: {"sector": REQUIRED},
    RegionShape: {"kind": REQUIRED, "root": None, "sense": 0, "bound": None},
    LinearConstraint: {"coeffs": REQUIRED, "relation": REQUIRED, "bound": REQUIRED},
    ConstraintSystem: {"nvars": REQUIRED, "constraints": REQUIRED},
    Feasibility: {"sat": REQUIRED, "witness": REQUIRED},
    Transition: {"region": REQUIRED, "iso": REQUIRED},
    BuildingPoint: {"chart": REQUIRED, "point": REQUIRED},
    BuildingSector: {"chart": REQUIRED, "sector": REQUIRED},
    BuildingGerm: {"chart": REQUIRED, "sector": REQUIRED},
    ValidationReport: {"ok": REQUIRED, "issues": FACTORY, "notes": FACTORY},
    InfinityComplex: {
        "atlas": REQUIRED, "chamber_members": REQUIRED, "chamber_of": REQUIRED, "apartments": REQUIRED,
        "adjacency": REQUIRED, "issues": FACTORY,
    },
    CheckLine: {"config": REQUIRED, "verdict": REQUIRED, "detail": ""},
    AxiomReport: {"axiom": REQUIRED, "lines": FACTORY},
    CoapartmentResult: {
        "chart": REQUIRED, "verdict": REQUIRED, "initial_length": REQUIRED, "final_length": REQUIRED, "stages": FACTORY,
    },
    OppositeResult: {
        "verdict": REQUIRED, "sector": None, "cochart": None, "parallel_at_base": None,
        "contains_point": False, "maximal_length": None,
    },
    CoverResult: {"verdict": REQUIRED, "pieces": FACTORY, "uncovered": None},
    EquivalenceReport: {"reports": REQUIRED, "precondition_ok": REQUIRED, "alarms": FACTORY},
}


@pytest.fixture(scope="module")
def instances():
    """One instance of every class, each read off a run on fan(3, A2) where a run makes one."""
    atlas = fan(3)
    ap = atlas.apartment
    t = atlas.transitions[(0, 1)]
    w = ap.directions()[1]
    sector = ap.sector(ap.origin(), w)
    germ, other = BuildingGerm(0, sector), BuildingGerm(1, ap.sector(ap.origin(), ap.directions()[2]))
    constraint = LinearConstraint((Fraction(1), Fraction(-2)), GE, ap.scalar(1))
    system = ConstraintSystem(2, [constraint])
    suite = equivalence_suite(atlas, samples=4)
    made = [
        t.iso, t.region.halves[0], t.region, sector, sector.germ(), ap.classify_region(t.region), constraint, system,
        feasible(system), t, BuildingPoint(0, ap.origin()), BuildingSector(0, sector), germ, validate(atlas),
        infinity_complex(atlas), suite.reports["A3"].lines[0], suite.reports["A3"], germ_coapartment(atlas, germ, other),
        OppositeResult("inconclusive-budget", sector, 1, maximal_length=2), finite_cover(atlas, germ, 1), suite,
    ]
    assert [type(obj) for obj in made] == list(FIELDS)
    return dict(zip(FIELDS, made))


def fields_of(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def reference(obj):
    """The object as the dataclass it stands for: same name, fields and values."""
    cls = type(obj)
    made = dataclasses.make_dataclass(cls.__qualname__, list(FIELDS[cls]), frozen=issubclass(cls, Value))
    return made(*fields_of(obj))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_in_order_with_their_defaults(cls):
    params = inspect.signature(cls).parameters
    assert list(params) == list(FIELDS[cls]) == list(cls._fields)
    for name, default in FIELDS[cls].items():
        if default is not FACTORY:
            got = params[name].default
            assert got == default and type(got) is type(default), name


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_equality_and_hash_are_the_dataclass_ones(cls, instances):
    obj = instances[cls]
    ref = reference(obj)
    assert repr(obj) == repr(ref)
    twin = cls(*fields_of(obj))
    assert twin == obj and not twin != obj and twin is not obj
    assert obj != ref and obj.__eq__(ref) is NotImplemented
    if issubclass(cls, Value):
        assert hash(obj) == hash(twin) == hash(ref) == hash(fields_of(obj))
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert fields_of(obj) == fields_of(twin)
    else:
        with pytest.raises(TypeError):
            hash(obj)


def test_equal_fields_of_two_classes_are_not_equal(instances):
    sector = instances[Sector]
    germ, held = BuildingGerm(0, sector), BuildingSector(0, sector)
    assert fields_of(germ) == fields_of(held)
    assert germ != held and held != germ and hash(germ) == hash(held)
    assert len({germ, held}) == 2


def test_a_record_can_change_and_compares_by_its_fields():
    line = CheckLine("c", "pass")
    other = CheckLine("c", "pass")
    other.detail = "witness=1"
    assert line != other
    line.detail = "witness=1"
    assert line == other


@pytest.mark.parametrize("cls", [HalfApartment, LinearConstraint, ConvexRegion], ids=lambda cls: cls.__name__)
def test_copies_and_pickles_rebuild_the_value(cls, instances):
    obj = instances[cls]
    for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)


def test_value_checks_keep_their_errors():
    with pytest.raises(ValueError, match="unknown relation '='"):
        LinearConstraint((1,), "=", None)
    with pytest.raises(ValueError, match="constraint arity does not match system"):
        ConstraintSystem(2, [LinearConstraint((1,), GE, None)])
    loose = LinearConstraint([1, Fraction(1, 2)], GE, None)
    assert loose.coeffs == (Fraction(1), Fraction(1, 2)) and all(type(c) is Fraction for c in loose.coeffs)
    assert type(ConstraintSystem(2, [loose]).constraints) is tuple


@pytest.mark.parametrize("cls", [c for c in FIELDS if FACTORY in FIELDS[c].values()], ids=lambda cls: cls.__name__)
def test_default_lists_are_fresh(cls):
    """A field that had default_factory=list starts as an empty list of each object's own."""
    required = [object()] * list(FIELDS[cls].values()).count(REQUIRED)
    first, second = cls(*required), cls(*required)
    for name, default in FIELDS[cls].items():
        if default is FACTORY:
            getattr(first, name).append(0)
            assert getattr(second, name) == [], name


def test_import_leaves_out_generated_code():
    """lbk builds its classes without the dataclass machinery: importing it and its CLI loads neither
    ``dataclasses`` nor ``inspect``, whose code generation every process would pay for at start-up."""
    probe = "import sys, lbk, lbk.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
