"""The value contract of the records: built from equal fields they are equal
and hash equal, a pickle round trip gives an equal value, and no field can
be assigned. A record that holds an algebra or a graded table holds it by
identity, so the round trip keeps that algebra or table as it is and
pickles every other field."""

import io
import pickle
from fractions import Fraction

import pytest

from syzcx.algebra import (
    Arrow,
    ModuleTerm,
    MonomialAlgebraSpec,
    Path,
    Quiver,
    parse_algebra,
)
from syzcx.complexity import (
    ComplexityClass,
    ModuleComplexityReport,
    module_complexity,
)
from syzcx.curvature import CurvatureVerdict, check_condition_c
from syzcx.oracle import (
    PRIMES,
    AlgebraTable,
    CrosscheckReport,
    TableRepresentation,
    compile_paths,
    rep_of,
)
from syzcx.polynomials import AlgebraicReal, poly
from syzcx.spectra import SCC, Condensation, scc_condense
from syzcx.syzygy import (
    CyclicKey,
    ModuleExpr,
    SyzygyQuiver,
    build_syzygy_quiver,
    resolve_module,
    simple_key,
)

from conftest import FIB_TEXT, make_algebra

FIB = make_algebra(FIB_TEXT)
SHARED = {"FIB": FIB, "FIB_TABLE": compile_paths(FIB)}


def _quiver():
    return Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))


def _root():
    return AlgebraicReal(poly(-1, -1, 1), Fraction(1), Fraction(2))


def _key():
    return CyclicKey("2", (Path("2", "1", ("b",)), Path("2", "2", ("g",))))


RECORDS = {
    Arrow: lambda: Arrow("a", "1", "2"),
    Path: lambda: Path("1", "1", ("a", "b")),
    ModuleTerm: lambda: ModuleTerm(2, "M", path=Path("1", "2", ("a",))),
    MonomialAlgebraSpec: lambda: parse_algebra(FIB_TEXT),
    CyclicKey: _key,
    ModuleExpr: lambda: ModuleExpr(((_key(), 2),)),
    SyzygyQuiver: lambda: build_syzygy_quiver(resolve_module(FIB, "Mix"), FIB),
    SCC: lambda: SCC((0, 1), ((0, 1), (1, 1)), _root()),
    Condensation: lambda: scc_condense(3, [(0, 1), (1, 0), (1, 2)]),
    AlgebraicReal: _root,
    ComplexityClass: lambda: ComplexityClass("polyexp", _root(), 1),
    ModuleComplexityReport: lambda: module_complexity(
        FIB, resolve_module(FIB, "S1")),
    CurvatureVerdict: lambda: check_condition_c(poly(-1, -1, 1)),
    AlgebraTable: lambda: AlgebraTable(
        "kx2", ("1", "x"), ((0, 1), (1, -1))),
    CrosscheckReport: lambda: CrosscheckReport((1, 2), (1, 3), False, 1),
    TableRepresentation: lambda: rep_of(
        resolve_module(FIB, "Mix"), FIB, PRIMES[0]),
    Quiver: _quiver,
}


def _round_trip(value):
    """Pickle and unpickle, keeping the shared algebra and its table by
    identity."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf)
    pickler.persistent_id = lambda obj: next(
        (pid for pid, shared in SHARED.items() if obj is shared), None)
    pickler.dump(value)
    buf.seek(0)
    unpickler = pickle.Unpickler(buf)
    unpickler.persistent_load = SHARED.__getitem__
    return unpickler.load()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_frozen_value(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and type(b) is cls
    assert a is not b and a == b
    if cls is MonomialAlgebraSpec:
        with pytest.raises(TypeError):  # its modules are a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
    copy = _round_trip(a)
    assert type(copy) is type(a) and copy == a
    for field in getattr(a, "_fields", ("vertices", "arrows")):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b


def test_spec_modules_have_no_shared_default():
    assert MonomialAlgebraSpec._field_defaults == {}


def test_path_length_counts_arrows():
    assert len(Path("1", "1", ("a", "b"))) == 2
    assert len(Path("1", "1", ())) == 0


def test_path_namedtuple_helpers_round_trip():
    # len(Path) counts arrows, so _make, and _replace through it, count the
    # fields apart.
    p = Path("1", "2", ("a",))
    assert p._replace(target="3") == Path("1", "3", ("a",))
    assert type(p._replace()) is Path and p._replace() == p
    assert type(Path._make(p)) is Path and Path._make(p) == p
    assert Path._make(["1", "1", ()]) == Path("1", "1", ())
    assert Path(**p._asdict()) == p
    assert Path._make(p._asdict().values()) == p
    with pytest.raises(TypeError):
        Path._make(["1", "2"])
    with pytest.raises(ValueError):
        p._replace(nope="3")


def test_module_expressions_add_as_direct_sums():
    s1, s2 = simple_key(FIB, "1"), simple_key(FIB, "2")
    m = ModuleExpr(((s2, 1),)) + ModuleExpr(((s1, 2), (s2, 3)))
    assert m == ModuleExpr(((s1, 2), (s2, 4)))
    assert m + ModuleExpr() == m
