"""The shared helpers of `_util`: immutable records, checked against the
frozen dataclasses they stand for, and Horner evaluation and companion
roots, checked bit for bit against `numpy.polynomial`, which stays the
reference here and is imported by no module of the package."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as npoly

import fredholm_kit
from fredholm_kit import (
    BoundaryOperator,
    ChannelTable,
    CheckLedger,
    CoeffTerm,
    Coefficient,
    CrossSection,
    EllipticityResult,
    FredholmKitError,
    FredholmOptions,
    GroupKind,
    LieStructure,
    MultiIndex,
    NotRepresentableError,
    RootTable,
    ScanResult,
    StructureKind,
    fredholm_check,
    indicial_family,
    make_model,
    normal_operator,
    spectrum,
)
from fredholm_kit._util import Record, polyval
from fredholm_kit.crosssec import CrossKind
from fredholm_kit.fredholm import _positive_root
from fredholm_kit.liestruct import RADIAL
from fredholm_kit.numoracle import LedgerEntry


def _record_classes() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(fredholm_kit.__path__):
        module = importlib.import_module(f"fredholm_kit.{info.name}")
        for c in vars(module).values():
            if isinstance(c, type) and issubclass(c, Record) and c is not Record \
                    and c.__module__ == module.__name__:
                found[c.__name__] = c
    return found


RECORDS = _record_classes()


def _example(name: str) -> dict:
    """Field values of a valid record of class `name`, built afresh: every
    field but those with a default, which are left out but for
    `FredholmOptions`, whose fields all have one."""
    channels = ChannelTable(("k=0", "k=1"), np.array([0.0, 1.0]))
    report = fredholm_check(make_model("polar_laplacian"), 0.3)
    return {
        "CrossSection": dict(kind=CrossKind.TORUS, dim=2),
        "ModeTable": dict(eigenvalues=np.array([0.0, 1.0]), multiplicities=(1, 2),
                          cutoff=1.0, cross_section=CrossSection.circle()),
        "ChannelTable": dict(labels=("k=0", "k=1"), eigenvalues=np.array([0.0, 1.0])),
        "FrameField": dict(r_exponent=1.0, axis=RADIAL),
        "LieStructure": dict(kind=StructureKind.B, collar_dim=2),
        "IsotropyDescriptor": dict(structure_constants=np.zeros((2, 2, 2)),
                                   group_kind=GroupKind.ABELIAN, orbit="point",
                                   group_dim=2, group="R^2"),
        "MultiIndex": dict(radial=1, cross=(0, 2)),
        "CoeffTerm": dict(nu=1.0, value=2.0, lam_poly=(1 + 0j, 2 + 0j)),
        "Coefficient": dict(terms=(CoeffTerm(0.0, 1.0), CoeffTerm(2.0, 0.5))),
        "BoundaryOperator": dict(structure=LieStructure.b(1), cross_section=CrossSection.circle(),
                                 terms=((MultiIndex(2), Coefficient.constant(1.0)),
                                        (MultiIndex(0, (), 1), Coefficient.constant(1.0)))),
        "BTerm": dict(nu=0.0, value=1.0, lam_poly=None, t=2, cross=(), lap=0),
        "RadialGrid": dict(t0=-1.0, t1=1.0, n=8),
        "EllipticityResult": dict(elliptic=True, min_abs_det=1.0, witness_r=0.0,
                                  witness_covector=(1.0, 0.0), grid=(4, 4)),
        "IndicialFamily": dict(channels=channels, coeffs=np.ones((2, 3, 1, 1), complex)),
        "IndicialRoot": dict(mode="k=0", tau=1j, mellin=-1 + 0j, multiplicity=1),
        "RootTable": dict(labels=("k=0",), tau=np.array([1j]), mellin=np.array([-1 + 0j]),
                          multiplicity=np.array([1]), channel=np.array([0]),
                          class_root=np.array([0])),
        "LineVerdict": dict(status="yes", distance=0.5, witness=None),
        "TailBound": dict(mu0=1.0, order=2, envelope=((0, 1.0),), s0=1.0,
                          lambda_certified=1.0),
        "ScVerdict": dict(status="yes", min_abs_det=1.0, witness=None, radius=1.0,
                          resolutions=((64, 1.0, "yes"),)),
        "HalfSpaceSample": dict(points=((1.0, 2, 0.5),), min_singular=(0.25,),
                                global_min=0.25, argmin=(1.0, 2, 0.5), ladder=()),
        "FredholmOptions": dict(mode_cutoff=50.0, tau_range=(-5.0, 5.0), pts=11,
                                empty_boundary=True),
        "LimitVerdict": dict(orbit="boundary", mechanism="b normal operator", status="yes",
                             witness=None, detail={}),
        "FredholmReport": dict(vars(report)),
        "ScanResult": dict(points=(0.0, 1.0), samples=lambda: np.array([2.0, 1.0]),
                           global_min=1.0, argmin=1.0, ladder=()),
        "LedgerEntry": dict(name="roots[k=0]", status="pass", detail="2 roots re-found"),
        "CheckLedger": dict(entries=(LedgerEntry("roots", "pass", "ok"),), scans={}),
    }[name]


# the defaults of every record class that has any, as the dataclasses had them
DEFAULTS = {
    "CrossSection": {"matrix": None},
    "ChannelTable": {"vectors": None},
    "LieStructure": {"gamma": None},
    "MultiIndex": {"radial": 0, "cross": (), "laplacian": 0},
    "CoeffTerm": {"nu": 0.0, "value": 1.0, "lam_poly": None},
    "BoundaryOperator": {"order": None},
    "IndicialFamily": {"warning": None},
    "FredholmOptions": {"mode_cutoff": None, "tau_range": (-10.0, 10.0), "pts": 2001,
                        "empty_boundary": False},
}
# the classes whose dataclass had eq=False: equal and hashed by identity
BY_IDENTITY = {"ModeTable", "ChannelTable", "RootTable"}
# the classes whose constructor rebuilds the given field values in a
# canonical form (a frozen value, a merged term tuple, the true order):
# equal to, not the same objects as, the canonical values given
NORMALISED = {"CoeffTerm", "Coefficient", "BoundaryOperator"}
# the classes with their own __eq__ and __hash__ (a matrix field compares
# by its entries)
OWN_EQ = {"CrossSection", "CoeffTerm"}


def _fields(cls) -> list[str]:
    return list(cls.__annotations__)


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def _compared(x, y):
    try:
        return x == y
    except ValueError as e:  # the truth value of an array field is ambiguous
        return type(e)


def test_the_package_defines_the_listed_records():
    assert len(RECORDS) == 26
    for name in RECORDS:
        assert set(_example(name)) <= set(_fields(RECORDS[name]))
    assert set(DEFAULTS) | BY_IDENTITY <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_build_by_position_and_keyword_with_defaults(name):
    cls, given_values = RECORDS[name], _example(name)
    fields = _fields(cls)
    by_keyword = cls(**given_values)
    by_position = cls(*(given_values[f] for f in fields if f in given_values))
    for f in fields:
        if f in given_values and name in NORMALISED:
            assert getattr(by_keyword, f) == given_values[f]
            assert getattr(by_position, f) == given_values[f]
        elif f in given_values:
            assert getattr(by_keyword, f) is given_values[f]
            assert getattr(by_position, f) is given_values[f]
    assert list(vars(by_keyword)) == fields
    defaults = DEFAULTS.get(name, {})
    # the defaulted fields come last, and fill in what is not given
    assert fields[len(fields) - len(defaults):] == list(defaults)
    bare = cls(**{f: v for f, v in given_values.items() if f not in defaults})
    # the fields without a default by position: the rest from the defaults
    by_prefix = cls(*(given_values[f] for f in fields if f in given_values and f not in defaults))
    if name in NORMALISED:  # a default is normalised as a given value is
        assert cls._defaults == defaults
        assert bare == by_prefix == cls(**{**given_values, **defaults})
    else:
        assert {f: getattr(bare, f) for f in defaults} == defaults
        assert {f: getattr(by_prefix, f) for f in defaults} == defaults
    if len(defaults) < len(fields):
        with pytest.raises(TypeError, match="missing"):
            cls()
    with pytest.raises(TypeError, match="positional"):
        cls(*range(len(fields) + 1))
    with pytest.raises(TypeError, match="'no_such_field'"):
        cls(**given_values, no_such_field=1)
    with pytest.raises(TypeError, match="repeated"):
        cls(given_values[fields[0]], **{fields[0]: given_values[fields[0]]})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name](**_example(name))
    before = dict(vars(record))
    for f in [*_fields(RECORDS[name]), "new_attribute"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, f, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, f)
    assert vars(record) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_as_their_dataclasses_did(name):
    cls, given_values = RECORDS[name], _example(name)
    a, b = cls(**given_values), cls(**given_values)
    fields = _fields(cls)
    reference = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True,
                                           eq=name not in BY_IDENTITY)
    ref_a, ref_b = reference(**vars(a)), reference(**vars(b))
    if name == "BoundaryOperator":  # its own repr, with its display
        assert repr(a) == "BoundaryOperator<b, S^1; (r d/dr)^2 + L>"
    else:
        assert repr(a) == repr(ref_a)
    assert a == a and (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
    # field values built afresh: equal, unequal, or an array's ambiguous truth
    c = cls(**_example(name))
    assert _compared(a, c) == _compared(ref_a, reference(**vars(c)))
    assert a != object() and a != ref_a
    if name in BY_IDENTITY:
        assert a != b and hash(a) == object.__hash__(a) and {a: 1}.get(b) is None
    elif name in OWN_EQ:
        assert a == b and hash(a) == hash(b)
    elif _hashable(vars(a).values()):
        assert hash(a) == hash(ref_a) == hash(tuple(vars(a).values()))
    else:
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            hash(ref_a)


def test_multi_indices_and_structures_stay_dict_keys_by_value():
    table = {MultiIndex(2, (1,)): "first", LieStructure.b(2): "b"}
    # a trailing zero partial is cut off by __post_init__, so the keys match
    assert table[MultiIndex(radial=2, cross=(1, 0))] == "first"
    assert table[LieStructure(StructureKind.B, 3)] == "b"
    assert MultiIndex(1) != MultiIndex(2) and LieStructure.b(1) != LieStructure.zero(1)
    assert len({MultiIndex(1, (0,)), MultiIndex(1), MultiIndex(radial=1)}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace_builds_a_new_record_with_the_changes(name):
    cls, given_values = RECORDS[name], _example(name)
    record = cls(**given_values)
    field = _fields(cls)[-1]
    value = getattr(record, field)
    copy = record.replace()
    assert type(copy) is cls and copy is not record and vars(copy) == vars(record)
    changed = record.replace(**{field: value})
    if name in NORMALISED:
        assert getattr(changed, field) == value
    else:
        assert getattr(changed, field) is value
    with pytest.raises(TypeError, match="'no_such_field'"):
        record.replace(no_such_field=1)


def test_post_init_validates_on_construction_and_on_replace():
    report = fredholm_check(make_model("polar_laplacian"), 0.3)
    assert report.verdict == "Fredholm"
    not_elliptic = EllipticityResult(False, 0.0, 0.0, (1.0, 0.0), (4, 4))
    with pytest.raises(FredholmKitError, match="inconsistent Fredholm verdict"):
        report.replace(elliptic=not_elliptic)
    with pytest.raises(FredholmKitError, match="inconsistent Fredholm verdict"):
        type(report)(**{**vars(report), "elliptic": not_elliptic})
    with pytest.raises(FredholmKitError, match="at least 2 points"):
        FredholmOptions(pts=1)
    with pytest.raises(FredholmKitError, match="at least 2 points"):
        FredholmOptions().replace(pts=1)
    with pytest.raises(ValueError, match="nonnegative"):
        MultiIndex(1).replace(laplacian=-1)
    assert MultiIndex(1).replace(cross=(3, 0, 0)).cross == (3,)
    with pytest.raises(ValueError, match="Hermitian|square"):
        CrossSection.circle().replace(kind=CrossKind.GENERIC)


def test_operators_normalise_on_construction_and_on_replace():
    term = CoeffTerm(1, 2, (3, 1, 0))
    assert (term.nu, term.value, term.lam_poly) == (1.0, 2 + 0j, (3 + 0j, 1 + 0j))
    assert type(term.nu) is float and type(term.value) is complex
    assert term.replace(lam_poly=(1, 0)).lam_poly is None  # q = 1 is no q
    with pytest.raises(NotRepresentableError, match="nu=-1 is negative"):
        term.replace(nu=-1)
    # equal exponents merge, zeros drop, the rest sorts by (nu, q degree)
    co = Coefficient([CoeffTerm(1.0, 1.0), CoeffTerm(0.0, 2.0), CoeffTerm(1.0, -1.0),
                      CoeffTerm(0.0, 1.0, (0, 1))])
    assert co.terms == (CoeffTerm(0.0, 2.0), CoeffTerm(0.0, 1.0, (0, 1)))
    assert co.replace(terms=[CoeffTerm(0.0, 1.0), CoeffTerm(0.0, -1.0)]).terms == ()
    p = make_model("polar_laplacian")
    q = BoundaryOperator(p.structure, p.cross_section,
                         {MultiIndex(0, (), 1): 1.0, MultiIndex(2): Coefficient.constant(1.0)})
    assert q == p and hash(q) == hash(p) and q.terms == p.terms and q.order == 2
    # a multi-index given twice merges its coefficients
    halves = [(MultiIndex(2), 0.5), (MultiIndex(0, (), 1), 1.0), (MultiIndex(2), 0.5)]
    assert BoundaryOperator(p.structure, p.cross_section, halves) == p
    assert p.replace(order=2) == p
    with pytest.raises(ValueError, match="declared order 3 does not match"):
        p.replace(order=3)
    with pytest.raises(ValueError, match="inconsistent system sizes"):
        p.replace(terms={MultiIndex(2): np.eye(2), MultiIndex(0): np.eye(3)})


def test_cached_properties_are_computed_once_per_record():
    p = make_model("polar_laplacian")
    fam = indicial_family(normal_operator(p), spectrum(p.cross_section, 20.0))
    rows = fam.class_rows
    assert fam.class_rows is rows and fam.polys is fam.polys
    shifted = fam.shifted(0.5)
    assert shifted.class_rows is not rows and shifted.coeffs is not fam.coeffs
    calls = []

    def samples():
        calls.append(1)
        return np.array([2.0, 1.0])

    scan = ScanResult((0.0, 1.0), samples, 1.0, 1.0, ())
    assert scan.min_singular == (2.0, 1.0) and scan.min_singular is scan.min_singular
    assert len(calls) == 1
    ledger = CheckLedger((LedgerEntry("roots", "pass", "ok"),), {})
    assert ledger.passed and ledger.replace(entries=()).passed


def test_record_tables_keep_the_sequence_protocol():
    table = RootTable(("k=0",), np.array([1j, 2j]), np.array([-1 + 0j, -2 + 0j]),
                      np.array([1, 2]), np.array([0, 0]), np.array([0, 1]))
    assert len(table) == 2 and [r.multiplicity for r in table] == [1, 2]
    assert table[1].tau == 2j and table.index(table[1]) == 1


# ---------------------------------------------------------------------------
# Horner evaluation and companion roots, bit for bit against numpy.polynomial

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           math.inf, -math.inf, math.nan]
reals = st.one_of(st.sampled_from(SPECIAL), st.floats())
complexes = st.builds(complex, reals, reals)


def _bits(x) -> tuple:
    """dtype, shape and bytes: equal exactly when every value has the same
    bit pattern (signs of zeros and NaN payloads included)."""
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


def _arrays(dtype, shape):
    return hnp.arrays(dtype, shape, elements=reals if dtype is float else complexes)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_polyval_equals_numpy_bit_for_bit(data):
    dtype_c = data.draw(st.sampled_from([float, complex]), label="coefficients")
    dtype_x = data.draw(st.sampled_from([float, complex]), label="points")
    m = data.draw(st.integers(1, 6), label="coefficient count")
    b = data.draw(st.integers(1, 3), label="batch")
    n = data.draw(st.integers(1, 3), label="points per polynomial")
    shape = data.draw(st.sampled_from(["scalar", "array", "stacked", "stacked-grid",
                                       "tensor"]), label="call shape")
    if shape == "scalar":  # one polynomial at one point
        c, x, tensor = data.draw(_arrays(dtype_c, (m,))), data.draw(reals), True
    elif shape == "array":  # one polynomial at every point
        c, x, tensor = data.draw(_arrays(dtype_c, (m,))), data.draw(_arrays(dtype_x, (n,))), True
    elif shape == "stacked":  # polynomial c[:, j] at x[j] (the line scans)
        c, x, tensor = data.draw(_arrays(dtype_c, (m, b))), data.draw(_arrays(dtype_x, (b,))), False
    elif shape == "stacked-grid":  # c[:, j, 0] at x[j, :] (the inclusion radii)
        c = data.draw(_arrays(dtype_c, (m, b, 1)))
        x, tensor = data.draw(_arrays(dtype_x, (b, n))), False
    else:  # every c[:, j] at every x (the Lipschitz bounds)
        c, x, tensor = data.draw(_arrays(dtype_c, (m, b))), data.draw(_arrays(dtype_x, (n,))), True
    with np.errstate(all="ignore"):
        want = npoly.polyval(x, c, tensor=tensor)
        got = polyval(x, c, tensor)
    assert _bits(got) == _bits(want)


def _positive_root_reference(coeffs: np.ndarray) -> float:
    """`fredholm._positive_root` as it was written on `polyroots`."""
    with np.errstate(over="ignore"):
        if not np.isfinite(coeffs[:-1] / coeffs[-1]).all():
            return math.inf
    best = 0.0
    for z in npoly.polyroots(coeffs):
        if abs(z.imag) <= 1e-9 * (1 + abs(z.real)) and z.real > best:
            best = float(z.real)
    return best


def _outcome(f, coeffs):
    try:
        return _bits(f(coeffs))
    except np.linalg.LinAlgError as e:
        return str(e)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_positive_root_equals_the_polyroots_version_bit_for_bit(data):
    n = data.draw(st.integers(1, 9), label="coefficient count")
    if data.draw(st.booleans(), label="one sign change"):  # as the tail bounds build them
        lead = data.draw(st.floats(min_value=0.0, exclude_min=True), label="leading")
        lower = data.draw(_arrays(float, (n - 1,)), label="lower")
        coeffs = np.append(-np.abs(lower), lead)
    else:
        coeffs = data.draw(_arrays(float, (n,)), label="coefficients")
    reversed_view = data.draw(st.booleans(), label="a reversed view")
    if reversed_view:
        coeffs = coeffs[::-1].copy()[::-1]
    with np.errstate(all="ignore"):
        assert _outcome(_positive_root, coeffs) == _outcome(_positive_root_reference, coeffs)


@pytest.mark.parametrize("coeffs, root", [
    ([-6.0, 1.0, 1.0], 2.0),           # (z - 2)(z + 3)
    ([-4.0, 0.0, 1.0], 2.0),           # z^2 - 4
    ([-2.0, 1.0], 2.0),                # linear: solved directly
    ([1.0], 0.0),                      # constant: no root
    ([1.0, 0.0, 1.0], 0.0),            # z^2 + 1: no real root
    ([-1.0, 0.0, 0.0, 1.0], 1.0),      # z^3 - 1: one real root of three
])
def test_positive_root_of_known_polynomials(coeffs, root):
    assert _positive_root(np.array(coeffs)) == pytest.approx(root, rel=1e-14, abs=0)
