import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import (
    AXIOM_TOL,
    BUILTIN_KINDS,
    BUILTINS,
    LUKASIEWICZ,
    MIN,
    PROD_MAX,
    PRODUCT,
    DomainError,
    Semicopula,
    builtin,
    validate_semicopula,
)
from semint.cli import parse_semicopula
from semint.semicopula import _SCALAR_FORMULAS

unit = st.floats(min_value=0.0, max_value=1.0)


def formula(kind: str, a, b):
    """The closed forms, written out independently of the package."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if kind == "min":
        return np.minimum(a, b)
    if kind == "product":
        return a * b
    if kind == "prodmax":
        return a * b * np.maximum(a, b)
    if kind == "lukasiewicz":
        return np.maximum(a + b - 1.0, 0.0)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# evaluation


def test_min_golden():
    assert MIN.evaluate(0.3, 0.7) == 0.3


def test_lukasiewicz_golden():
    assert LUKASIEWICZ.evaluate(0.5, 0.6) == pytest.approx(0.1, abs=1e-12)


def test_prodmax_golden():
    # cross-checked against the a*b*max(a,b) closed form evaluated here
    expected = 0.5 * 0.75 * max(0.5, 0.75)
    assert expected == 0.28125
    assert PROD_MAX.evaluate(0.5, 0.75) == expected


@given(unit)
def test_neutral_element_exact(a):
    for s in BUILTINS:
        assert s.evaluate(a, 1.0) == a
        assert s.evaluate(1.0, a) == a


@given(unit, unit)
def test_matches_closed_form(a, b):
    for s in BUILTINS:
        assert s.evaluate(a, b) == pytest.approx(float(formula(s.kind, a, b)), abs=1e-12)


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.2), (2.0, 2.0), (math.nan, 0.5), (0.5, math.nan)])
def test_evaluate_rejects_out_of_range(bad):
    a, b = bad
    for s in BUILTINS + (Semicopula.from_grid([[0.0, 0.0], [0.0, 1.0]]),):
        # numbers and arrays take one path, which checks every entry of both arguments once
        for args in ((a, b), (np.array([[0.5, a]]), np.array([[0.5, b]]))):
            with pytest.raises(DomainError) as err:
                s.evaluate(*args)
            assert str(err.value) == "arguments outside [0,1]^2"


@pytest.mark.parametrize("bad", [[[0.5, 0.5], [0.5]], [{}, 0.5], ["half", 0.5], ["0.5", 0.5], [10**400, 0.5]])
def test_evaluate_names_arguments_that_are_not_an_array_of_numbers(bad):
    for s in BUILTINS + (Semicopula.from_grid([[0.0, 0.0], [0.0, 1.0]]),):
        for a, b in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(DomainError) as err:
                s.evaluate(a, b)
            assert str(err.value) == "semicopula arguments must be a regular array of numbers"


SCALAR_SPECIALS = (0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0)


def test_scalar_and_array_paths_agree():
    # integrate's formulas on two floats against the array form evaluate takes; .hex() tells -0.0 from 0.0
    axis = np.concatenate((np.linspace(0.0, 1.0, 41), SCALAR_SPECIALS))
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    for s in BUILTINS:
        arr = s._evaluate_array(grid_a, grid_b)
        formula = _SCALAR_FORMULAS[s.kind]
        for i, a in enumerate(axis.tolist()):
            for j, b in enumerate(axis.tolist()):
                assert formula(a, b).hex() == arr[i, j].hex(), (s.kind, a, b)
                # two numbers come back as one number, not a 0-d array
                got = s.evaluate(a, b)
                assert not isinstance(got, np.ndarray) and got.hex() == arr[i, j].hex(), (s.kind, a, b)


def inline_scalar(kind: str, a: float, b: float) -> float:
    """Each builtin formula written out inline: the bit-for-bit reference for ``_SCALAR_FORMULAS``."""
    if kind == "min":
        return a if a <= b else b
    if kind == "product":
        return a * b
    if kind == "prodmax":
        return a * b * (a if a >= b else b)
    if kind == "lukasiewicz":
        if b == 1.0:
            return a
        if a == 1.0:
            return b
        s = a + b - 1.0
        return s if s > 0.0 else 0.0
    raise AssertionError(kind)


def test_scalar_formulas_return_the_inline_branch_bit_for_bit():
    axis = np.linspace(0.0, 1.0, 41).tolist() + list(SCALAR_SPECIALS)
    axis += np.random.default_rng(6).random(40).tolist()
    for s in BUILTINS:
        formula = _SCALAR_FORMULAS[s.kind]
        for a in axis:
            for b in axis:
                want = inline_scalar(s.kind, a, b).hex()  # .hex() tells -0.0 from 0.0
                assert formula(a, b).hex() == want, (s.kind, a, b)
                assert s.evaluate(a, b).hex() == want, (s.kind, a, b)
    assert set(_SCALAR_FORMULAS) == set(BUILTIN_KINDS)


BOUND_SPECIALS = (0.0, -0.0, 5e-324, 2.0**-53, 0.5, math.nextafter(0.5, 0.0), 1.0 - 2.0**-53, 1.0)


def test_every_builtin_is_at_most_min_exactly_in_floating_point():
    # integrate's early exit rests on S(a, b) <= min(a, b) holding with no tolerance
    rng = np.random.default_rng(17)
    x = rng.random(100_000)
    y = rng.random(100_000)
    y[::2] = 1.0 - rng.random(50_000) * 1e-6  # half of the pairs within 1e-6 of the neutral element
    specials = np.array(BOUND_SPECIALS)
    pa, pb = np.meshgrid(specials, specials, indexing="ij")
    a = np.concatenate((pa.ravel(), x, y))  # every random pair in both orders
    b = np.concatenate((pb.ravel(), y, x))
    bound = np.minimum(a, b)
    for s in BUILTINS:
        formula = _SCALAR_FORMULAS[s.kind]
        scalar = np.array([formula(p, q) for p, q in zip(a.tolist(), b.tolist())])
        for got in (scalar, s._evaluate_array(a, b)):
            bad = np.flatnonzero(~(got <= bound))
            assert bad.size == 0, (s.kind, a[bad[:3]].tolist(), b[bad[:3]].tolist())


def test_callable_alias():
    assert PRODUCT(0.5, 0.5) == PRODUCT.evaluate(0.5, 0.5)


# ---------------------------------------------------------------------------
# lattice invariants


def test_builtin_bounds_on_lattice():
    axis = np.linspace(0.0, 1.0, 201)
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    for s in BUILTINS:
        values = s.evaluate(grid_a, grid_b)
        assert np.all(values <= np.minimum(grid_a, grid_b) + 1e-12)
        assert np.all(np.abs(values[:, -1] - axis) <= 1e-12)  # S(a,1)=a
        assert np.all(np.abs(values[-1, :] - axis) <= 1e-12)  # S(1,b)=b
        assert np.all(np.abs(values[:, 0]) <= 1e-12)  # S(a,0)=0
        assert np.all(np.abs(values[0, :]) <= 1e-12)  # S(0,b)=0
        # non-decreasing along both axes
        assert np.all(np.diff(values, axis=0) >= -1e-12)
        assert np.all(np.diff(values, axis=1) >= -1e-12)


def test_all_builtins_validate_at_all_resolutions():
    for s in BUILTINS:
        for res in range(2, 201):
            report = validate_semicopula(s, res)
            assert report.passed, (s.kind, res, report.violations[:3])
            assert report.violation_count == 0
            assert report.resolution == res


def test_validate_product_golden():
    report = validate_semicopula(PRODUCT, 100)
    assert report.passed and report.violation_count == 0


def test_validate_lukasiewicz_golden():
    assert validate_semicopula(LUKASIEWICZ, 50).passed


def test_validate_rejects_tiny_resolution():
    with pytest.raises(DomainError):
        validate_semicopula(MIN, 1)


def test_validation_peak_memory_at_resolution_1000_holds_no_lattice_copy():
    for s in BUILTINS + (Semicopula.from_function(lambda a, b: a * b, 10),):
        tracemalloc.start()
        try:
            assert validate_semicopula(s, 1000).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1001**2 cells: 25.8 MiB over read-only broadcast views; two meshgrid copies of the lattice made it 41.1
        assert peak < 32 * 2**20, s.kind


# ---------------------------------------------------------------------------
# table candidates


def test_midpoint_table_fails_neutral():
    """The arithmetic mean has no neutral element, so validation must fail."""
    t = Semicopula.from_function(lambda a, b: (a + b) / 2.0, 10)
    report = validate_semicopula(t, 10)
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert "neutral-right" in axioms
    # T(0,1) = 0.5 where the neutral element demands 0
    witness = [v for v in report.violations if v.axiom == "neutral-right" and v.a == 0.0]
    assert witness and witness[0].observed == 0.5 and witness[0].reference == 0.0


def test_table_reproduces_lattice_nodes_exactly():
    t = Semicopula.from_function(lambda a, b: a * b * max(a, b), 4)
    for i in range(5):
        for j in range(5):
            a, b = i / 4, j / 4
            assert t.evaluate(a, b) == a * b * max(a, b)


def test_table_of_product_interpolates_exactly():
    # the product is bilinear, so bilinear interpolation reproduces it everywhere
    t = Semicopula.from_function(lambda a, b: a * b, 8)
    rng = np.random.default_rng(0)
    a = rng.random(200)
    b = rng.random(200)
    assert np.allclose(t.evaluate(a, b), a * b, atol=1e-12, rtol=0.0)


def test_table_validation_passes_for_sampled_builtin():
    t = Semicopula.from_function(lambda a, b: min(a, b), 20)
    assert validate_semicopula(t, 20).passed


@given(st.integers(min_value=1, max_value=12), unit, unit)
@settings(max_examples=50)
def test_table_interpolation_between_bounds(res, a, b):
    t = Semicopula.from_function(lambda x, y: x * y, res)
    lo = max(0.0, a * b - 0.5)  # coarse sanity envelope
    assert lo <= float(t.evaluate(a, b)) <= min(a, b) + 1e-12


def test_table_rejects_bad_grids():
    with pytest.raises(DomainError):
        Semicopula.from_grid([[0.0, 0.5, 1.0], [0.0, 1.0, 1.0]])  # not square
    with pytest.raises(DomainError):
        Semicopula.from_grid([[0.0]])  # side < 2
    with pytest.raises(DomainError):
        Semicopula.from_grid([[0.0, 0.0], [0.0, 1.5]])  # out of range
    with pytest.raises(DomainError):
        Semicopula("table", np.eye(3), resolution=7)  # resolution mismatch
    with pytest.raises(DomainError):
        Semicopula("frobnicate")
    with pytest.raises(DomainError):
        Semicopula("min", grid=np.eye(3))


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_table_resolution_must_be_an_int_even_when_it_equals_the_grid_side(bad):
    with pytest.raises(DomainError, match=f"^resolution must be an int, got {type(bad).__name__}$"):
        Semicopula("table", [[0.0, 0.0], [0.0, 1.0]], bad)
    assert Semicopula("table", [[0.0, 0.0], [0.0, 1.0]], np.int64(1)).resolution == 1


# ---------------------------------------------------------------------------
# lookup and JSON


def test_builtin_lookup():
    for kind in BUILTIN_KINDS:
        assert builtin(kind).kind == kind
    with pytest.raises(DomainError):
        builtin("median")


def test_json_round_trip_builtin():
    for s in BUILTINS:
        doc = s.to_json_dict()
        assert doc == {"kind": s.kind}
        again = parse_semicopula(doc, "/")
        assert again.kind == s.kind


def test_json_round_trip_table():
    t = Semicopula.from_function(lambda a, b: a * b, 5)
    doc = t.to_json_dict()
    assert doc["kind"] == "table" and doc["resolution"] == 5
    assert doc["grid"][1][2] == (1 / 5) * (2 / 5)  # row-major: grid[i][j] = S(i/n, j/n)
    again = parse_semicopula(doc, "/")
    rng = np.random.default_rng(1)
    pts = rng.random((2, 64))
    assert np.array_equal(t.evaluate(pts[0], pts[1]), again.evaluate(pts[0], pts[1]))


def test_axiom_tolerance_is_tight():
    assert AXIOM_TOL == 1e-12


def test_table_chunks_match_one_whole_pass(monkeypatch):
    import semint.semicopula as semicopula

    t = Semicopula.from_grid(np.random.default_rng(2).random((8, 8)))
    rng = np.random.default_rng(3)
    a, b = rng.choice([0.0, 0.5, 1.0, rng.random()], size=(2, 37, 3))
    col, row = rng.random((5, 1)), rng.random((1, 4))
    monkeypatch.setattr(semicopula, "_TABLE_EVAL_CHUNK", 1 << 30)
    whole = [t.evaluate(a, b), t.evaluate(col, row), t.evaluate(0.3, 0.7)]
    for chunk in (1, 7, 64):
        monkeypatch.setattr(semicopula, "_TABLE_EVAL_CHUNK", chunk)
        parts = [t.evaluate(a, b), t.evaluate(col, row), t.evaluate(0.3, 0.7)]
        assert [np.asarray(x).tobytes() for x in parts] == [np.asarray(x).tobytes() for x in whole]
        assert parts[0].shape == (37, 3) and parts[1].shape == (5, 4)
