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


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.2), (2.0, 2.0)])
def test_evaluate_rejects_out_of_range(bad):
    for s in BUILTINS:
        with pytest.raises(DomainError):
            s.evaluate(*bad)


def test_scalar_and_array_paths_agree():
    axis = np.linspace(0.0, 1.0, 41)
    grid_a, grid_b = np.meshgrid(axis, axis, indexing="ij")
    for s in BUILTINS:
        arr = s.evaluate(grid_a, grid_b)
        for i in range(41):
            for j in range(41):
                assert s.evaluate(float(axis[i]), float(axis[j])) == arr[i, j]


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
        again = Semicopula.from_json_dict(doc)
        assert again.kind == s.kind


def test_json_round_trip_table():
    t = Semicopula.from_function(lambda a, b: a * b, 5)
    doc = t.to_json_dict()
    assert doc["kind"] == "table" and doc["resolution"] == 5
    assert doc["grid"][1][2] == (1 / 5) * (2 / 5)  # row-major: grid[i][j] = S(i/n, j/n)
    again = Semicopula.from_json_dict(doc)
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
