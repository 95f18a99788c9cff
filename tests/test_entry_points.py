"""Every public entry point that reads a caller's numbers refuses a value that is not one with a named error."""

from fractions import Fraction

import numpy as np
import pytest

from semint import (
    MIN,
    Capacity,
    DomainError,
    FiniteSpace,
    FnSequence,
    MeasurableFn,
    SemintError,
    Semicopula,
    check_in_capacity,
    check_in_mean,
    check_strict,
    counterexample_constant,
    distinct_values,
    integrate,
    integrate_grid_oracle,
    level_set,
    random_audit,
    random_capacity,
    random_strict_sequence,
    residual,
    strict_support,
    survival,
    sugeno,
    theorem1_audit,
    theorem2_audit,
    validate_semicopula,
    validate_table,
)

SPACE = FiniteSpace(2)
UNIFORM = Capacity.from_additive(SPACE, [0.5, 0.5])
F = MeasurableFn(SPACE, [0.25, 0.5])
SEQ = counterexample_constant(SPACE, "1/n", 4)
TABLE = Semicopula.from_grid([[0.0, 0.0], [0.0, 1.0]])

# entry point -> call with the one number the caller passes set to x; the arrays the constructors, the builders,
# validate_table and evaluate read are fed the same values in test_capacity.py and test_semicopula.py
ENTRY_POINTS = {
    "evaluate-first": lambda x: MIN.evaluate(x, 0.5),
    "evaluate-second": lambda x: MIN.evaluate(0.5, x),
    "evaluate-table": lambda x: TABLE.evaluate(x, 0.5),
    "level_set": lambda x: level_set(F, x),
    "survival": lambda x: survival(UNIFORM, F, x),
    "MeasurableFn.constant": lambda x: MeasurableFn.constant(SPACE, x),
    "check_in_capacity-t_grid": lambda x: check_in_capacity(UNIFORM, SEQ, [x]),
    "check_in_capacity-epsilon": lambda x: check_in_capacity(UNIFORM, SEQ, epsilon=x),
    "check_strict-epsilon": lambda x: check_strict(UNIFORM, SEQ, x),
    "check_in_mean-epsilon": lambda x: check_in_mean(MIN, UNIFORM, SEQ, x),
    "counterexample_constant-rate": lambda x: counterexample_constant(SPACE, lambda n: x, 3),
}

# an int too large for a double, numeric text, other text, and an object that is not a number
NOT_NUMBERS = {"huge-int": 10**400, "numeric-text": "0.5", "text": "x", "dict": {}}


@pytest.mark.parametrize("bad", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_numeric_entry_point_refuses_what_is_not_a_number_with_a_named_error(call, bad):
    # pytest.raises lets any other exception through, so a bare OverflowError or TypeError fails the test
    with pytest.raises(SemintError):
        call(bad)


def test_the_valid_calls_pass():
    # the same calls with a number each: only the bad value makes the calls above fail
    for name, call in ENTRY_POINTS.items():
        if name != "counterexample_constant-rate":  # a constant rate does not vanish over the horizon
            call(0.5)


@pytest.mark.parametrize(
    "values",
    [[Fraction(1, 2), "0.5"], np.array(["0.5", 0.25], dtype=object), [0.5, b"0.5"], np.array([0.5 + 0j, 0.25])],
    ids=["text-among-objects", "object-array", "bytes", "complex"],
)
def test_text_or_complex_numbers_anywhere_in_an_array_are_refused(values):
    # numpy would parse the text and drop the imaginary part; numbers in an object array are still read
    with pytest.raises(DomainError, match="function values must be a regular array of numbers"):
        MeasurableFn(SPACE, values)
    assert MeasurableFn(SPACE, [Fraction(1, 2), 0.25]).values.tolist() == [0.5, 0.25]


@pytest.mark.parametrize(
    "terms, limit", [(([0.5, 0.5],), F), ((F,), [0.5, 0.5]), ((F, None), F)], ids=["term", "limit", "none"]
)
def test_a_sequence_of_objects_that_are_not_functions_is_a_domain_error(terms, limit):
    with pytest.raises(DomainError, match="sequence terms and limit must be MeasurableFn objects"):
        FnSequence(SPACE, terms, limit)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: level_set(F, "x"), "threshold must be a number a double can hold, got str"),
        (lambda: check_strict(UNIFORM, SEQ, epsilon={}), "epsilon must be a number a double can hold, got dict"),
        (lambda: MeasurableFn.constant(SPACE, 10**400), "function value must be a number a double can hold, got int"),
    ],
    ids=["text", "dict", "huge-int"],
)
def test_a_scalar_that_is_not_a_number_is_named_as_one(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


RNG = np.random.default_rng(0)
TABLE_VALUES = [0.0, 0.5, 0.5, 1.0]

# entry point -> (call with one library object replaced by a value of another type, the DomainError's message)
WRONG_OBJECTS = {
    "integrate-f-list": (lambda: integrate(MIN, UNIFORM, [0.5, 0.25]), "f must be a MeasurableFn, got list"),
    "integrate-f-capacity": (lambda: integrate(MIN, UNIFORM, UNIFORM), "f must be a MeasurableFn, got Capacity"),
    "integrate-f-sequence": (lambda: integrate(MIN, UNIFORM, SEQ), "f must be a MeasurableFn, got FnSequence"),
    "integrate-s": (lambda: integrate("min", UNIFORM, F), "s must be a Semicopula, got str"),
    "integrate-c": (lambda: integrate(MIN, F, F), "c must be a Capacity, got MeasurableFn"),
    "sugeno-f": (lambda: sugeno(UNIFORM, [0.5, 0.25]), "f must be a MeasurableFn, got list"),
    "integrate_grid_oracle-f": (
        lambda: integrate_grid_oracle(MIN, UNIFORM, [0.5, 0.25], 10),
        "f must be a MeasurableFn, got list",
    ),
    "integrate_grid_oracle-s": (lambda: integrate_grid_oracle("min", UNIFORM, F, 10), "s must be a Semicopula, got str"),
    "residual-f": (lambda: residual([0.5, 0.25], F), "f must be a MeasurableFn, got list"),
    "residual-g": (lambda: residual(F, SEQ), "g must be a MeasurableFn, got FnSequence"),
    "level_set": (lambda: level_set([0.5, 0.25], 0.5), "f must be a MeasurableFn, got list"),
    "survival-f": (lambda: survival(UNIFORM, [0.5, 0.25], 0.5), "f must be a MeasurableFn, got list"),
    "survival-c": (lambda: survival(TABLE_VALUES, F, 0.5), "c must be a Capacity, got list"),
    "strict_support": (lambda: strict_support([0.5, 0.25]), "f must be a MeasurableFn, got list"),
    "distinct_values": (lambda: distinct_values([0.5, 0.25]), "f must be a MeasurableFn, got list"),
    "check_strict-c": (lambda: check_strict(TABLE_VALUES, SEQ), "c must be a Capacity, got list"),
    "check_in_capacity-seq": (lambda: check_in_capacity(UNIFORM, (F,)), "seq must be a FnSequence, got tuple"),
    "check_in_mean-s": (lambda: check_in_mean("min", UNIFORM, SEQ), "s must be a Semicopula, got str"),
    "theorem1_audit-c": (lambda: theorem1_audit(TABLE_VALUES, SEQ), "c must be a Capacity, got list"),
    "theorem2_audit-s": (lambda: theorem2_audit("min", UNIFORM, SEQ), "s must be a Semicopula, got str"),
    "random_audit-s": (lambda: random_audit(SPACE, ["min"], 1, 1), "s must be a Semicopula, got str"),
    "random_audit-s-no-cases": (lambda: random_audit(SPACE, ["min"], 0, 1), "s must be a Semicopula, got str"),
    "random_audit-semicopulas": (
        lambda: random_audit(SPACE, MIN, 1, 1),
        "semicopulas must be an iterable of Semicopula, got Semicopula",
    ),
    "random_audit-semicopulas-no-cases": (
        lambda: random_audit(SPACE, MIN, 0, 1),
        "semicopulas must be an iterable of Semicopula, got Semicopula",
    ),
    "validate_semicopula-s": (lambda: validate_semicopula("min", 10), "s must be a Semicopula, got str"),
    "from_distortion-base": (
        lambda: Capacity.from_distortion(TABLE_VALUES, [0.0, 1.0]),
        "base must be a Capacity, got list",
    ),
    "random_capacity-rng": (lambda: random_capacity(SPACE, 3), "rng must be a Generator, got int"),
    "random_capacity-space": (lambda: random_capacity(2, RNG), "space must be a FiniteSpace, got int"),
    "random_strict_sequence-rng": (
        lambda: random_strict_sequence(SPACE, UNIFORM, 4, 3),
        "rng must be a Generator, got int",
    ),
    "Capacity-space": (lambda: Capacity(2, TABLE_VALUES), "space must be a FiniteSpace, got int"),
    "validate_table-space": (lambda: validate_table(2, TABLE_VALUES), "space must be a FiniteSpace, got int"),
    "from_additive-space": (lambda: Capacity.from_additive(2, [0.5, 0.5]), "space must be a FiniteSpace, got int"),
    "from_possibility-space": (
        lambda: Capacity.from_possibility(2, [1.0, 0.5]),
        "space must be a FiniteSpace, got int",
    ),
    "MeasurableFn-space": (lambda: MeasurableFn(2, [0.5, 0.5]), "space must be a FiniteSpace, got int"),
    "MeasurableFn.constant-space": (lambda: MeasurableFn.constant(2, 0.5), "space must be a FiniteSpace, got int"),
    "MeasurableFn.indicator-space": (lambda: MeasurableFn.indicator(2, 1), "space must be a FiniteSpace, got int"),
    "FnSequence-space": (lambda: FnSequence(2, (F,), F), "space must be a FiniteSpace, got int"),
    "FnSequence-terms": (lambda: FnSequence(SPACE, F, F), "terms must be an iterable of MeasurableFn, got MeasurableFn"),
}


@pytest.mark.parametrize("call, message", WRONG_OBJECTS.values(), ids=WRONG_OBJECTS.keys())
def test_a_library_object_of_another_type_is_a_domain_error_naming_the_expected_type(call, message):
    # pytest.raises lets any other exception through, so a bare AttributeError fails the test
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
    assert err.value.__suppress_context__  # no AttributeError shown behind the named error
