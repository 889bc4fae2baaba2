"""Exact surd arithmetic: q*sqrt(r) values used by the boost transforms."""

import math
import operator
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from causetkit.exact import Surd, sqrt_exact

nonzero_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
).filter(lambda q: q != 0)
positive_rationals = st.fractions(
    min_value=Fraction(1, 40), max_value=Fraction(50), max_denominator=40
)

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]
COMPARISONS = ORDERINGS + [operator.eq, operator.ne]


class TestConstruction:
    def test_perfect_square_folds_to_rational(self):
        assert sqrt_exact(Fraction(4)) == 2
        assert sqrt_exact(Fraction(9, 16)) == Fraction(3, 4)
        assert sqrt_exact(Fraction(9, 16)).is_rational

    def test_irrational_radicand_kept(self):
        s = sqrt_exact(2)
        assert not s.is_rational
        assert s.squared() == 2

    def test_zero(self):
        assert Surd(0, 5) == 0
        assert not Surd(0)
        assert Surd(0, 0) == 0
        assert Surd(0, 0).radicand == 1
        assert sqrt_exact(0) == Surd(0)

    def test_str(self):
        assert str(Surd(3)) == "3"
        assert str(sqrt_exact(2)) == "sqrt(2)"
        assert str(Surd(Fraction(3, 2), 2)) == "(3/2)*sqrt(2)"

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            Surd(1, -2)

    def test_sqrt_of_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_exact(-1)

    def test_immutable(self):
        s = sqrt_exact(2)
        with pytest.raises(AttributeError):
            s.coeff = Fraction(3)

    def test_float_value(self):
        assert math.isclose(float(sqrt_exact(2)), math.sqrt(2), rel_tol=1e-15)

    @pytest.mark.parametrize("surd, value", [
        (Surd(Fraction(1, 10**300), 2 * 10**400), math.sqrt(2) * 1e-100),
        (Surd(10**300, Fraction(1, 2 * 10**400)), 1e100 / math.sqrt(2)),
        (Surd(10**100, Fraction(2, 10**700)), math.sqrt(2) * 1e-250),
        (Surd(Fraction(1, 10**100), 2 * 10**700), math.sqrt(2) * 1e250),
        (Surd(10**200, Fraction(1, 3)), 1e200 / math.sqrt(3)),
        (Surd(Fraction(1, 10**400)), 0.0),
    ], ids=["1e-300*sqrt(2e400)", "1e300*sqrt(5e-401)", "1e100*sqrt(2e-700)",
            "1e-100*sqrt(2e700)", "1e200*sqrt(1/3)", "1e-400"])
    def test_float_in_range_whatever_its_parts(self, surd, value):
        # the coefficient or the radicand alone is past the float range, at
        # either end, where a product of their floats gave 0.0 or raised
        assert math.isclose(float(surd), value, rel_tol=1e-15)

    @pytest.mark.parametrize("surd", [Surd(10**400), Surd(10**200, 2 * 10**300),
                                      -sqrt_exact(2 * 10**700)],
                             ids=["1e400", "1e200*sqrt(2e300)", "-sqrt(2e700)"])
    def test_float_past_the_range_overflows(self, surd):
        # as a product of two floats 1e200*sqrt(2e300) was inf, not an error
        with pytest.raises(OverflowError):
            float(surd)


class TestArithmetic:
    def test_boost_and_inverse_cancel_exactly(self):
        boost = sqrt_exact(Fraction(7, 3))
        assert boost * (1 / boost) == 1
        assert (Fraction(5, 2) * boost) * (Fraction(4, 9) / boost) == Fraction(10, 9)

    def test_addition_same_radicand(self):
        assert sqrt_exact(2) + sqrt_exact(2) == Surd(2, 2)

    def test_addition_commensurable_radicands(self):
        # sqrt(8) == 2*sqrt(2)
        assert sqrt_exact(8) + sqrt_exact(2) == Surd(3, 2)

    def test_addition_incommensurable_raises(self):
        with pytest.raises(ValueError):
            sqrt_exact(2) + sqrt_exact(3)

    def test_add_rational_to_irrational_raises(self):
        with pytest.raises(ValueError):
            sqrt_exact(2) + 1

    def test_pow(self):
        s = Surd(Fraction(3, 2), 5)
        assert s**2 == Fraction(45, 4)
        assert s**3 == Surd(Fraction(135, 8), 5)
        assert s**0 == 1
        assert s**-1 * s == 1
        with pytest.raises(TypeError):
            Surd(2) ** 0.5

    def test_division(self):
        assert sqrt_exact(18) / sqrt_exact(2) == 3
        assert 1 / sqrt_exact(4) == Fraction(1, 2)

    def test_float_mixing_degrades_to_float(self):
        assert isinstance(sqrt_exact(2) * 1.5, float)
        assert isinstance(1.5 + sqrt_exact(2), float)

    def test_subtraction(self):
        assert sqrt_exact(8) - sqrt_exact(2) == sqrt_exact(2)


class TestOrdering:
    def test_equal_values_in_different_forms(self):
        assert Surd(Fraction(1, 2), 8) == sqrt_exact(2)
        assert hash(Surd(Fraction(1, 2), 8)) == hash(sqrt_exact(2))

    def test_rational_surd_hash_matches_fraction(self):
        assert hash(Surd(Fraction(3, 4))) == hash(Fraction(3, 4))

    def test_irrational_never_equals_rational(self):
        assert sqrt_exact(2) != Fraction(141421356, 100000000)

    def test_float_equality_is_exact(self):
        assert sqrt_exact(2) != float(sqrt_exact(2))
        assert Surd(Fraction(3, 4)) == 0.75
        assert Surd(Fraction(1, 3)) != 1 / 3
        assert 1 / 3 < Surd(Fraction(1, 3)) < 1 / 3 + 1e-16  # the float rounds down
        assert Surd(0) == -0.0
        assert sqrt_exact(2) != math.nan and sqrt_exact(2) != math.inf

    def test_comparisons(self):
        assert sqrt_exact(2) < sqrt_exact(3)
        assert -sqrt_exact(3) < -sqrt_exact(2)
        assert sqrt_exact(2) < 2
        assert sqrt_exact(2) > 1
        assert abs(-sqrt_exact(2)) == sqrt_exact(2)

    @pytest.mark.parametrize("other", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize(
        "surd",
        [Surd(10**400), -Surd(10**400), sqrt_exact(2) * 10**400, -sqrt_exact(2) * 10**400],
        ids=["big", "-big", "big-irrational", "-big-irrational"],
    )
    def test_non_finite_floats_compare_as_with_any_finite_number(self, surd, other):
        # float(surd) would overflow; a Surd is finite, as 0 is, whatever its size
        for op in COMPARISONS:
            assert op(surd, other) is op(0, other)
            assert op(other, surd) is op(other, 0)

    def test_an_operand_it_cannot_take_answers_for_itself(self):
        class Top:
            """Orders itself above every other operand."""

            def __gt__(self, other):
                return True

            def __lt__(self, other):
                return False

            __ge__, __le__ = __gt__, __lt__

        for surd in (Surd(1), sqrt_exact(2), -Surd(10**400)):
            assert surd < Top() and surd <= Top() and surd != Top()
            assert not (surd > Top() or surd >= Top() or surd == Top())


@given(q=nonzero_rationals, r=positive_rationals)
def test_square_is_exact(q, r):
    s = Surd(q, r)
    assert s.squared() == q * q * r
    assert s * s == q * q * r


@given(m=positive_rationals, n=positive_rationals)
def test_boost_product_invariance(m, n):
    # sqrt(m/n) * sqrt(n/m) == 1 exactly, the engine behind pair-transform invariance
    assert sqrt_exact(m / n) * sqrt_exact(n / m) == 1


@given(q=nonzero_rationals, r=positive_rationals)
def test_ordering_consistent_with_float(q, r):
    s = Surd(q, r)
    t = Surd(q + 1, r)
    assert (s < t) == (float(s) < float(t))


# n/d * 2**e over most of the float range and past both of its ends
wide_rationals = st.builds(
    lambda n, d, e: Fraction(n, d) * Fraction(2) ** e,
    st.integers(-(10**20), 10**20), st.integers(1, 10**20), st.integers(-1100, 1100),
)


@given(coeff=wide_rationals, radicand=wide_rationals.filter(lambda r: r > 0))
# 1/15 * sqrt(1/49) is the Surd 1/105; 2**-1012/1809 is a subnormal float
@example(coeff=Fraction(1, 15), radicand=Fraction(1, 49))
@example(coeff=Fraction(1), radicand=Fraction(1, 1809) * Fraction(2) ** -1012)
def test_float_is_the_plain_formula_where_that_is_normal(coeff, radicand):
    # float(Surd) was float(s.coeff) * sqrt(float(s.radicand)) of the Surd's own
    # parts; where each float of that formula is normal, float(s.radicand)
    # among them, the scaled formula gives the same bits
    surd = Surd(coeff, radicand)
    try:
        parts = [float(surd.coeff), float(surd.radicand)]
    except OverflowError:
        assume(False)
    root = math.sqrt(parts[1])
    reference = parts[0] * root
    normal = [sys.float_info.min <= abs(x) < math.inf for x in [*parts, root, reference]]
    assume(surd.coeff == 0 or all(normal))
    assert float(surd).hex() == reference.hex()


NUMBER_FORMS = ["surd", "surd-other-form", "float", "fraction", "int", "nan", "inf"]


def number_form(kind: str, num: int, den: int, radicand: int):
    """The value (num/den)*sqrt(radicand) as one number type, rounded where it must be."""
    value = Surd(Fraction(num, den), radicand)
    if kind == "surd":
        return value
    if kind == "surd-other-form":
        return Surd(Fraction(num, 2 * den), 4 * radicand)
    if kind == "float":
        return float(value)
    if kind == "fraction":
        return value.coeff if value.is_rational else Fraction(float(value))
    if kind == "int":
        return round(float(value))
    return float(kind)


@given(
    value=st.tuples(
        st.integers(-40, 40), st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3, 4, 9])
    ),
    kinds=st.tuples(st.sampled_from(NUMBER_FORMS), st.sampled_from(NUMBER_FORMS)),
)
@example(value=(1, 1, 2), kinds=("surd", "float"))  # sqrt(2) against its rounded float
def test_equal_numbers_hash_alike_and_order_exactly(value, kinds):
    a, b = (number_form(kind, *value) for kind in kinds)
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)
    if a == a and b == b:  # no NaN: exactly one order holds, as for int and Fraction
        assert [a < b, a == b, a > b].count(True) == 1
        assert (a <= b) == (a < b or a == b) and (a >= b) == (a > b or a == b)


def test_half_is_defined_once_in_exact():
    from causetkit import exact, kinematics, quantify

    assert kinematics.HALF is quantify.HALF is exact.HALF == Fraction(1, 2)


@st.composite
def operands(draw, kinds, radicand):
    """A number of one of `kinds` and its exact value as (c, e), the value
    c*sqrt(radicand)**e; a Surd is built over a square multiple of radicand**e."""
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        value = draw(st.integers(-30, 30))
        return value, (Fraction(value), 0)
    if kind == "fraction":
        value = draw(nonzero_rationals | st.just(Fraction(0)))
        return value, (value, 0)
    if kind == "float":
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        return value, (Fraction(value), 0)
    c = draw(nonzero_rationals | st.just(Fraction(0)))
    e = draw(st.sampled_from([0, 1]))
    k = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]))
    return Surd(c / k, k * k * radicand**e), (c, e)


def exact_arithmetic(op, x, y, radicand):
    """(c, e) of x op y, each given as (c, e); raises where exact arithmetic must."""
    (a, e), (b, f) = x, y
    if op in (operator.add, operator.sub):
        b = b if op is operator.add else -b
        if a == 0 or b == 0:
            return (b, f) if a == 0 else (a, e)
        if e != f:
            raise ValueError("incommensurable")
        return a + b, e
    if op is operator.mul:
        return a * b * radicand ** (e & f), e ^ f
    return a / b / radicand ** (f & (1 - e)), e ^ f


def exact_sign(x, y, radicand):
    """The sign of x - y, each given as (c, e)."""
    (a, e), (b, f) = x, y
    if e == f:
        return (a > b) - (a < b)
    s, t = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if s != t:
        return (s > t) - (s < t)
    # one rational, one irrational, one sign: the larger square is further from zero
    left, right = a * a * radicand**e, b * b * radicand**f
    return ((left > right) - (left < right)) * s


def outcome(compute):
    try:
        return compute()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@given(radicand=st.sampled_from([2, 3, 5]), data=st.data())
def test_operator_table(radicand, data):
    # a Surd with a Surd, int, Fraction or finite float on either side: an exact
    # result equals the Fraction reference, a float one has the float reference's bits
    x = data.draw(operands(["surd"], radicand))
    y = data.draw(operands(["surd", "int", "fraction", "float"], radicand))
    for (a, a_exact), (b, b_exact) in (x, y), (y, x):
        floats = isinstance(a, float) or isinstance(b, float)
        for op in ARITHMETIC:
            got = outcome(lambda: op(a, b))
            if floats:
                expected = outcome(lambda: op(float(a), float(b)))
                if isinstance(expected, float):
                    assert type(got) is float
                    assert struct.pack("<d", got) == struct.pack("<d", expected)
                else:
                    assert got is expected
                continue
            expected = outcome(lambda: exact_arithmetic(op, a_exact, b_exact, radicand))
            if not isinstance(expected, tuple):
                assert got is expected
                continue
            c, e = expected
            assert type(got) is Surd
            assert got.squared() == c * c * radicand**e
            assert (got.coeff > 0) - (got.coeff < 0) == (c > 0) - (c < 0)
            if op in (operator.add, operator.sub) and c != 0:
                # a sum keeps its right operand's radicand, or its left one's if the right is 0
                kept = a if b_exact[0] == 0 else b
                assert got.radicand == (kept.radicand if isinstance(kept, Surd) else 1)
        sign = exact_sign(a_exact, b_exact, radicand)
        for op in ORDERINGS:
            assert op(a, b) is op(sign, 0)


@pytest.mark.parametrize("other", ["x", Decimal("1.5"), 1j, None], ids=repr)
@pytest.mark.parametrize("op", ARITHMETIC + ORDERINGS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("surd", [Surd(0), Surd(Fraction(3, 2)), sqrt_exact(2)], ids=repr)
def test_unsupported_operands_raise_type_error(surd, op, other):
    # Surd leaves the operand to its reflected method, so an ordering raises Python's own error
    message = "not supported between instances of" if op in ORDERINGS else None
    with pytest.raises(TypeError, match=message):
        op(surd, other)
    with pytest.raises(TypeError, match=message):
        op(other, surd)


def test_division_by_zero_names_the_surd():
    for divide in (lambda: Surd(1) / 0, lambda: sqrt_exact(2) / Fraction(0), lambda: 1 / Surd(0)):
        with pytest.raises(ZeroDivisionError, match="^division by zero surd$"):
            divide()
