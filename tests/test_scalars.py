from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bergman.scalars import ExactScalar, rat, sum_products
from oracles import FractionScalar

_coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=8)
_powers = st.integers(min_value=-3, max_value=3)
_term_lists = st.lists(st.tuples(_powers, _coeffs, _coeffs), max_size=3)


def _build(ts):
    return sum((ExactScalar.rational(re, im, k) for k, re, im in ts), ExactScalar.zero())


def scalars():
    return _term_lists.map(_build)


def _assert_canonical(x):
    """No zero entry, a positive denominator coprime to every numerator, zero over 1."""
    assert x._den > 0
    assert all(re or im for re, im in x._num.values())
    assert gcd(x._den, *(v for pair in x._num.values() for v in pair)) == 1


def _assert_agree(new, old):
    _assert_canonical(new)
    assert list(new.terms()) == list(old.terms())
    assert str(new) == str(old)
    assert new.to_json() == old.to_json()


@given(_term_lists, _term_lists, _powers, _coeffs, _coeffs)
def test_operations_agree_with_fraction_oracle(ta, tb, k, re, im):
    a, b = _build(ta), _build(tb)
    a_old = sum((FractionScalar({p: (x, y)}) for p, x, y in ta), FractionScalar())
    b_old = sum((FractionScalar({p: (x, y)}) for p, x, y in tb), FractionScalar())
    _assert_agree(a, a_old)
    _assert_agree(a + b, a_old + b_old)
    _assert_agree(a - b, a_old - b_old)
    _assert_agree(-a, -a_old)
    _assert_agree(a * b, a_old * b_old)
    _assert_agree(a.scale(re, im, k), a_old.scale(re, im, k))
    _assert_agree(a.scale(6), a_old.scale(6))
    _assert_agree(a.conjugate(), a_old.conjugate())
    assert (a == b) == (a_old == b_old)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


def _old(ts):
    return sum((FractionScalar({k: (x, y)}) for k, x, y in ts), FractionScalar())


@given(_term_lists, _term_lists)
def test_subtraction_agrees_with_fraction_oracle(ta, tb):
    """x - y, whether x == -y and whether y == +-conj(x), against the oracle,
    also for a y that cancels x to zero or in part, one over another
    denominator (y / 7), one with pi-powers disjoint from those of x (y pi^10),
    one that negates only the real or only the imaginary parts of x (+-conj(x)),
    and zero on either side."""
    cases = [(ta, tb), (ta, ta), (ta, ta + tb), (ta, [(k, x / 7, y / 7) for k, x, y in tb]),
             (ta, [(k + 10, x, y) for k, x, y in tb]), (ta, [(k, -x, y) for k, x, y in ta]),
             (ta, [(k, x, -y) for k, x, y in ta]), ([], tb), (ta, [])]
    for tx, ty in cases:
        x, y = _build(tx), _build(ty)
        _assert_agree(x - y, _old(tx) - _old(ty))
        assert x.negates(y) == (x == -y) == (_old(tx) == -_old(ty))
        conj = _old(tx).conjugate()
        assert x.conjugates(y) == (x.conjugate() == y) == (_old(ty) == conj)
        assert x.conjugates(y, -1) == x.conjugate().negates(y) == (_old(ty) == -conj)
    a = _build(ta)
    assert (a - a).is_zero()
    assert a.negates(-a) and (-a).negates(a)


@given(st.lists(st.tuples(_term_lists, _term_lists), max_size=4),
       st.integers(min_value=0, max_value=4))
def test_sum_products_agrees_with_fraction_oracle(pairs, cancel):
    """Empty term lists are zero factors; the first `cancel` pairs come back
    negated.  No pair, one pair and many pairs: one pair is the product,
    taken through its monomial and integer fast paths."""
    def old(ts):
        return sum((FractionScalar({p: (x, y)}) for p, x, y in ts), FractionScalar())

    ts = pairs + [([(k, -x, -y) for k, x, y in ta], tb) for ta, tb in pairs[:cancel]]
    ts += [([], tb) for _, tb in pairs[:1]] + [(ta, []) for ta, _ in pairs[:1]]
    got = sum_products([(_build(ta), _build(tb)) for ta, tb in ts])
    want = sum((old(ta) * old(tb) for ta, tb in ts), FractionScalar())
    _assert_agree(got, want)
    assert got == sum((_build(ta) * _build(tb) for ta, tb in ts), ExactScalar.zero())
    if cancel >= len(pairs):
        assert got == ExactScalar.zero()
    for ta, tb in ts + [(ta, [(0, Fraction(-3), Fraction(0))]) for ta, _ in pairs[:1]]:
        _assert_agree(sum_products([(_build(ta), _build(tb))]), old(ta) * old(tb))


def test_canonical_form():
    halves = [rat("2/4"), rat(1).scale(Fraction(1, 2)), rat(3, 0) * rat("1/6")]
    assert halves[0] == halves[1] == halves[2]
    assert len({hash(x) for x in halves}) == 1
    for x in halves:
        _assert_canonical(x)
    assert (rat("1/6", "1/4", 2) + rat("-1/6", "-1/4", 2)).is_zero()
    assert (rat("1/6") + rat("1/3") - rat("1/2")) == ExactScalar.zero()
    mixed = rat("1/2") + ExactScalar.pi(1, "1/3")
    _assert_canonical(mixed)
    assert ExactScalar.from_json(mixed.to_json()) == mixed
    assert str(mixed) == "1/2 + 1/3*pi"


def test_basic_arithmetic():
    a = rat("3/2", "1/4", 1)
    b = rat(-2, 0, -1)
    assert str(a + b) == "-2*pi^-1 + (3/2+1/4i)*pi"
    assert (a - a).is_zero()
    assert a * ExactScalar.one() == a
    assert a * ExactScalar.zero() == ExactScalar.zero()


def test_conjugation():
    a = rat("1/2", "1/3", 2)
    assert a.conjugate().conjugate() == a
    b = a * a.conjugate()
    assert b.conjugate() == b


def test_json_roundtrip():
    a = rat("3/7", "-1/2", -2) + rat(5, 1, 0)
    assert ExactScalar.from_json(a.to_json()) == a
    assert ExactScalar.from_json("2/3") == rat("2/3")
    assert ExactScalar.from_json(4) == rat(4)


@pytest.mark.parametrize("payload", [
    [{"pi_pow": 1.7, "re": "1", "im": "0"}],   # float pi power
    [{"pi_pow": True, "re": "1", "im": "0"}],  # bool pi power
    [{"pi_pow": 1, "re": 0.1, "im": "0"}],     # float coefficient
    [{"pi_pow": 1, "re": "1", "im": False}],   # bool coefficient
    [{"re": "1", "im": "0"}],                  # missing pi power
    ["1/2"],                                   # item that is not an object
    "1/0",
    "1e1000000",                               # exponent: a million digits
    pytest.param("1.5", id="'1.5'"),           # decimal string; 1.5 is the float
    "1_000",
    " 1 ",
    1.5,
    True,
    None,
])
def test_inexact_or_malformed_payload_is_value_error(payload):
    with pytest.raises(ValueError):
        ExactScalar.from_json(payload)


_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["pi_pow", "re", "im"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=8)


@given(_json_values)
def test_from_json_roundtrips_or_raises_value_error(payload):
    try:
        a = ExactScalar.from_json(payload)
    except ValueError:
        return
    assert ExactScalar.from_json(a.to_json()) == a


_ratio_payloads = (st.integers(-60, 60)
                   | st.integers(-60, 60).map(str)
                   | st.tuples(st.integers(-60, 60), st.integers(1, 12)).map("{0[0]}/{0[1]}".format))


@given(st.lists(st.tuples(_powers, _ratio_payloads, _ratio_payloads), max_size=4),
       _ratio_payloads)
def test_from_json_agrees_with_fraction_parsing(items, single):
    """Unreduced p/q strings, ints and repeated pi powers read as `Fraction` reads them."""
    payload = [{"pi_pow": k, "re": re, "im": im} for k, re, im in items]
    want = sum((FractionScalar({k: (Fraction(re), Fraction(im))}) for k, re, im in items),
               FractionScalar())
    _assert_agree(ExactScalar.from_json(payload), want)
    _assert_agree(ExactScalar.from_json(single), FractionScalar({0: (Fraction(single), 0)}))


_parts = _ratio_payloads | _coeffs


@given(_parts, _parts, _powers, _parts, _parts)
def test_rational_constructors_agree_with_fraction_oracle(re, im, k, re2, im2):
    """`rational`, `rat`, `pi` and `scale` on int, `Fraction` and "p" / "p/q"
    string parts, unreduced, negative and zero-numerator ones included."""
    want = FractionScalar({k: (Fraction(re), Fraction(im))})
    _assert_agree(ExactScalar.rational(re, im, k), want)
    _assert_agree(rat(re, im, k), want)
    _assert_agree(ExactScalar.pi(k, re), FractionScalar({k: (Fraction(re), 0)}))
    x, x_old = rat(re2, im2), FractionScalar({0: (Fraction(re2), Fraction(im2))})
    _assert_agree(x.scale(re, im, k), x_old.scale(re, im, k))


@pytest.mark.parametrize("part", [
    pytest.param("1.5", id="'1.5'"), pytest.param(" 1/2", id="' 1/2'"), "1/0", 0.5, True,
])
def test_rational_constructors_refuse_inexact_parts(part):
    for make in (lambda: ExactScalar.rational(part), lambda: rat(0, part),
                 lambda: ExactScalar.pi(1, part), lambda: rat(1).scale(0, part)):
        with pytest.raises(ValueError):
            make()


def test_string_forms():
    assert str(ExactScalar.zero()) == "0"
    assert str(ExactScalar.pi(1)) == "pi"
    assert str(ExactScalar.pi(2, -1)) == "-pi^2"
    assert str(rat(0, 1)) == "i"


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ExactScalar.zero()


@given(scalars(), scalars())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(scalars())
def test_json_is_faithful(a):
    assert ExactScalar.from_json(a.to_json()) == a
