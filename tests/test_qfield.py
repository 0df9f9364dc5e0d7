import operator
import random
from fractions import Fraction

import pytest

from oracles import complex_value
from klein336.qfield import (
    ALPHA,
    ALPHA_BAR,
    ONE,
    QNum,
    hermitian,
    vec3,
)

# i*sqrt(7) = 2w - 1
I_SQRT7 = QNum(-1, 2)


def rand_qnum(rng, max_num=1000, max_den=40):
    return QNum(
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)),
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)),
    )


def test_minimal_polynomial():
    assert ALPHA * ALPHA == QNum(-2, 1)
    assert ALPHA * (ONE - ALPHA) == QNum(2)
    assert ALPHA + ALPHA.conj() == ONE
    assert ALPHA_BAR == ALPHA.conj()


def test_product_reduction_by_hand():
    # (1 + w)^2 = 1 + 2w + w^2; substituting w^2 = w - 2 by hand gives -1 + 3w.
    x1, y1 = Fraction(1), Fraction(1)
    sq_x = x1 * x1  # coefficient of 1 before reduction
    sq_w = 2 * x1 * y1  ## coefficient of w before reduction
    sq_ww = y1 * y1  # coefficient of w^2
    expected = QNum(sq_x - 2 * sq_ww, sq_w + sq_ww)
    assert QNum(1, 1) * QNum(1, 1) == expected
    assert expected == QNum(-1, 3)


def test_inverse_examples():
    assert QNum(2).inv() == QNum(Fraction(1, 2))
    assert ALPHA.inv() == QNum(Fraction(1, 2), Fraction(-1, 2))
    inv = QNum(1, 1).inv()
    assert inv * QNum(1, 1) == ONE
    assert inv == QNum(Fraction(2, 4), Fraction(-1, 4))
    with pytest.raises(ZeroDivisionError):
        QNum(0).inv()


def test_i_sqrt7_constant():
    # (2w - 1)^2 = -7
    assert I_SQRT7 * I_SQRT7 == QNum(-7)
    assert abs(complex_value(I_SQRT7) - complex(0, 7 ** 0.5)) < 1e-12


def test_hermitian_examples():
    e1 = vec3(0, ALPHA, ALPHA)
    e2 = vec3(2, 0, 0)
    e3 = vec3(0, 0, 2)
    assert hermitian(e1, e1) == QNum(2)
    assert hermitian(e2, e2) == QNum(2)
    assert hermitian(e2, e3) == QNum(0)
    # conjugate symmetry
    x = vec3(QNum(1, 2), QNum(0, -1), QNum(3))
    y = vec3(QNum(-2, 1), QNum(5, 5), ALPHA)
    assert hermitian(x, y) == hermitian(y, x).conj()


def test_field_axioms_randomized():
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (rand_qnum(rng, 50, 10) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inv() == ONE
    assert QNum(0) + QNum(0) == QNum(0)


def test_conj_is_ring_involution():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rand_qnum(rng), rand_qnum(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_norm_multiplicative_and_positive():
    rng = random.Random(2)
    for _ in range(300):
        a, b = rand_qnum(rng), rand_qnum(rng)
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.norm() >= 0
        assert (a.norm() == 0) == (not a)
        assert a * a.conj() == QNum(a.norm())


def test_float_embedding_consistency():
    rng = random.Random(3)
    for _ in range(300):
        a, b = rand_qnum(rng, 1000, 1), rand_qnum(rng, 1000, 1)
        direct = complex_value(a * b)
        indirect = complex_value(a) * complex_value(b)
        assert abs(direct - indirect) < 1e-12 * max(1.0, abs(direct))


def test_wire_format():
    cases = {
        QNum(0): "0",
        QNum(2): "2",
        QNum(Fraction(-1, 2)): "-1/2",
        ALPHA: "w",
        -ALPHA: "-w",
        QNum(0, Fraction(1, 2)): "1/2*w",
        QNum(Fraction(1, 2), Fraction(-1, 2)): "1/2-1/2*w",
        QNum(-3, 7): "-3+7*w",
        QNum(Fraction(2, 3), Fraction(-5, 6)): "2/3-5/6*w",
    }
    for value, text in cases.items():
        assert str(value) == text
        assert QNum.parse(text) == value


@pytest.mark.parametrize("text", ["+", "1+", "1++w", "--1", "w-", "-", "1+-w", "+*w"])
def test_parse_rejects_malformed_literals(text):
    with pytest.raises(ValueError):
        QNum.parse(text)


def test_parse_accepts_well_formed_sums():
    assert QNum.parse("w+w") == QNum(0, 2)
    assert QNum.parse("1+w-1") == ALPHA
    assert QNum.parse(" -1/2 + 3/4*w ") == QNum(Fraction(-1, 2), Fraction(3, 4))


def test_wire_format_roundtrip_randomized():
    rng = random.Random(4)
    for _ in range(500):
        a = rand_qnum(rng)
        assert QNum.parse(str(a)) == a



@pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "w"])
def test_arithmetic_and_equality_take_qnum_operands_only(other):
    # int and Fraction values are written QNum(x); no operator mixes them in
    a = QNum(Fraction(1, 2), 3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)
    assert a != other and other != a
    assert QNum(1) != 1 and QNum(Fraction(1, 2)) != Fraction(1, 2)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: vec3(1, 0, "w"), TypeError, "cannot interpret 'w' as a field element"),
        (lambda: setattr(ONE, "a", 2), AttributeError, "QNum is immutable"),
    ],
    ids=["string-coordinate", "immutable"],
)
def test_qnum_guards(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
