import random
from fractions import Fraction

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complex_matrix, evaluate, qnum_act
from klein336.group import R1, R2, R3
from klein336.linalg import IDENTITY3, Mat3
from klein336.qfield import QNum
from klein336.quartic import (
    QuarticForm,
    act,
    degree4_monomials,
    fixes_form,
    int6_fixes_form,
    klein_quartic,
    substitute,
    verify_quartic_invariance,
)


def test_monomial_order():
    monos = degree4_monomials()
    assert len(monos) == 15
    assert monos[0] == (4, 0, 0)
    assert monos[-1] == (0, 0, 4)
    assert len(set(monos)) == 15


def test_act_identity_and_minus_identity():
    f = klein_quartic()
    assert act(IDENTITY3, f) == f
    assert act(-IDENTITY3, f) == f  # even degree


def test_act_r2_fixes_quartic_with_float_oracle():
    f = klein_quartic()
    g = act(R2, f)
    assert g == f
    # float oracle: evaluate both forms at random complex points
    rng = random.Random(40)
    for _ in range(20):
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        m = complex_matrix(R2)
        mv = [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]
        assert abs(evaluate(f, *mv) - evaluate(f, *v)) < 1e-9


def test_act_is_right_action(group):
    rng = random.Random(41)
    f = klein_quartic()
    for _ in range(20):
        a = group.elements[rng.randrange(group.size)].mat
        b = group.elements[rng.randrange(group.size)].mat
        assert act(a * b, f) == act(b, act(a, f))


def test_non_group_matrix_breaks_invariance():
    f = klein_quartic()
    shear = Mat3([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert act(shear, f) != f
    swapped_sign = Mat3([[QNum(0, 1), 0, 0], [0, 1, 0], [0, 0, 1]])
    assert act(swapped_sign, f) != f


def test_generators_preserve_quartic(group):
    assert verify_quartic_invariance(group, generators_only=True)
    f = klein_quartic()
    for m in (R1, R2, R3):
        assert act(m, f) == f


def test_all_336_elements_preserve_quartic(group):
    assert verify_quartic_invariance(group)


def test_act_matches_qnum_oracle_on_the_group(group):
    f = klein_quartic()
    for el in group.elements:
        assert act(el.mat, f) == qnum_act(el.mat, f) == f


def _forms_of(pairs, scale) -> list[QuarticForm]:
    """The forms that the rows of a ``substitute`` result stand for."""
    return [
        QuarticForm({
            mono: QNum.from_ints(a, b, scale)
            for mono, (a, b) in zip(degree4_monomials(), row)
        })
        for row in pairs.tolist()
    ]


def test_batched_substitution_matches_qnum_oracle_on_the_group(group):
    f = klein_quartic()
    mats = [el.mat for el in group.elements]
    pairs, scale = substitute(mats, f)
    assert pairs.shape == (336, 15, 2) and pairs.dtype == np.int64
    assert _forms_of(pairs, scale) == [qnum_act(m, f) for m in mats] == [f] * 336


def test_invariance_check_rejects_forms_and_matrices(group):
    mats = [el.mat for el in group.elements]
    f = klein_quartic()
    assert fixes_form(mats, f)
    # a form the group does not fix: one coefficient changed
    bent = QuarticForm({**f.coeffs, (4, 0, 0): QNum(2)})
    assert not fixes_form(mats, bent)
    assert not fixes_form(mats, QuarticForm({(1, 1, 2): QNum(1)}))
    # one matrix outside the group among the 336
    shear = Mat3([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert not fixes_form(mats + [shear], f)
    assert not fixes_form([shear], f)
    assert not fixes_form(mats[:100] + [Mat3([[2, 0, 0], [0, 2, 0], [0, 0, 2]])] + mats[100:], f)


def test_int6_check_matches_fixes_form(group):
    stack = group.int6_stack
    mats = [el.mat for el in group.elements]
    f = klein_quartic()
    assert int6_fixes_form(stack, f) and fixes_form(mats, f)
    for form in (QuarticForm({(4, 0, 0): QNum(1)}), QuarticForm({**f.coeffs, (0, 2, 2): QNum(1)})):
        assert not int6_fixes_form(stack, form) and not fixes_form(mats, form)
        # element by element, the answers differ and agree
        each = [int6_fixes_form(stack[i : i + 1], form) for i in range(group.size)]
        assert each == [fixes_form([m], form) for m in mats]
        assert 0 < sum(each) < group.size
    # one integer matrix changed among the 336
    bent = stack.copy()
    bent[5, 0, 1] += 1
    assert not int6_fixes_form(bent, f)
    assert verify_quartic_invariance(group) and verify_quartic_invariance(group, True)


def test_large_entries_take_the_object_path(group):
    f = klein_quartic()
    big = Mat3([
        [QNum(2**40 + 3, 5), 1, QNum(0, 2**40)],
        [0, QNum(7, 2**39 + 1), 1],
        [QNum(-(2**40), 2**40 - 1), 1, QNum(3, 2)],
    ])
    pairs, scale = substitute([big], f)
    assert pairs.dtype == object
    assert _forms_of(pairs, scale) == [act(big, f)] == [qnum_act(big, f)]
    # one such matrix moves the whole batch to Python integers
    mats = [el.mat for el in group.elements[:20]] + [big]
    pairs, scale = substitute(mats, f)
    assert pairs.dtype == object
    assert _forms_of(pairs, scale) == [qnum_act(m, f) for m in mats]
    assert not fixes_form(mats, f)
    assert fixes_form(mats[:-1], f)


entries = st.builds(
    lambda a, b, d: QNum(Fraction(a, d), Fraction(b, d)),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(1, 6),
)
forms = st.dictionaries(st.sampled_from(degree4_monomials()), entries, max_size=15).map(QuarticForm)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=9, max_size=9), forms)
def test_act_matches_qnum_oracle_on_random_matrices(items, form):
    m = Mat3([items[0:3], items[3:6], items[6:9]])
    assert act(m, form) == qnum_act(m, form)
    assert act(m, klein_quartic()) == qnum_act(m, klein_quartic())
