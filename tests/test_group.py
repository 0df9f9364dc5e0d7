import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import centralizer_size, is_unitary, kernel_K, reflection_matrix
from klein336.group import (
    R1,
    R2,
    R3,
    GroupConstructionError,
    GroupTable,
    UnrecognizedSubgroupError,
    _LABELS,
    roots,
)
from klein336.linalg import IDENTITY3, Mat3, int6_to_mat3
from klein336.qfield import ONE, QNum, hermitian, vec3


def naive_mat_power(rows, k):
    """Hand-rolled 3x3 power over the field, independent of Mat3.__mul__."""
    acc = [[QNum(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(k):
        acc = [
            [
                sum((acc[i][t] * rows[t][j] for t in range(3)), QNum(0))
                for j in range(3)
            ]
            for i in range(3)
        ]
    return acc


def test_group_sizes(group):
    assert group.size == 336
    assert len(group.h_indices) == 168
    assert len(group.reflections) == 21
    assert len(group.antireflections) == 21


def test_roots():
    rts = roots()
    assert len(rts) == 42
    for e in rts:
        assert hermitian(e, e) == QNum(2)
    # the roots fall into 21 pairs +-e
    keys = {tuple((q.x, q.y) for q in e) for e in rts}
    assert len(keys) == 42
    assert {tuple((-q.x, -q.y) for q in e) for e in rts} == keys


def test_roots_equal_the_fraction_keyed_reference_in_order():
    assert roots() == oracles.fraction_keyed_roots()


def test_reflection_formula_recovers_generators():
    assert reflection_matrix(vec3(0, 0, 2)) == R2
    assert reflection_matrix(vec3(1, 1, QNum(1, -1))) == R3
    # the coordinate swap fixes {x2 = x3}, i.e. reflects the root (0, w, -w)
    assert reflection_matrix(vec3(0, QNum(0, 1), QNum(0, -1))) == R1
    # the reflection in (0, w, w) is a different group element
    other = reflection_matrix(vec3(0, QNum(0, 1), QNum(0, 1)))
    assert is_unitary(other) and other * other == IDENTITY3 and other != R1


def test_presentation(group):
    assert group.verify_presentation()


def test_r1r2_has_order_four():
    prod = naive_mat_power([list(r) for r in (R1 * R2).rows], 1)
    sq = naive_mat_power(prod, 2)
    ident = [[QNum(int(i == j)) for j in range(3)] for i in range(3)]
    assert sq != ident
    assert naive_mat_power(prod, 4) == ident


def test_order_spectrum(group):
    assert sorted(set(e.order for e in group.elements)) == [1, 2, 3, 4, 6, 7, 14]


def test_coxeter_like_element(group):
    n = group.named
    prod = group.product([n["r1"], n["r2"], n["r3"]])
    assert group.elements[prod].order == 14
    assert group.power(prod, 7) == group.minus_one


def test_named_registry(group):
    n = group.named
    orders = {
        "r1": 2, "r2": 2, "r3": 2, "rho1": 2, "rho2": 2, "rho3": 2,
        "m1": 2, "g7": 7, "h3": 3, "h4": 4, "h4p": 4, "c": 6, "c3": 3,
    }
    for name, k in orders.items():
        assert group.elements[n[name]].order == k
    assert group.multiply(n["m1"], n["h4"]) == n["h4p"]
    assert group.multiply(n["m1"], n["c"]) == n["c3"]


def test_named_registry_matches_field_products(group):
    # the registry from BFS keys and words equals the one from Mat3 products
    assert group.named == oracles.field_named_registry(group)


def _moebius_sum(subgroups: list[frozenset[int]], top: frozenset[int]) -> tuple[int, int]:
    """(sum of mu(K, top) |K|^2 over all K, mu(1, top)) for the subgroups K of top.

    mu(top, top) = 1, and below it mu(K, top) is minus the sum of mu(L, top)
    over the L with K < L, which come first in decreasing order.
    """
    mu: dict[frozenset[int], int] = {}
    for k in sorted(subgroups, key=len, reverse=True):
        mu[k] = 1 if k == top else -sum(m for big, m in mu.items() if k < big)
    return sum(m * len(k) ** 2 for k, m in mu.items()), mu[min(subgroups, key=len)]


def _generating_pairs(table, quotient: str) -> int:
    """phi_2: the pairs (a, b) of G or H that generate it, by plain closures.

    Conjugation permutes the pairs, so a runs over class representatives,
    each counted with the size of its class.
    """
    top = frozenset(oracles.group_ids(table, quotient))
    return sum(
        len(c.members) * sum(
            oracles.plain_subgroup_closure(table, [c.representative, b]) == top for b in top
        )
        for c in table.conjugacy_classes(quotient)
    )


def test_hall_eulerian_function_certifies_both_lattices(group):
    # P. Hall (1936): sum over K <= A of mu(K, A) |K|^2 = phi_2(A); with
    # 24 missing from the cut-off orders, H's lattice sums to 22176
    subs_h = [k for c in group.all_subgroups_of_h() for k in c.members]
    for subgroups, quotient, phi2 in (
        (subs_h, "H", 19152),  # 19/28 of 168^2
        (oracles.goursat_subgroups_of_g(group), "G", 57456),  # 3 * 19152: H is perfect
    ):
        total, mu_trivial = _moebius_sum(subgroups, max(subgroups, key=len))
        assert total == _generating_pairs(group, quotient) == phi2
        assert mu_trivial == 0


def test_hall_eulerian_function_holds_below_every_subgroup_class_of_h(group):
    # Hall's identity on each interval [1, L]: sum over K <= L of mu(K, L) |K|^2
    # = phi_2(L), for a representative L of each proper class, with phi_2(L)
    # counted by plain closures over L x L (2092 pairs in all)
    subs_h = [k for c in group.all_subgroups_of_h() for k in c.members]
    found = []
    for c in group.all_subgroups_of_h():
        top = c.representative
        if len(top) == 168:
            continue  # H itself: the test above
        total, _ = _moebius_sum([k for k in subs_h if k <= top], top)
        pairs = sum(oracles.plain_subgroup_closure(group, [a, b]) == top for a in top for b in top)
        assert total == pairs
        found.append((c.structure, pairs))
    assert found == [
        ("2^2:S3", 216), ("2^2:S3", 216), ("7:3", 336), ("A4", 96), ("A4", 96), ("D8", 24),
        ("7", 48), ("S3", 18), ("2^2", 6), ("2^2", 6), ("4", 12), ("3", 8), ("2", 3), ("1", 1),
    ]


def test_columns_are_half_roots(group):
    root_keys = {tuple((q.x, q.y) for q in e) for e in roots()}
    for el in group.elements:
        for j in range(3):
            col = tuple(el.mat.rows[i][j] * QNum(2) for i in range(3))
            assert tuple((q.x, q.y) for q in col) in root_keys


def test_every_element_unitary_and_unimodular_on_lattice(group):
    from klein336.linalg import int_det

    for el in group.elements:
        assert is_unitary(el.mat)
        assert int_det(el.int6) == 1


def test_integer_build_matches_field_oracle(group):
    ref = oracles.field_group_build()
    assert [el.index for el in group.elements] == list(range(336))
    assert [el.word for el in group.elements] == ref.words
    assert [el.mat for el in group.elements] == ref.mats
    assert [el.int6 for el in group.elements] == ref.int6s
    assert group.int6_stack.tolist() == [list(map(list, m)) for m in ref.int6s]
    assert group.mul_list == ref.mul_list
    assert group.mul.dtype == np.int32 and group.mul.tolist() == ref.mul_list
    assert group.inv.dtype == np.int32 and group.inv.tolist() == ref.inv
    assert [el.order for el in group.elements] == ref.orders
    assert [el.det for el in group.elements] == ref.dets
    assert group.reflections == ref.reflections
    assert group.antireflections == ref.antireflections
    assert group.elements[group.minus_one].mat == IDENTITY3.scale(-1)


def test_subgroup_lattice_matches_fixpoint_oracle(group):
    got = group.all_subgroups_of_h()
    want = oracles.fixpoint_subgroup_lattice(group)
    assert sum(c.length for c in got) == 179 and len(got) == 15
    assert {s for c in got for s in c.members} == {s for c in want for s in c.members}
    for a, b in zip(got, want, strict=True):
        assert (a.number, a.structure, a.order, a.length) == (b.number, b.structure, b.order, b.length)
        assert (a.representative, a.members) == (b.representative, b.members)
        assert (a.maximal, a.minimal_over) == (b.maximal, b.minimal_over)


def test_subgroup_lattice_uses_few_closures(group, monkeypatch):
    from klein336.group import GroupTable

    calls = []
    closure = GroupTable.closure_from
    monkeypatch.setattr(
        GroupTable, "closure_from", lambda self, known, gens: calls.append(1) or closure(self, known, gens)
    )
    table = GroupTable()
    table.all_subgroups_of_h()
    # 168 cyclic closures plus about a thousand extensions of class representatives
    assert len(calls) < 1500


def test_bounded_closure_matches_plain_bfs_in_the_lattice_build(monkeypatch):
    calls = []
    closure = GroupTable.closure_from

    def recorded(self, known, gens):
        gens = list(gens)
        calls.append((known, gens, closure(self, known, gens)))
        return calls[-1][2]

    monkeypatch.setattr(GroupTable, "closure_from", recorded)
    table = GroupTable()
    table.all_subgroups_of_h()
    # the cyclic closures and the check on H's generators start from the trivial
    # subgroup; each extension <R, c> of a subgroup R of H starts from R
    subgroups = {s for c in table.all_subgroups_of_h() for s in c.members}
    extensions = [(known, gens, got) for known, gens, got in calls if len(known) > 1]
    assert len(extensions) > 800
    # most extensions end at H, where the subgroup-order cut-off returns early;
    # those of the order-24 classes return at their first new element
    assert sum(got == table.h_set for _, _, got in extensions) > 500
    assert any(len(known) == 24 for known, _, _ in extensions)
    for known, gens, _ in extensions:
        # gens are R's generators, then c
        assert known in subgroups and oracles.plain_subgroup_closure(table, gens[:-1]) == known
    for known, gens, got in calls:
        assert got == oracles.plain_subgroup_closure(table, gens) and known <= got


@pytest.mark.parametrize("quotient", ["G", "H"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(picks=st.lists(st.integers(0, 335), max_size=3))
def test_bounded_closure_matches_plain_bfs(group, quotient, picks):
    ids = oracles.group_ids(group, quotient)
    gens = [ids[k % len(ids)] for k in picks]
    assert group.subgroup_closure(gens) == oracles.plain_subgroup_closure(group, gens)


def test_lattice_build_checks_its_generators_of_h():
    table = GroupTable()
    table.named = {**table.named, "r3": table.named["r2"]}  # r1 r2 twice: a cyclic group
    with pytest.raises(GroupConstructionError, match="do not generate H"):
        table.all_subgroups_of_h()


def test_lattice_build_checks_the_subgroup_orders_of_h(monkeypatch):
    from klein336 import group as group_mod

    # without 7 the list no longer holds every order: the cyclic closures still
    # find the C7 classes, and the check rejects them before any listing is built
    orders = (1, 2, 3, 4, 6, 8, 12, 21, 24)
    monkeypatch.setattr(group_mod, "_H_SUBGROUP_ORDERS", orders)
    table = GroupTable()
    with pytest.raises(GroupConstructionError) as err:
        table.all_subgroups_of_h()
    assert str(err.value) == f"a subgroup of H has order 7, outside {orders}"
    assert "lattice" not in table.derived


def test_field_matrices_are_built_on_first_read():
    table = GroupTable()
    assert not any("mat" in vars(el) for el in table.elements)
    for el in table.elements:
        assert el.mat == int6_to_mat3(el.int6) and el.mat is el.mat
    assert all("mat" in vars(el) for el in table.elements)


def test_exponents_equal_the_float_eigenvalue_solve(group):
    # the exact count from the traces of each element's powers against numpy's
    # eigenvalues of its 3x3 matrix, each snapped to a root of unity of the
    # element's order and cross-checked against the exact trace and determinant
    for g, el in enumerate(group.elements):
        assert group.exponents(g) == oracles.snap_weights(group, g, el.order)


def test_reflections_and_antireflections(group):
    for i in group.reflections:
        el = group.elements[i]
        assert el.det == -1 and el.order == 2
        assert len(kernel_K(el.mat - IDENTITY3)) == 2
    for i in group.antireflections:
        el = group.elements[i]
        assert el.det == 1 and el.order == 2
        assert len(kernel_K(el.mat.scale(-1) - IDENTITY3)) == 2
        # each antireflection is minus a reflection
        assert group.multiply(group.minus_one, i) in group.reflection_set


def test_h_conjugacy_classes(group):
    classes = group.conjugacy_classes("H")
    data = sorted((c.element_order, len(c.members)) for c in classes)
    assert data == [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]
    # the order-4 class size is forced: H contains 42 order-4 elements of det 1
    count4 = sum(
        1 for i in group.h_indices if group.elements[i].order == 4
    )
    assert count4 == 42
    for c in classes:
        assert len(c.members) * centralizer_size(
            group, c.representative, group.h_indices
        ) == 168
        # H's classes are read off G's: each is one H-class, led by its least id
        assert c.representative == c.members[0]
        assert {group.conjugate(h, c.representative) for h in group.h_indices} == set(c.members)


def test_g_conjugacy_classes_pair_up(group):
    classes = group.conjugacy_classes("G")
    assert len(classes) == 12
    by_members = {c.members: c for c in classes}
    m1 = group.minus_one
    for c in classes:
        negated = tuple(sorted(group.multiply(m1, x) for x in c.members))
        assert negated in by_members
        assert len(by_members[negated].members) == len(c.members)
    for c in classes:
        assert len(c.members) * centralizer_size(
            group, c.representative, range(group.size)
        ) == 336


EXPECTED_TABLE = {
    # structure: (order, length, maximal profile, minimal-over profile);
    # profiles are multisets of ((structure, order, length), multiplicity)
    ("L2(7)", 168, 1): (
        {("2^2:S3", 24, 7): 14, ("7:3", 21, 8): 8},
        {},
    ),
    ("2^2:S3", 24, 7): (
        {("A4", 12, 7): 1, ("D8", 8, 21): 3, ("S3", 6, 28): 4},
        {("L2(7)", 168, 1): 1},
    ),
    ("7:3", 21, 8): (
        {("7", 7, 8): 1, ("3", 3, 28): 7},
        {("L2(7)", 168, 1): 1},
    ),
    ("A4", 12, 7): (
        {("2^2", 4, 7): 1, ("3", 3, 28): 4},
        {("2^2:S3", 24, 7): 1},
    ),
    ("D8", 8, 21): (
        {("2^2", 4, 7): 2, ("4", 4, 21): 1},
        {("2^2:S3", 24, 7): 2},
    ),
    ("7", 7, 8): ({("1", 1, 1): 1}, {("7:3", 21, 8): 1}),
    ("S3", 6, 28): (
        {("3", 3, 28): 1, ("2", 2, 21): 3},
        {("2^2:S3", 24, 7): 2},
    ),
    ("2^2", 4, 7): (
        {("2", 2, 21): 3},
        {("A4", 12, 7): 1, ("D8", 8, 21): 3},
    ),
    ("4", 4, 21): ({("2", 2, 21): 1}, {("D8", 8, 21): 1}),
    ("3", 3, 28): (
        {("1", 1, 1): 1},
        {("7:3", 21, 8): 2, ("A4", 12, 7): 2, ("S3", 6, 28): 1},
    ),
    ("2", 2, 21): (
        {("1", 1, 1): 1},
        {("S3", 6, 28): 4, ("2^2", 4, 7): 2, ("4", 4, 21): 1},
    ),
    ("1", 1, 1): (
        {},
        {("7", 7, 8): 8, ("3", 3, 28): 28, ("2", 2, 21): 21},
    ),
}


def test_subgroup_lattice_of_h(group):
    classes = group.all_subgroups_of_h()
    assert len(classes) == 15
    assert sum(c.length for c in classes) == 179
    pairs = sorted(((c.order, c.length) for c in classes), reverse=True)
    assert pairs == [
        (168, 1), (24, 7), (24, 7), (21, 8), (12, 7), (12, 7), (8, 21),
        (7, 8), (6, 28), (4, 21), (4, 7), (4, 7), (3, 28), (2, 21), (1, 1),
    ]
    by_number = {c.number: c for c in classes}

    def key(c):
        return (c.structure, c.order, c.length)

    # aggregate inclusion profiles over the symmetric duplicated classes
    seen_max: Counter = Counter()
    seen_min: Counter = Counter()
    expect_max: Counter = Counter()
    expect_min: Counter = Counter()
    for c in classes:
        for nr, count in c.maximal:
            seen_max[(key(c), key(by_number[nr]))] += count
        for nr, count in c.minimal_over:
            seen_min[(key(c), key(by_number[nr]))] += count
    for k, (maxp, minp) in EXPECTED_TABLE.items():
        dup = 2 if k[0] in ("2^2:S3", "A4", "2^2") else 1
        for sub_k, count in maxp.items():
            expect_max[(k, sub_k)] += count * dup
        for over_k, count in minp.items():
            expect_min[(k, over_k)] += count * dup
    assert seen_max == expect_max
    assert seen_min == expect_min


def test_subgroup_members_are_conjugate(group):
    classes = group.all_subgroups_of_h()
    rng = random.Random(5)
    for c in classes:
        s = c.members[rng.randrange(len(c.members))]
        g = group.h_indices[rng.randrange(168)]
        assert group.conjugate_subgroup(g, s) in set(c.members)


def test_normalizers(group):
    n = group.named
    g7sub = group.subgroup_closure([n["g7"]])
    nh = group.normalizer(g7sub) & group.h_set
    assert len(nh) == 21
    assert group.recognize(nh) == "7:3"
    whole = frozenset(range(group.size))
    assert group.normalizer(whole) == whole
    rho1sub = group.subgroup_closure([n["rho1"]])
    nrho = group.normalizer(rho1sub) & group.h_set
    assert len(nrho) == 8
    assert group.recognize(nrho) == "D8"
    # on every subgroup of H: N_G(S) & H equals N_H(S) by brute force, and
    # N_G(S) = N_H(S) x {+-1}, since -1 is central
    rows, inv = group.mul_list, group.inv.tolist()
    for c in group.all_subgroups_of_h():
        for s in c.members:
            n_h = {h for h in group.h_indices if {rows[rows[h][x]][inv[h]] for x in s} == s}
            n_g = group.normalizer(s)
            assert n_g & group.h_set == n_h
            assert n_g == n_h | {group.multiply(group.minus_one, h) for h in n_h}


def test_recognition_examples(group):
    n = group.named
    assert group.recognize(group.subgroup_closure([n["g7"]])) == "C7"
    assert group.recognize(group.subgroup_closure([n["r1"]])) == "C2-refl"
    assert group.recognize(group.subgroup_closure([n["rho1"]])) == "C2-antirefl"
    assert group.recognize(group.subgroup_closure([n["m1"]])) == "±1"
    assert group.recognize(group.subgroup_closure([n["c"]])) == "C6"
    assert group.recognize(group.subgroup_closure([n["h4"]])) == "C4"
    assert group.recognize(group.subgroup_closure([n["h4p"]])) == "C4"
    assert group.recognize(group.subgroup_closure([n["h3"]])) == "C3"
    assert group.recognize(group.subgroup_closure([n["g7"], n["m1"]])) == "C14"
    assert group.recognize(frozenset(range(group.size))) == "G336"
    assert group.recognize(frozenset(group.h_indices)) == "H168"
    assert group.recognize(group.subgroup_closure([n["r1"], n["m1"]])) == "C2xC2'"
    mono = _monomial_det1_subgroup(group)
    assert len(mono) == 24
    assert group.recognize(mono) == "S4"
    assert group.recognize(group.subgroup_closure(sorted(mono) + [n["m1"]])) == "±S4"
    with pytest.raises(UnrecognizedSubgroupError):
        group.recognize(frozenset())


def test_recognize_matches_the_rules_on_every_subgroup_of_g(group):
    # the table lookup against the rule chain, and every table key occurs
    keys = set()
    for s in oracles.goursat_subgroups_of_g(group):
        assert group.recognize(s) == oracles.rule_recognize(group, s)
        keys.add((len(s), len(s & group.reflection_set), len(s & group.antireflection_set)))
    assert keys == set(_LABELS)
    assert group.antireflection_set == frozenset(group.antireflections)


def _monomial_det1_subgroup(group):
    members = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rows = [[0] * 3 for _ in range(3)]
            for i in range(3):
                rows[i][perm[i]] = signs[i]
            m = Mat3(rows)
            if m.det() == ONE:
                members.append(group.index_of_mat(m))
    return frozenset(members)


def test_int6_is_multiplicative_on_all_pairs(group):
    stack = group.int6_stack
    for i in range(group.size):
        prods = stack[i] @ stack
        assert np.array_equal(prods, stack[group.mul[i, :]])


def test_det6_matches_field_norm_for_elliptic_elements(group):
    from klein336.linalg import int_det

    checked = 0
    for el in group.elements:
        shifted = el.mat - IDENTITY3
        det3 = shifted.det()
        if not det3:
            continue
        a = [[el.int6[i][j] - int(i == j) for j in range(6)] for i in range(6)]
        assert int_det(a) == det3.norm()
        checked += 1
    assert checked == 1 + 42 + 56 + 24 + 24 + 24 + 24  # -1, order 4 det -1, 6, 7, 14


def test_bfs_words_are_witnesses(group):
    rng = random.Random(6)
    for _ in range(50):
        el = group.elements[rng.randrange(group.size)]
        prod = group.product(group.named[f"r{i}"] for i in el.word)
        assert prod == el.index


def test_export_schema(group):
    table = group.export_elements()
    assert len(table) == 336
    first = table[0]
    assert list(first.keys()) == ["id", "word", "order", "det", "mat", "int6"]
    assert first["id"] == 0 and first["order"] == 1
    assert len(first["mat"]) == 9 and len(first["int6"]) == 36
