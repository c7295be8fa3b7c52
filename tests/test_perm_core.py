"""Permutation primitives: group laws and cycle-notation round trips."""

import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfpart.perm_core import (
    MAX_N,
    Perm,
    apply,
    compose,
    cycle_type,
    cycles_of,
    from_cycle_tuples,
    identity,
    inverse,
    is_permutation,
    parse_cycles,
    to_cycles,
)


def perms(max_n: int = 9):
    return (
        st.integers(1, max_n)
        .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
        .map(tuple)
    )


@st.composite
def perm_pairs(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    a = tuple(draw(st.permutations(list(range(1, n + 1)))))
    b = tuple(draw(st.permutations(list(range(1, n + 1)))))
    return a, b


@given(perms())
def test_identity_is_neutral(p: Perm):
    e = identity(len(p))
    assert compose(p, e) == p
    assert compose(e, p) == p


@given(perms())
def test_inverse_cancels(p: Perm):
    e = identity(len(p))
    assert compose(p, inverse(p)) == e
    assert compose(inverse(p), p) == e
    assert inverse(inverse(p)) == p


@given(perm_pairs())
def test_compose_applies_right_factor_first(pair):
    a, b = pair
    for i in range(1, len(a) + 1):
        assert apply(compose(a, b), i) == apply(a, apply(b, i))


@given(perm_pairs())
def test_inverse_antihomomorphism(pair):
    a, b = pair
    assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


@given(perms())
def test_cycles_round_trip(p: Perm):
    assert from_cycle_tuples(cycles_of(p), len(p)) == p


@given(perms())
def test_cycles_are_canonical(p: Perm):
    cycs = cycles_of(p)
    seen: set[int] = set()
    for c in cycs:
        assert len(c) >= 2, "fixed points must be omitted"
        assert c[0] == min(c), "each cycle must start at its minimum"
        assert not seen & set(c), "cycles must be disjoint"
        seen |= set(c)
    assert [c[0] for c in cycs] == sorted(c[0] for c in cycs)


@given(perms())
def test_cycle_string_round_trip(p: Perm):
    assert parse_cycles(to_cycles(p), len(p)) == p


@given(perms())
def test_cycle_type_partitions_n(p: Perm):
    ct = cycle_type(p)
    assert sum(ct) == len(p)
    assert list(ct) == sorted(ct)


def cycles_of_rendering(p: Perm) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles_of(p)) or "()"


def test_cycle_string_renders_cycles_of():
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            assert to_cycles(p) == cycles_of_rendering(p)
    rng = random.Random(7)
    for n in range(MAX_N - 2, MAX_N + 40):
        p = tuple(rng.sample(range(1, n + 1), n))
        assert to_cycles(p) == cycles_of_rendering(p)


def test_cycle_string_past_the_cached_digits():
    # one cycle through every point of a degree above MAX_N
    p = tuple(range(2, MAX_N + 3)) + (1,)
    assert to_cycles(p) == "(" + " ".join(map(str, range(1, MAX_N + 3))) + ")"
    assert parse_cycles(to_cycles(p), len(p)) == p


def test_identity_notation():
    assert to_cycles(identity(4)) == "()"
    assert parse_cycles("()", 4) == identity(4)
    assert cycles_of(identity(5)) == []
    assert cycle_type(identity(5)) == (1, 1, 1, 1, 1)


def test_parse_separators():
    want = (2, 1, 4, 3)
    assert parse_cycles("(1 2)(3 4)", 4) == want
    assert parse_cycles("(1,2)(3,4)", 4) == want
    assert parse_cycles("(12)(34)", 4) == want
    assert parse_cycles(" (1 2) (3 4) ", 4) == want


def test_parse_two_digit_points_need_separators():
    p = parse_cycles("(1 12)", 12)
    assert p[0] == 12 and p[11] == 1
    with pytest.raises(ValueError, match="ambiguous"):
        parse_cycles("(12)", 12)


@pytest.mark.parametrize(
    "text",
    ["", "(1 2", "(1 2) junk", "(1 1)", "(1 2)(2 3)", "(1 9)", "(a b)"],
)
def test_parse_rejects_malformed(text: str):
    with pytest.raises(ValueError):
        parse_cycles(text, 4)


def test_from_cycle_tuples_validates():
    with pytest.raises(ValueError, match="out of range"):
        from_cycle_tuples([(1, 7)], 6)
    with pytest.raises(ValueError, match="repeated"):
        from_cycle_tuples([(1, 2), (2, 3)], 6)
    assert from_cycle_tuples([], 3) == identity(3)


@given(perms())
def test_is_permutation_accepts_all_perms(p: Perm):
    assert is_permutation(p, len(p))


def test_is_permutation_rejects_others():
    assert not is_permutation((1, 1, 3), 3)
    assert not is_permutation((1, 2), 3)
    assert not is_permutation((0, 1, 2), 3)
