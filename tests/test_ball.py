from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from magball import BallSpec, DomainError, ball_contains, ball_images, ball_size, enumerate_ball
from magball.limits import limits_overridden
from references import enumerate_ball_by_loops


def _oracle_count(n, t, kplus, kminus):
    # Direct expansion over the full box, filtered by weight.
    count = 0
    for v in product(range(-kminus, kplus + 1), repeat=n):
        if sum(1 for x in v if x) <= t:
            count += 1
    return count


def test_fig_shape_37():
    spec = BallSpec(3, 2, 2, 1)
    assert ball_size(spec) == 37
    assert ball_size(spec) == _oracle_count(3, 2, 2, 1)
    assert sum(1 for _ in enumerate_ball(spec)) == 37


def test_zero_radius():
    assert ball_size(BallSpec(5, 0, 2, 1)) == 1
    assert list(enumerate_ball(BallSpec(5, 0, 2, 1))) == [(0,) * 5]


def test_8_2_1_1_is_129():
    assert ball_size(BallSpec(8, 2, 1, 1)) == 129  # 1 + 8*2 + 28*4


def test_enumeration_examples():
    assert list(enumerate_ball(BallSpec(1, 1, 1, 0))) == [(0,), (1,)]
    got = set(enumerate_ball(BallSpec(2, 1, 1, 1)))
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_contains_examples():
    spec = BallSpec(3, 2, 2, 1)
    assert ball_contains(spec, (2, -1, 0))
    assert not ball_contains(spec, (1, 1, 1))
    assert not ball_contains(spec, (0, -2, 0))
    with pytest.raises(DomainError):
        ball_contains(spec, (0, 0))


def test_enumeration_matches_formula_and_membership():
    for n in range(1, 6):
        for t in range(0, min(n, 3) + 1):
            for kplus, kminus in [(1, 0), (1, 1), (2, 1), (2, 2)]:
                spec = BallSpec(n, t, kplus, kminus)
                points = list(enumerate_ball(spec))
                assert len(points) == ball_size(spec) == _oracle_count(n, t, kplus, kminus)
                assert len(set(points)) == len(points)
                assert all(ball_contains(spec, v) for v in points)


def test_enumeration_order_is_weight_major_deterministic():
    first = list(enumerate_ball(BallSpec(3, 2, 1, 1)))
    assert first[:7] == [
        (0, 0, 0),
        (-1, 0, 0), (1, 0, 0),
        (0, -1, 0), (0, 1, 0),
        (0, 0, -1), (0, 0, 1),
    ]
    assert first == list(enumerate_ball(BallSpec(3, 2, 1, 1)))


@given(
    n=st.integers(1, 6),
    t=st.integers(0, 3),
    kplus=st.integers(1, 3),
    kminus=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_symmetry_when_balanced(n, t, kplus, kminus):
    kminus = min(kminus, kplus)
    t = min(t, n)
    spec = BallSpec(n, t, kplus, kminus)
    if kplus == kminus:
        pts = set(enumerate_ball(spec))
        assert all(tuple(-x for x in v) in pts for v in pts)


@given(
    n=st.integers(1, 7),
    t=st.integers(0, 3),
    kplus=st.integers(1, 3),
    kminus=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_monotonicity(n, t, kplus, kminus):
    kminus = min(kminus, kplus)
    t = min(t, n)
    base = ball_size(BallSpec(n, t, kplus, kminus))
    assert ball_size(BallSpec(n + 1, t, kplus, kminus)) >= base
    if t < n:
        assert ball_size(BallSpec(n, t + 1, kplus, kminus)) >= base
    assert ball_size(BallSpec(n, t, kplus + 1, kminus)) >= base
    assert ball_size(BallSpec(n, t, kplus + 1, kminus + 1)) >= base


@given(
    data=st.data(),
    n=st.integers(1, 6),
    kplus=st.integers(1, 3),
    rank=st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_ball_images_against_nested_loops(data, n, kplus, rank):
    t = data.draw(st.integers(0, n), label="t")
    kminus = data.draw(st.integers(0, kplus), label="kminus")
    moduli = data.draw(st.lists(st.integers(1, 12), min_size=rank, max_size=rank), label="moduli")
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=rank, max_size=rank), min_size=n, max_size=n
        ),
        label="rows",
    )
    spec = BallSpec(n, t, kplus, kminus)
    walk = list(ball_images(spec, rows, moduli))
    assert [spec.vector(s, v) for s, v, _ in walk] == list(enumerate_ball_by_loops(spec))
    for support, values, image in walk:
        assert len(support) == len(values) and list(support) == sorted(set(support))
        e = spec.vector(support, values)
        direct = tuple(
            sum(e[i] * rows[i][j] for i in range(n)) % m for j, m in enumerate(moduli)
        )
        assert image == direct


def test_ball_images_checks_no_limit():
    spec = BallSpec(8, 2, 1, 1)
    with limits_overridden(enumeration=1):
        assert sum(1 for _ in ball_images(spec, [(1,)] * 8, (5,))) == 129


def test_ball_images_rejects_malformed_rows():
    spec = BallSpec(3, 1, 1, 0)
    with pytest.raises(DomainError):
        list(ball_images(spec, [(1,)] * 2, (5,)))
    with pytest.raises(DomainError):
        list(ball_images(spec, [(1, 2)] * 3, (5,)))
    with pytest.raises(DomainError):
        list(ball_images(spec, [(1,)] * 3, (0,)))


@pytest.mark.parametrize("key, value", [("n", 4.0), ("t", "1"), ("kplus", True), ("kminus", 0.5)])
def test_from_json_takes_exact_integers(key, value):
    data = BallSpec(4, 1, 1, 0).to_json()
    assert BallSpec.from_json(data) == BallSpec(4, 1, 1, 0)
    with pytest.raises(DomainError, match=f"{key} must be an integer"):
        BallSpec.from_json({**data, key: value})
