"""Essentially unary clone tests."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo.clone import (
    FinitaryOp,
    GridOp,
    RhoReport,
    clone_compose,
    essential_positions,
    preserves_either_equal,
    unary_reconstruction,
)
from qendo.clone import _change_pairs, _single_step
from qendo.endo import (
    Piece,
    PiecewiseEndo,
    constant_map,
    idempotent_with_image,
    identity_map,
)
from qendo.ratcore import RatInterval, nth_rational
from qendo.topology import lift_convergence

from util import affine_map, fractions_between, monotone_endos

GRID01 = (F(0), F(1))
MIN2 = GridOp.from_function(2, GRID01, min)


def test_projection_evaluates():
    p = FinitaryOp(3, 2)
    assert p.evaluate((F(5), F(7), F(9))) == F(7)
    with pytest.raises(ValueError, match="arguments"):
        p.evaluate((F(1),))


def test_finitary_op_validation():
    with pytest.raises(ValueError, match="out of range"):
        FinitaryOp(2, 3)
    with pytest.raises(ValueError, match="arity"):
        FinitaryOp(0, 1)


def test_clone_compose_projection_law():
    g1 = FinitaryOp(2, 1, affine_map(F(2), F(0)))
    g2 = FinitaryOp(2, 2)
    assert clone_compose(FinitaryOp(2, 1), [g1, g2]) is g1
    assert clone_compose(FinitaryOp(2, 2), [g1, g2]) is g2


def test_clone_compose_unary_chains():
    u = affine_map(F(1), F(1))      # x + 1
    v = affine_map(F(2), F(0))      # 2x
    f = FinitaryOp(1, 1, u)
    g = FinitaryOp(3, 2, v)
    h = clone_compose(f, [g])
    assert (h.arity, h.j) == (3, 2)
    for args in itertools.product([F(0), F(1), F(-1, 2)], repeat=3):
        assert h.evaluate(args) == u.eval(v.eval(args[1]))


def test_clone_compose_unary_with_projection_inner():
    u = affine_map(F(1), F(1))
    f = FinitaryOp(2, 2, u)
    h = clone_compose(f, [FinitaryOp(3, 1), FinitaryOp(3, 3)])
    assert (h.arity, h.j) == (3, 3)
    assert h.evaluate((F(0), F(0), F(5))) == F(6)


def test_clone_compose_identity_unary_with_projections():
    f = FinitaryOp(2, 1, identity_map())
    h = clone_compose(f, [FinitaryOp(2, 2), FinitaryOp(2, 1)])
    assert (h.arity, h.j) == (2, 2)
    assert h.evaluate((F(3), F(4))) == F(4)


def test_clone_compose_arity_errors():
    with pytest.raises(ValueError, match="arity mismatch"):
        clone_compose(FinitaryOp(2, 1), [FinitaryOp(2, 1)])
    with pytest.raises(ValueError, match="arity mismatch"):
        clone_compose(FinitaryOp(2, 1), [FinitaryOp(2, 1), FinitaryOp(3, 1)])


@settings(max_examples=50, deadline=None)
@given(monotone_endos(), monotone_endos(),
       st.integers(1, 3), st.integers(1, 3),
       fractions_between(-5, 5, 6))
def test_compose_stays_essentially_unary(u, v, j1, j2, x):
    f = FinitaryOp(2, j1 if j1 <= 2 else 1, u)
    gs = [FinitaryOp(3, j2, v), FinitaryOp(3, (j2 % 3) + 1)]
    h = clone_compose(f, gs)
    assert isinstance(h, FinitaryOp) and h.arity == 3
    args = (x, x + 1, x - 1)
    inner = gs[f.j - 1]
    assert h.evaluate(args) == u.eval(inner.evaluate(args))


# -- grid proxies ----------------------------------------------------------------

def test_gridop_validation():
    with pytest.raises(ValueError, match="misses row"):
        GridOp(1, GRID01, {(F(0),): F(0)})
    with pytest.raises(ValueError, match="off the grid"):
        GridOp(1, GRID01, {(F(0),): F(0), (F(1),): F(1), (F(2),): F(2)})


def test_projection_preserves():
    op = GridOp.restriction(FinitaryOp(2, 1), GRID01)
    report = preserves_either_equal(op)
    assert report.preserves and report.witness is None
    assert "preserves" in str(report)


def test_min_violates_with_proof_shaped_witness():
    report = preserves_either_equal(MIN2)
    assert not report.preserves
    (x, a), (x2, b), (z, c), (z2, d) = report.witness
    assert a != b and c != d
    di = [i for i in range(2) if x[i] != x2[i]]
    dj = [i for i in range(2) if z[i] != z2[i]]
    assert len(di) == 1 and len(dj) == 1 and di[0] < dj[0]
    assert MIN2.table[x] == a and MIN2.table[z2] == d
    assert "violates" in str(report)


def test_unary_restriction_preserves():
    op = GridOp.restriction(FinitaryOp(1, 1, affine_map(F(1), F(1))), GRID01)
    assert preserves_either_equal(op).preserves


def test_essential_positions_examples():
    assert essential_positions(GridOp.restriction(FinitaryOp(2, 1), GRID01)) == (1,)
    const = GridOp.from_function(2, GRID01, lambda x, y: F(7))
    assert essential_positions(const) == ()
    assert essential_positions(MIN2) == (1, 2)


def test_unary_reconstruction():
    op = GridOp.restriction(FinitaryOp(2, 2, affine_map(F(3), F(1))), GRID01)
    j, u = unary_reconstruction(op)
    assert j == 2 and u == {F(0): F(1), F(1): F(4)}
    assert unary_reconstruction(MIN2) is None


def _random_gridop(rng, grid_size, arity):
    grid = tuple(F(i) for i in range(grid_size))
    table = {args: rng.choice(grid)
             for args in itertools.product(grid, repeat=arity)}
    return GridOp(arity, grid, table)


def test_characterization_on_random_tables():
    rng = random.Random(7)
    agree = 0
    for _ in range(150):
        op = _random_gridop(rng, rng.choice([2, 3]), rng.choice([1, 2, 3]))
        lhs = preserves_either_equal(op).preserves
        rhs = len(essential_positions(op)) <= 1
        assert lhs == rhs
        if lhs:
            agree += 1
            j, u = unary_reconstruction(op)
            assert all(op.table[args] == u[args[j - 1]] for args in op.table)
    assert agree > 0  # unary and constant tables do occur


def _either_equal_quadratic(op):
    # every change pair checked against every earlier one: quadratic,
    # kept as the reference for preserves_either_equal's one-pass check
    # and its witness
    seen = []
    for a, b, mask in _change_pairs(op):
        for a2, b2, mask2 in seen:
            if mask & mask2 == 0:
                x, x2, i = _single_step(op, a2, b2)
                z, z2, j = _single_step(op, a, b)
                if i > j:
                    x, x2, z, z2 = z, z2, x, x2
                return RhoReport(False, (
                    (x, op.table[x]), (x2, op.table[x2]),
                    (z, op.table[z]), (z2, op.table[z2])))
        seen.append((a, b, mask))
    return RhoReport(True)


@st.composite
def grid_ops(draw):
    arity = draw(st.integers(1, 3))
    grid = tuple(F(i) for i in range(draw(st.integers(2, 3))))
    rows = list(itertools.product(grid, repeat=arity))
    # few distinct values, so unary and constant tables occur too
    values = draw(st.lists(st.sampled_from(grid[:draw(st.integers(1, len(grid)))]),
                           min_size=len(rows), max_size=len(rows)))
    return GridOp(arity, grid, dict(zip(rows, values)))


@settings(max_examples=200, deadline=None)
@given(grid_ops())
def test_either_equal_matches_the_quadratic_scan(op):
    assert preserves_either_equal(op) == _either_equal_quadratic(op)


def _change_pairs_by_coordinates(op):
    # every pair of rows compared coordinate by coordinate: the reference
    # for _change_pairs' encoded rows
    rows = list(itertools.product(op.grid, repeat=op.arity))
    for a, b in itertools.combinations(rows, 2):
        if op.table[a] != op.table[b]:
            yield a, b, sum(1 << i for i in range(op.arity) if a[i] != b[i])


@settings(max_examples=200, deadline=None)
@given(grid_ops())
def test_change_pairs_match_the_coordinate_scan(op):
    assert list(_change_pairs(op)) == list(_change_pairs_by_coordinates(op))


def test_change_pairs_on_a_grid_of_four():
    # four grid values take two bits per coordinate
    grid = tuple(F(i) for i in range(4))
    op = GridOp.from_function(3, grid, lambda x, y, z: max(x, min(y, z)))
    assert list(_change_pairs(op)) == list(_change_pairs_by_coordinates(op))


def test_characterization_on_grid_of_four():
    grid = tuple(F(i) for i in range(4))
    op = GridOp.from_function(3, grid, lambda x, y, z: max(x, min(y, z)))
    assert not preserves_either_equal(op).preserves
    assert len(essential_positions(op)) > 1
    uop = GridOp.from_function(3, grid, lambda x, y, z: y * 2 + 1)
    assert preserves_either_equal(uop).preserves
    assert unary_reconstruction(uop) == (2, {v: v * 2 + 1 for v in grid})


def test_compositions_restrict_to_preserving_tables():
    rng = random.Random(21)
    unaries = [identity_map(), constant_map(F(1)), affine_map(F(2), F(0)),
               idempotent_with_image((F(0), F(1)))]
    for _ in range(60):
        f = FinitaryOp(2, rng.randint(1, 2), rng.choice(unaries))
        gs = [FinitaryOp(2, rng.randint(1, 2), rng.choice(unaries))
              for _ in range(2)]
        h = clone_compose(f, gs)
        grid = (F(0), F(1), F(2))
        assert preserves_either_equal(GridOp.restriction(h, grid)).preserves


# -- lifting convergence -----------------------------------------------------------

def _prefix_approx(n):
    pts = sorted(nth_rational(i) for i in range(n))
    pieces, prev = [], None
    for p in pts:
        pieces.append(Piece(RatInterval(prev, p, False, True), F(0), p))
        prev = p
    pieces.append(Piece(RatInterval(prev, None, False, False),
                        F(0), prev + 1 if prev is not None else F(1)))
    return PiecewiseEndo(tuple(pieces))


def test_lift_constant_sequence():
    rep = lift_convergence(lambda n: identity_map(), identity_map(), 1, 2, 4)
    assert rep.ok
    assert all(dk.index is None for _, _, dk, _ in rep.rows)


def test_lift_prefix_approximants():
    rep = lift_convergence(_prefix_approx, identity_map(), 2, 2, 6)
    assert rep.hypothesis_ok and rep.ok
    moduli = [m for _, _, _, m in rep.rows]
    assert moduli == sorted(moduli)
    assert moduli[-1] > moduli[1]
    for _, d1, dk, m in rep.rows:
        assert dk.agreement >= m
    assert "lifted convergence holds" in str(rep)


def test_lift_modulus_is_the_axis_index():
    # m(10) = 2,145 lies past the first 2,048 tuples
    rep = lift_convergence(_prefix_approx, identity_map(), 2, 3, 10)
    assert rep.ok
    assert [m for _, _, _, m in rep.rows][-2:] == [1485, 2145]
    assert str(rep).splitlines()[-2].endswith("<= 2^-2145")


def test_lift_hypothesis_failure():
    def drift(n):
        return affine_map(F(1), F(1, n + 1))
    rep = lift_convergence(drift, identity_map(), 1, 2, 5)
    assert not rep.hypothesis_ok and not rep.ok
    assert "hypothesis fails" in str(rep)
    assert "2^-1" in rep.hypothesis_note or "n=1" in rep.hypothesis_note


def test_lift_calls_the_sequence_once_per_term():
    calls = []

    def fs(n):
        calls.append(n)
        return _prefix_approx(n)
    rep = lift_convergence(fs, identity_map(), 2, 2, 6)
    assert rep.ok
    assert calls == list(range(7))
