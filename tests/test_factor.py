"""Factor table algebra checked cell by cell against explicit loops."""

import itertools
import math
import random

import numpy as np
import pytest

from bucketforge import ArgTable, DiscreteFactor, ZeroMassError, add, multiply
from bucketforge.buckets import partition
from bucketforge.graph import Ordering


def random_factor(rng, max_vars=3, max_card=4, low=0.0, high=1.0):
    ids = sorted(rng.sample(range(8), rng.randint(1, max_vars)))
    cards = [rng.randint(2, max_card) for _ in ids]
    size = math.prod(cards)
    values = [rng.uniform(low, high) for _ in range(size)]
    return DiscreteFactor.from_table(ids, cards, values)


def cells(scope, cards_by_var):
    return itertools.product(*(range(cards_by_var[v]) for v in scope))


def test_scope_is_kept_sorted_and_values_follow():
    f = DiscreteFactor.from_table([3, 1], [2, 4], list(range(8)))
    assert f.scope == (1, 3)
    assert f.cards == (4, 2)
    # from_table entries run with the last listed variable fastest, so the
    # entry for (var3=i, var1=j) sits at flat index i*4 + j.
    for i in range(2):
        for j in range(4):
            assert f.value_at({3: i, 1: j}) == i * 4 + j


def test_scalar_factor_roundtrip():
    s = DiscreteFactor.scalar(0.25)
    assert s.is_scalar
    assert s.scope == ()
    assert float(s.values) == 0.25


def test_multiply_matches_cellwise_product():
    rng = random.Random(101)
    for _ in range(60):
        f = random_factor(rng)
        g = random_factor(rng)
        cards_by_var = {}
        for h in (f, g):
            for v, c in zip(h.scope, h.cards):
                if cards_by_var.setdefault(v, c) != c:
                    break
            else:
                continue
            break
        else:
            prod = multiply([f, g])
            assert prod.scope == tuple(sorted(set(f.scope) | set(g.scope)))
            for cell in cells(prod.scope, cards_by_var):
                at = dict(zip(prod.scope, cell))
                want = f.value_at(at) * g.value_at(at)
                assert math.isclose(prod.value_at(at), want, rel_tol=1e-12)


def test_multiply_is_commutative_within_tolerance():
    rng = random.Random(7)
    for _ in range(40):
        fs = [random_factor(rng, max_vars=2, max_card=3) for _ in range(3)]
        cards_by_var = {}
        ok = True
        for h in fs:
            for v, c in zip(h.scope, h.cards):
                if cards_by_var.setdefault(v, c) != c:
                    ok = False
        if not ok:
            continue
        forward = multiply(fs)
        backward = multiply(list(reversed(fs)))
        assert forward.scope == backward.scope
        assert np.allclose(forward.values, backward.values, rtol=1e-12, atol=0.0)


def test_add_matches_cellwise_sum():
    rng = random.Random(55)
    for _ in range(40):
        f = random_factor(rng, low=-2.0, high=5.0)
        g = random_factor(rng, low=-2.0, high=5.0)
        cards_by_var = {}
        clash = False
        for h in (f, g):
            for v, c in zip(h.scope, h.cards):
                if cards_by_var.setdefault(v, c) != c:
                    clash = True
        if clash:
            continue
        total = add([f, g])
        for cell in cells(total.scope, cards_by_var):
            at = dict(zip(total.scope, cell))
            assert math.isclose(total.value_at(at), f.value_at(at) + g.value_at(at),
                                rel_tol=1e-12, abs_tol=1e-15)


def test_restrict_picks_the_right_slice():
    rng = random.Random(13)
    for _ in range(40):
        f = random_factor(rng)
        var = rng.choice(f.scope)
        val = rng.randrange(f.card_of(var))
        sliced = f.restrict(var, val)
        assert var not in sliced.scope
        for cell in cells(sliced.scope, dict(zip(f.scope, f.cards))):
            at = dict(zip(sliced.scope, cell))
            assert sliced.value_at(at) == f.value_at({**at, var: val})


def test_eliminate_sum_matches_loop():
    rng = random.Random(29)
    for _ in range(40):
        f = random_factor(rng)
        var = rng.choice(f.scope)
        summed, table = f.eliminate(var, "sum")
        assert table is None
        assert var not in summed.scope
        for cell in cells(summed.scope, dict(zip(f.scope, f.cards))):
            at = dict(zip(summed.scope, cell))
            want = sum(f.value_at({**at, var: k}) for k in range(f.card_of(var)))
            assert math.isclose(summed.value_at(at), want, rel_tol=1e-12)


def test_eliminate_max_matches_loop_and_records_choices():
    rng = random.Random(31)
    for _ in range(40):
        f = random_factor(rng)
        var = rng.choice(f.scope)
        best, table = f.eliminate(var, "max")
        assert isinstance(table, ArgTable)
        assert table.variable == var
        for cell in cells(best.scope, dict(zip(f.scope, f.cards))):
            at = dict(zip(best.scope, cell))
            column = [f.value_at({**at, var: k}) for k in range(f.card_of(var))]
            assert best.value_at(at) == max(column)
            assert table.choice_at(at) == column.index(max(column))


def test_eliminate_max_breaks_ties_toward_the_lowest_value():
    f = DiscreteFactor.from_table([0, 1], [2, 3], [5, 5, 1, 5, 2, 5])
    _, table = f.eliminate(1, "max")
    assert table.choice_at({0: 0}) == 0  # 5 appears at values 0 and 1
    assert table.choice_at({0: 1}) == 0  # 5 appears at values 0 and 2


def test_eliminate_mean_never_exceeds_max():
    rng = random.Random(47)
    for _ in range(40):
        f = random_factor(rng)
        var = rng.choice(f.scope)
        summed, _ = f.eliminate(var, "sum")
        best, _ = f.eliminate(var, "max")
        card = f.card_of(var)
        assert np.all(summed.values / card <= best.values + 1e-15)


def test_normalized_returns_mass_and_unit_total():
    f = DiscreteFactor.from_table([2], [4], [1.0, 3.0, 0.0, 4.0])
    unit, mass = f.normalized()
    assert mass == 8.0
    assert math.isclose(float(unit.values.sum()), 1.0, rel_tol=1e-12)
    assert unit.value_at({2: 1}) == 3.0 / 8.0


def test_normalized_rejects_zero_mass():
    f = DiscreteFactor.from_table([0], [3], [0.0, 0.0, 0.0])
    with pytest.raises(ZeroMassError):
        f.normalized()


def test_scalar_multiplication_folds_into_tables():
    f = DiscreteFactor.from_table([1], [2], [0.5, 0.25])
    s = DiscreteFactor.scalar(4.0)
    prod = multiply([f, s])
    assert prod.scope == (1,)
    assert prod.value_at({1: 0}) == 2.0


def test_cardinality_conflict_is_rejected():
    f = DiscreteFactor.from_table([0], [2], [0.5, 0.5])
    g = DiscreteFactor.from_table([0], [3], [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        multiply([f, g])


def test_values_are_write_locked():
    f = DiscreteFactor.from_table([0], [2], [0.5, 0.5])
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_a_read_only_view_of_a_writable_array_is_copied():
    owner = np.array([[0.5, 0.5], [0.25, 0.75]])
    view = owner.view()
    view.setflags(write=False)
    f = DiscreteFactor((0, 1), (2, 2), view)
    assert not np.shares_memory(f.values, owner)
    owner[0, 0] = 9.0
    assert f.values[0, 0] == 0.5


@pytest.mark.parametrize("values, copied", [
    (np.zeros((2, 2), dtype=np.float32), True),  # another dtype
    (np.zeros(4), True),  # another shape
    (np.frombuffer(np.zeros(4).tobytes(), dtype=np.float64).reshape(2, 2), True),
    (np.zeros((2, 2)), False),
], ids=["float32", "flat", "foreign-buffer", "locked-owner"])
def test_only_a_locked_float64_array_of_the_right_shape_is_kept(values, copied):
    values.setflags(write=False)
    f = DiscreteFactor((0, 1), (2, 2), values)
    assert np.shares_memory(f.values, values) != copied
    assert not f.values.flags.writeable


def test_a_kept_array_still_passes_every_check():
    values = np.array([[0.5, np.inf], [0.25, 0.75]])
    values.setflags(write=False)
    with pytest.raises(ValueError, match="finite"):
        DiscreteFactor((0, 1), (2, 2), values)
    with pytest.raises(ValueError, match="sorted"):
        DiscreteFactor((1, 0), (2, 2), values)
    with pytest.raises(ValueError, match="duplicate"):
        DiscreteFactor((0, 0), (2, 2), values)


def test_non_finite_entries_are_rejected():
    with pytest.raises(ValueError):
        DiscreteFactor.from_table([0], [2], [float("nan"), 0.5])
    with pytest.raises(ValueError):
        DiscreteFactor.from_table([0], [2], [float("inf"), 0.5])


# -- the slice-fold kernel against the numpy reductions it replaced -----------

def reference_product(factors):
    """The product as multiply built it before: a broadcast chain over the
    sorted union scope, then broadcast to the full shape and copied."""
    cards = {}
    for f in factors:
        cards.update(zip(f.scope, f.cards))
    scope = tuple(sorted(cards))
    shape = tuple(cards[v] for v in scope)
    acc = factors[0].aligned_values(scope)
    for f in factors[1:]:
        acc = acc * f.aligned_values(scope)
    return scope, np.array(np.broadcast_to(acc, shape))


def reference_eliminate(values, axis, op):
    """Elimination as numpy reductions: sum, or max plus a second argmax pass."""
    if op == "sum":
        return values.sum(axis=axis), None
    return values.max(axis=axis), np.argmax(values, axis=axis)


def random_bucket(rng):
    """1-4 factors over at most 5 variables of cardinality 1-9; every other
    bucket draws its entries from three values, so ties are common."""
    ids = sorted(rng.choice(12, size=rng.integers(1, 6), replace=False).tolist())
    cards = {v: int(rng.integers(1, 10)) for v in ids}
    while math.prod(cards.values()) > 4000:
        v = ids[rng.integers(len(ids))]
        cards[v] = max(1, cards[v] // 2)
    tied = rng.random() < 0.5
    factors = []
    for i in range(int(rng.integers(1, 5))):
        # The first factor covers every variable at least once overall.
        scope = ids if i == 0 else sorted(rng.choice(ids, size=rng.integers(1, len(ids) + 1),
                                                     replace=False).tolist())
        size = math.prod(cards[v] for v in scope)
        values = (rng.choice([0.0, 0.5, 1.0], size=size) if tied
                  else rng.uniform(0.0, 1.0, size=size))
        factors.append(DiscreteFactor.from_table(scope, [cards[v] for v in scope], values))
    return factors


def test_slice_folds_match_numpy_reductions_on_random_buckets():
    rng = np.random.default_rng(4242)
    empty_results = tied_cells = 0
    for _ in range(320):
        factors = random_bucket(rng)
        scope, want = reference_product(factors)
        combined = multiply(factors)
        assert combined.scope == scope
        assert np.array_equal(combined.values, want)
        for axis, var in enumerate(scope):  # every axis position
            got, none = combined.eliminate(var, "sum")
            ref, _ = reference_eliminate(want, axis, "sum")
            assert none is None
            assert got.scope == scope[:axis] + scope[axis + 1:]
            assert got.values.shape == ref.shape
            assert np.allclose(got.values, ref, rtol=1e-12, atol=0.0)

            got, table = combined.eliminate(var, "max")
            ref, ref_choices = reference_eliminate(want, axis, "max")
            assert got.values.shape == ref.shape
            assert got.values.tobytes() == ref.tobytes()  # bitwise
            assert table.choices.dtype == np.int64
            assert np.array_equal(table.choices, ref_choices)
            empty_results += got.is_scalar
            column_max = want.max(axis=axis, keepdims=True)
            tied_cells += int(((want == column_max).sum(axis=axis) > 1).sum())
    assert empty_results > 20
    assert tied_cells > 1000


def bucket_of(*factors):
    schedule = partition(factors, Ordering((0, 1)))
    assert len(schedule.buckets[1].factors) == len(factors)
    return schedule


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bucket_product_overflow_is_rejected():
    huge = DiscreteFactor.from_table([1], [2], [1e200, 1.0])
    also = DiscreteFactor.from_table([0, 1], [2, 2], [1e200, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        bucket_of(huge, also).process(1, "sum")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_bucket_product_of_inf_and_zero_is_rejected():
    huge = DiscreteFactor.from_table([1], [2], [1e200, 1.0])
    also = DiscreteFactor.from_table([0, 1], [2, 2], [1e200, 1.0, 1.0, 1.0])
    zero = DiscreteFactor.from_table([0, 1], [2, 2], [0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        bucket_of(huge, also, zero).process(1, "max")


def test_algebra_results_are_write_locked():
    f = DiscreteFactor.from_table([0, 1], [2, 3], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    g = DiscreteFactor.from_table([1], [3], [1.0, 2.0, 3.0])
    point = DiscreteFactor.from_table([0], [2], [0.25, 0.75])
    summed, _ = f.eliminate(1, "sum")
    best, table = f.eliminate(1, "max")
    results = [f.restrict(1, 2), summed, best, multiply([f, g]), multiply([g]),
               add([f, g]), f.normalized()[0], point.eliminate(0, "sum")[0]]
    for r in results:
        assert not r.values.flags.writeable
        with pytest.raises(ValueError):
            r.values[(0,) * r.values.ndim] = 9.0
    assert not table.choices.flags.writeable
