"""Factor table algebra checked cell by cell against explicit loops."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from bucketforge import DiscreteFactor, add, factor, multiply
from bucketforge.buckets import execute, partition, plan
from bucketforge.factor import Scratch, fold_max, fold_sum
from bucketforge.graph import Ordering

from conftest import reference_fold, reference_fold_max, reference_fold_sum


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
    s = DiscreteFactor((), (), 0.25)
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
        val = rng.randrange(f.cards[f.scope.index(var)])
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
        card = f.cards[f.scope.index(var)]
        summed, table = f.eliminate(var, "sum")
        assert table is None
        assert var not in summed.scope
        for cell in cells(summed.scope, dict(zip(f.scope, f.cards))):
            at = dict(zip(summed.scope, cell))
            want = sum(f.value_at({**at, var: k}) for k in range(card))
            assert math.isclose(summed.value_at(at), want, rel_tol=1e-12)


def test_eliminate_max_matches_loop_and_records_choices():
    rng = random.Random(31)
    for _ in range(40):
        f = random_factor(rng)
        var = rng.choice(f.scope)
        card = f.cards[f.scope.index(var)]
        best, table = f.eliminate(var, "max")
        assert table.shape == best.cards
        for cell in cells(best.scope, dict(zip(f.scope, f.cards))):
            at = dict(zip(best.scope, cell))
            column = [f.value_at({**at, var: k}) for k in range(card)]
            assert best.value_at(at) == max(column)
            assert table[cell] == column.index(max(column))


def test_eliminate_max_breaks_ties_toward_the_lowest_value():
    f = DiscreteFactor.from_table([0, 1], [2, 3], [5, 5, 1, 5, 2, 5])
    _, table = f.eliminate(1, "max")
    assert table[0] == 0  # 5 appears at values 0 and 1
    assert table[1] == 0  # 5 appears at values 0 and 2


def test_eliminate_mean_never_exceeds_max():
    rng = random.Random(47)
    for _ in range(40):
        f = random_factor(rng)
        var = rng.choice(f.scope)
        summed, _ = f.eliminate(var, "sum")
        best, _ = f.eliminate(var, "max")
        card = f.cards[f.scope.index(var)]
        assert np.all(summed.values / card <= best.values + 1e-15)


def test_scalar_multiplication_folds_into_tables():
    f = DiscreteFactor.from_table([1], [2], [0.5, 0.25])
    s = DiscreteFactor((), (), 4.0)
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


@pytest.mark.parametrize("values", [
    [0.5, 0.5, 0.25, 0.75],
    np.array([0.5, 0.5, 0.25, 0.75]),
    np.array([[0.5, 0.5], [0.25, 0.75]], dtype=np.float32),
], ids=["list", "flat-float64", "float32"])
def test_a_copy_is_locked_down_to_the_array_that_owns_it(values):
    f = DiscreteFactor((0, 1), (2, 2), values)
    assert factor._locked(f.values)
    assert DiscreteFactor(f.scope, f.cards, f.values).values is f.values


def test_a_kept_array_still_passes_every_check():
    values = np.array([[0.5, np.inf], [0.25, 0.75]])
    values.setflags(write=False)
    with pytest.raises(ValueError, match="finite"):
        DiscreteFactor((0, 1), (2, 2), values)
    with pytest.raises(ValueError, match="sorted"):
        DiscreteFactor((1, 0), (2, 2), values)
    with pytest.raises(ValueError, match="duplicate"):
        DiscreteFactor((0, 0), (2, 2), values)


@pytest.mark.parametrize("scope, cards, message", [
    ((0, 1), (2,), "scope and cardinalities differ in length"),
    ((0,), (0,), "cardinalities must be >= 1"),
], ids=["lengths", "cardinality"])
def test_the_constructor_refuses_a_malformed_scope(scope, cards, message):
    with pytest.raises(ValueError) as info:
        DiscreteFactor(scope, cards, np.zeros(2))
    assert (type(info.value), str(info.value)) == (ValueError, message)


@pytest.mark.parametrize("call, message", [
    (lambda f: f.restrict(1, 3), "value 3 out of range for variable 1"),
    (lambda f: f.restrict(1, -1), "value -1 out of range for variable 1"),
    (lambda f: f.eliminate(1, "prod"), "unknown elimination operator 'prod'"),
    (lambda f: multiply([]), "multiply needs at least one factor"),
], ids=["value above", "negative value", "operator", "no factor"])
def test_the_algebra_refuses_what_it_cannot_compute(call, message):
    with pytest.raises(Exception) as info:
        call(DiscreteFactor((0, 1), (2, 3), np.ones((2, 3))))
    assert (type(info.value), str(info.value)) == (ValueError, message)


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
            assert table.dtype == np.min_scalar_type(combined.cards[axis] - 1)
            assert np.array_equal(table, ref_choices)
            empty_results += got.scope == ()
            column_max = want.max(axis=axis, keepdims=True)
            tied_cells += int(((want == column_max).sum(axis=axis) > 1).sum())
    assert empty_results > 20
    assert tied_cells > 1000


def test_eliminate_max_keeps_the_choice_table_a_max_sweep_stores():
    rng = np.random.default_rng(77)
    for _ in range(60):
        factors = random_bucket(rng)
        f = factors[-1]
        var = f.scope[int(rng.integers(len(f.scope)))]
        _, table = f.eliminate(var, "max")
        # Last in the ordering, ``var`` is the bucket the table is filed in.
        ordering = Ordering((*(v for v in f.scope if v != var), var))
        cards = dict(zip(f.scope, f.cards))
        sweep = execute(plan([f.scope], cards, ordering, (), {var: "max"}), [f.values], {})
        scope, choices = sweep.arg_tables[var]
        assert scope == tuple(v for v in f.scope if v != var)
        assert table.dtype == choices.dtype
        assert np.array_equal(table, choices)


def max_cases(rng):
    """(values, axis) pairs for fold_max: 1-5 axes of 1-5 cells, or 1-3
    such axes and a last one of 16-64 cells, which numpy reduces in another
    order than the slice fold; a leading batch axis on half of them; from 1
    to 3125 cells.  Entries come from three values, so ties are common: +0,
    -0 and, more rarely, 0.25; -inf, -2 and 1.5 with some lines along the axis all -inf,
    as the decision rule builds them; or uniform draws."""
    for _ in range(800):
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 6)).tolist())
        axis = int(rng.integers(len(shape)))
        if rng.random() < 0.3:
            shape = (*shape[:3], int(rng.integers(16, 65)))
            axis = len(shape) - 1
        batched = rng.random() < 0.5
        axis += batched
        shape = (int(rng.integers(1, 5)),) * batched + shape
        kind = rng.integers(3)
        if kind == 0:
            values = rng.choice([-0.0, 0.0, 0.25], size=shape, p=[0.45, 0.45, 0.1])
        elif kind == 1:
            values = rng.choice([-np.inf, -2.0, 1.5], size=shape)
            dead = np.expand_dims(rng.random(shape[:axis] + shape[axis + 1:]) < 0.3, axis)
            values = np.where(dead, -np.inf, values)
        else:
            values = rng.uniform(size=shape)
        yield values, axis, batched


def test_fold_max_is_bit_identical_on_both_sides_of_its_cell_threshold(monkeypatch):
    rng = np.random.default_rng(18)
    seen = Counter()
    for values, axis, batched in max_cases(rng):
        monkeypatch.setattr(factor, "REDUCE_CELLS", 0)
        folded = fold_max(values, axis)
        monkeypatch.setattr(factor, "REDUCE_CELLS", values.size + 1)
        reduced = fold_max(values, axis)
        monkeypatch.undo()
        default = fold_max(values, axis)
        for best, choices in (reduced, default):
            assert type(best) is np.ndarray and type(choices) is np.ndarray
            assert best.dtype == folded[0].dtype and best.shape == folded[0].shape
            assert best.tobytes() == folded[0].tobytes()  # bitwise, signed zeros included
            assert choices.dtype == folded[1].dtype == np.min_scalar_type(values.shape[axis] - 1)
            assert np.array_equal(choices, folded[1])
        maxima = values.max(axis)
        seen["reduced"] += bool(maxima.all())
        seen["zero maximum"] += bool((maxima == 0).any())
        seen["signed zero tie"] += bool(((values == 0) & np.signbit(values)).any()
                                        and (values == 0).any(axis=axis).any())
        seen["dead line"] += bool(np.isneginf(maxima).any())
        seen["batched"] += batched
        seen["below"] += values.size < factor.REDUCE_CELLS
        seen["above"] += values.size >= factor.REDUCE_CELLS
    assert min(seen.values()) > 50, seen


def test_the_slice_folds_in_a_scratch_equal_their_allocate_per_op_forms(monkeypatch):
    """fold_max's cases with every intermediate taken from one scratch (the
    threshold lowered to 0), left holding the last case's numbers: maxima
    and choices are byte for byte those of the fold that allocates per
    slice, fold_sum written in a scratch view is the sum in a fresh array,
    and a left fold written in a scratch view is the fold allocating per
    operation.  What fold_max returns shares no memory with the scratch."""
    monkeypatch.setattr(factor, "SCRATCH_CELLS", 0)
    rng = np.random.default_rng(30)
    scratch, seen = Scratch(), Counter()
    for values, axis, batched in max_cases(rng):
        best, choices = fold_max(values, axis, scratch)
        expected = reference_fold_max(values, axis)
        assert best.dtype == expected[0].dtype and best.tobytes() == expected[0].tobytes()
        assert choices.dtype == expected[1].dtype and choices.tobytes() == expected[1].tobytes()
        assert not any(np.shares_memory(a, b) for a in (best, choices) for b in scratch.values())
        expected = reference_fold_sum(values, axis)
        out = scratch.take("sum", expected.shape)
        assert fold_sum(values, axis, out) is out and out.tobytes() == expected.tobytes()
        # Three tables over the leading axes broadcast to the values' shape.
        shapes = [values.shape, values.shape[:axis] + (1,) * (values.ndim - axis),
                  (1,) * axis + values.shape[axis:]]
        arrays = [values, rng.uniform(-2.0, 2.0, size=shapes[1]), values[(0,) * axis]]
        for op in (np.add, np.multiply):
            expected = reference_fold(arrays, shapes, op)
            out = scratch.take("fold", values.shape)
            assert factor._fold(arrays, shapes, op, out) is out
            assert out.tobytes() == expected.tobytes()
        seen["slice fold"] += values.size >= factor.REDUCE_CELLS or not values.max(axis).all()
        seen["batched"] += batched
    assert scratch.keys() >= {"better", "sum", "fold"}
    assert min(seen.values()) > 50, seen


def fold_cases(rng):
    """(arrays, shapes) for a fold, as a bucket rule holds them: each array
    over its own axes, each shape its broadcast over a product of 0 to 9
    axes of 1 to 4 cells.  One array is over the product's trailing axes
    from some point on (the widest), the others over random subsets, some
    missing the trailing axes; in half the cases a leading batch axis of 2
    or 3 rows, -1 in the shapes of the arrays that carry it.  In one case
    in four the widest array has ``factor.SCRATCH_CELLS`` cells or more.
    Entries are signed zeros, ties and infinities, or uniform draws of
    either sign."""
    for case in range(400):
        while True:
            ndim = int(rng.integers(0, 10))
            full = tuple(int(c) for c in rng.integers(1, 5, size=ndim))
            held = [np.arange(ndim) >= rng.integers(0, 3)]
            widest = math.prod(c for c, m in zip(full, held[0]) if m)
            if (widest >= factor.SCRATCH_CELLS) == (case % 4 == 0) and widest <= 1 << 17:
                break
        for _ in range(int(rng.integers(1, 4))):
            mask = rng.random(ndim) < 0.5
            if rng.random() < 0.4:
                mask[ndim - int(rng.integers(1, 3)):] = False  # missing trailing axes
            held.append(mask)
        rng.shuffle(held)
        rows = int(rng.integers(2, 4)) if rng.random() < 0.5 else 0
        batched = [bool(rows) and rng.random() < 0.6 for _ in held]
        if rows and not any(batched):
            batched[0] = True
        arrays, shapes = [], []
        for mask, b in zip(held, batched):
            own = (rows,) * b + tuple(c for c, m in zip(full, mask) if m)
            if rng.random() < 0.5:
                arrays.append(rng.choice([-0.0, 0.0, 0.5, -2.0, np.inf], size=own))
            else:
                arrays.append(rng.uniform(-2.0, 2.0, size=own))
            shapes.append((-1 if b else 1,) * bool(rows)
                          + tuple(c if m else 1 for c, m in zip(full, mask)))
        yield arrays, shapes


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_stretched_folds_equal_their_allocate_per_op_forms(monkeypatch):
    """A wide fold's smaller arrays copied out over its trailing axes: sums
    and products, fresh or written in an output, are byte for byte the fold
    allocating per operation, at the default thresholds, with every fold
    taken as wide, and with copies capped at 8 cells so that runs stop
    early.  Inputs missing trailing axes, batched inputs and 0-d results are
    among the cases; the inputs are left as they were."""
    rng = np.random.default_rng(3636)
    seen = Counter()
    stretched = factor._stretched

    def counting(views, full):
        out = stretched(views, full)
        seen["copied"] += any(a is not v for a, v in zip(out, views))
        return out
    monkeypatch.setattr(factor, "_stretched", counting)
    for case, (arrays, shapes) in enumerate(fold_cases(rng)):
        before = [a.copy() for a in arrays]
        with pytest.MonkeyPatch.context() as patch:
            if case % 3:
                patch.setattr(factor, "SCRATCH_CELLS", 0)
            if case % 3 == 2:
                patch.setattr(factor, "STRETCH_CELLS", 8)
            for op in (np.add, np.multiply):
                expected = reference_fold(arrays, shapes, op)
                got = factor._fold(arrays, shapes, op)
                assert type(got) is type(expected) and got.shape == expected.shape
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
                out = np.empty(expected.shape)
                assert factor._fold(arrays, shapes, op, out) is out
                assert out.tobytes() == expected.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))
        seen["batched"] += any(-1 in s for s in shapes)
        seen["0-d"] += expected.ndim == 0
        seen["wide"] += max(a.size for a in arrays) >= factor.SCRATCH_CELLS
    assert min(seen.values()) >= 10, seen


def test_the_two_slice_max_start_equals_its_allocate_per_op_form(monkeypatch):
    """fold_max started from its first two slices, on axes of 2 and 3
    cells, 0-d results included: maxima, choices, their types and dtypes
    are those of the fold that copies the first slice and zero-fills the
    choices, byte for byte, with ties between +0 and -0, zero maxima and
    dead (-inf) lines; with and without a scratch."""
    monkeypatch.setattr(factor, "REDUCE_CELLS", 0)
    rng = np.random.default_rng(3637)
    seen = Counter()
    for case in range(400):
        k = int(rng.integers(2, 4))
        shape = [int(c) for c in rng.integers(1, 4, size=rng.integers(0, 4))]
        axis = int(rng.integers(len(shape) + 1))
        shape.insert(axis, k)
        values = rng.choice([-0.0, 0.0, 0.25, -np.inf], size=shape, p=[0.35, 0.35, 0.2, 0.1])
        expected = reference_fold_max(values, axis)
        scratch = Scratch() if case % 2 else None
        with pytest.MonkeyPatch.context() as patch:
            if scratch is not None:
                patch.setattr(factor, "SCRATCH_CELLS", 0)
            best, choices = fold_max(values, axis, scratch)
        for got, ref in ((best, expected[0]), (choices, expected[1])):
            assert type(got) is np.ndarray and got.shape == ref.shape
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        seen["0-d"] += best.ndim == 0
        seen[f"{k} slices"] += 1
        seen["zero maximum"] += bool((best == 0).any())
    assert min(seen.values()) >= 30, seen


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


def test_a_scalar_that_overflows_as_it_folds_is_rejected():
    scalar = DiscreteFactor((), (), 1e200)
    schedule = partition([scalar], Ordering((0, 1)))
    with pytest.raises(ValueError, match="^factor values must be finite$"):
        schedule.place(scalar)
    # The refused table left the schedule as it was.
    assert (schedule.scalar, schedule.slots) == (1e200, [None])
    schedule.place(DiscreteFactor.from_table([1], [2], [1e200, 1e200]))
    with pytest.raises(ValueError, match="^factor values must be finite$"):
        schedule.process(1, "sum")
    with pytest.raises(ValueError, match="^factor values must be finite$"):
        partition([], Ordering((0,)), utilities=[DiscreteFactor((), (), 1e308)] * 2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_max_bucket_passes_over_a_product_cell_that_overflows_to_minus_inf():
    # Only a library caller's factors can be negative: each row's maximum is
    # exact, and the -inf cell it passes over is never kept.
    low = DiscreteFactor.from_table([0, 1], [2, 2], [-1e200, 1.0, -1e200, 2.0])
    high = DiscreteFactor.from_table([1], [2], [1e200, 1.0])
    schedule = bucket_of(low, high)
    schedule.process(1, "max")
    assert schedule.arg_tables[1][1].tolist() == [1, 1]
    schedule.process(0, "max")
    assert schedule.scalar == 2.0


def test_algebra_results_are_write_locked():
    f = DiscreteFactor.from_table([0, 1], [2, 3], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    g = DiscreteFactor.from_table([1], [3], [1.0, 2.0, 3.0])
    point = DiscreteFactor.from_table([0], [2], [0.25, 0.75])
    summed, _ = f.eliminate(1, "sum")
    best, table = f.eliminate(1, "max")
    results = [f.restrict(1, 2), summed, best, multiply([f, g]), multiply([g]),
               add([f, g]), point.eliminate(0, "sum")[0]]
    for r in results:
        assert not r.values.flags.writeable
        with pytest.raises(ValueError):
            r.values[(0,) * r.values.ndim] = 9.0
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
