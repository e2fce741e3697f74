import random

from hopfatlas.linalg import (
    LinearMap,
    Subspace,
    kernel_of_columns,
    preimage_of_subspace,
    sp_add_into,
    sp_scale,
    spvec,
)
from hopfatlas.scalars import FieldElem

SEED = 0


def _unit(order, i):
    return {i: FieldElem.one(order)}


def test_kernel_examples():
    zero_map = LinearMap(2, 5, 5, [{} for _ in range(5)])
    assert zero_map.kernel().dim == 5
    ident = LinearMap.identity(2, 5)
    assert ident.kernel().dim == 0


def test_meet_example():
    s1 = Subspace.from_vectors(2, 4, [_unit(2, 0), _unit(2, 1)])
    s2 = Subspace.from_vectors(2, 4, [_unit(2, 1), _unit(2, 2)])
    join = s1.join(s2)
    assert join.dim == 3 and join.contains(_unit(2, 2))


def test_rank_nullity_random():
    rng = random.Random(SEED)
    for _ in range(10):
        rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
        columns = [
            spvec(3, {i: rng.randrange(-2, 3) for i in range(rows)}) for _ in range(cols)
        ]
        m = LinearMap(3, cols, rows, columns)
        assert m.rank() + m.kernel().dim == cols


def test_canonical_form_shuffled_spans():
    rng = random.Random(SEED + 1)
    order = 4
    vecs = [
        spvec(order, {0: 1, 2: 2}),
        spvec(order, {1: 1, 2: FieldElem.zeta(order)}),
        spvec(order, {3: 1}),
    ]
    base = Subspace.from_vectors(order, 5, vecs)
    for _ in range(5):
        shuffled = []
        for v in vecs:
            w = dict(v)
            other = rng.choice(vecs)
            sp_add_into(w, sp_scale(other, FieldElem.from_rational(rng.randrange(-2, 3), order)))
            shuffled.append(w)
        rng.shuffle(shuffled)
        shuffled.extend(dict(v) for v in vecs)
        assert Subspace.from_vectors(order, 5, shuffled) == base


def test_inverse_and_compose():
    order = 3
    cols = [spvec(order, {0: 1, 1: 1}), spvec(order, {1: 1}), spvec(order, {2: 2})]
    m = LinearMap(order, 3, 3, cols)
    inv = m.inverse()
    assert m.compose(inv).columns == LinearMap.identity(order, 3).columns
    assert inv.compose(m).columns == LinearMap.identity(order, 3).columns


def test_preimage():
    order = 2
    # map e0 -> f0, e1 -> f1, e2 -> f0+f1
    cols = [spvec(order, {0: 1}), spvec(order, {1: 1}), spvec(order, {0: 1, 1: 1})]
    target = Subspace.from_vectors(order, 2, [spvec(order, {0: 1})])
    pre = preimage_of_subspace(order, cols, 3, target)
    # image of (a,b,c) is (a+c) f0 + (b+c) f1, in span(f0) iff b + c = 0
    assert pre.contains(spvec(order, {0: 1}))
    assert not pre.contains(spvec(order, {1: 1}))
    assert pre.contains(spvec(order, {1: 1, 2: -1}))
    assert pre.dim == 2


def test_preimage_when_a_pivot_trails_a_free_column():
    order = 2
    # target = span(f0 + f1, f2); e0 -> f1 + f2 leads with the free column 1,
    # and its pivot entry at 2 must still be cleared
    target = Subspace.from_vectors(order, 3, [spvec(order, {0: 1, 1: 1}), spvec(order, {2: 1})])
    cols = [spvec(order, {1: 1, 2: 1}), spvec(order, {1: 1})]
    pre = preimage_of_subspace(order, cols, 2, target)
    # (a, b) maps to (a+b) f1 + a f2, in the target iff a + b = 0
    assert pre.dim == 1 and pre.contains(spvec(order, {0: 1, 1: -1}))


def test_kernel_of_columns():
    order = 2
    cols = [spvec(order, {0: 1}), spvec(order, {0: 2})]
    ker = kernel_of_columns(order, 1, cols, 2)
    assert ker.dim == 1
    v = ker.basis_vectors()[0]
    out = {}
    for j, c in v.items():
        sp_add_into(out, sp_scale(cols[j], c))
    assert out == {}
