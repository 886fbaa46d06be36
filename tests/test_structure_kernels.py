"""The whole-table structure kernels against the per-element loops they replace.

Each reference below is the loop form: one ``np.unique`` per row, column,
element or closure round, or one Python step per element or point.  The
kernels must give the same arrays, in the same order, on every catalog group
up to order 720, on Aut(A6) where the loop form is cheap enough, and on
relabelled copies.
"""

import numpy as np
import pytest

from hgs.catalog import _gl2_elements, _projective_action, catalog_aut6_tower, resolve_spec
from hgs.fields import gf
from hgs.groups import (
    FiniteGroup,
    GroupError,
    _closure_indices,
    commutator_subgroup,
    from_mul_table,
    normal_subgroups,
)

SPECS = ["C4", "V4", "C6", "S3", "C8", "C4xC2", "C2xC2xC2", "D4", "Q8",
         "S5", "AxCp(A5,2)", "A6", "S6", "PGL(2,9)", "M10", "AxCp(A6,2)", "C720"]
RELABELLED = ["S5", "A6", "PGL(2,9)", "M10"]
# the loop forms of validation and of the normal subgroup scan take seconds
# on the order-1440 Aut(A6), so those two stop at 720
LOOP_ORDER_CAP = 720


def _relabel(G, seed):
    """Copy of G under a seeded renumbering that keeps 0 at 0."""
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    back = np.argsort(sigma)
    return FiniteGroup(sigma[G.mul[np.ix_(back, back)]], name=f"{G.name}~{seed}",
                       assume_associative=True)


@pytest.fixture(scope="module")
def catalog_groups():
    found = {spec: resolve_spec(spec) for spec in SPECS}
    for label, G in catalog_aut6_tower().items():
        if all(G is not H for H in found.values()):  # M10 is the tower's own
            found[f"tower:{label}"] = G
    found.update({f"{spec}~{seed}": _relabel(found[spec], seed)
                  for seed, spec in enumerate(RELABELLED, start=1)})
    return found


# -- the loop forms --------------------------------------------------------------


def _validation_message(mul):
    """Per-row and per-column ``np.unique`` validation; the error or None."""
    n = len(mul)
    if mul.min() < 0 or mul.max() >= n:
        return "table entries out of range"
    idx = np.arange(n)
    if not np.array_equal(mul[0], idx) or not np.array_equal(mul[:, 0], idx):
        return "index 0 is not a two-sided identity"
    if not all(len(np.unique(mul[i])) == n for i in range(n)):
        return "some row of the table is not a permutation"
    if not all(len(np.unique(mul[:, i])) == n for i in range(n)):
        return "some column of the table is not a permutation"
    return None


def _orders_by_walk(mul):
    orders = np.zeros(len(mul), dtype=np.int32)
    for x in range(len(mul)):
        z, k = x, 1
        while z != 0:
            z = int(mul[z, x])
            k += 1
        orders[x] = k
    return orders


def _classes_by_unique(G):
    n, mul, inv = G.order, G.mul, G.inv
    cls_id = np.full(n, -1, dtype=np.int64)
    classes = []
    all_g = np.arange(n)
    for x in range(n):
        if cls_id[x] >= 0:
            continue
        conjugates = np.unique(mul[mul[all_g, x], inv[all_g]])
        cls_id[conjugates] = len(classes)
        classes.append(conjugates.astype(np.int64))
    return classes, cls_id


def _closure_by_unique(mul, seed):
    current = np.unique(np.fromiter(seed, dtype=np.int64))
    while True:
        merged = np.union1d(current, np.unique(mul[np.ix_(current, current)]))
        if len(merged) == len(current):
            return merged
        current = merged


def _derived_by_all_pairs(G):
    a = np.arange(G.order)
    comm = G.mul[G.mul, G.mul[G.inv[a][:, None], G.inv[a][None, :]]]
    return _closure_by_unique(G.mul, list(np.unique(comm)) + [0])


def _normal_members_by_unique(G, classes):
    trivial = np.array([0], dtype=np.int64)
    found = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for cls in classes:
            if cls[0] == 0 or np.all(np.isin(cls, base)):
                continue
            joined = _closure_by_unique(G.mul, np.concatenate([base, cls]))
            if joined.tobytes() not in found:
                found[joined.tobytes()] = joined
                frontier.append(joined)
    return sorted(found.values(), key=lambda m: (len(m), m.tolist()))


def _projective_action_by_loop(F, mats):
    q = F.q
    points = [(x, 1) for x in range(q)] + [(1, 0)]
    rows = np.empty((len(mats), q + 1), dtype=np.int32)
    mu, ad = F.mul, F.add
    for i, (a, b, c, d) in enumerate(mats):
        for j, (v0, v1) in enumerate(points):
            w0 = ad[mu[a, v0], mu[b, v1]]
            w1 = ad[mu[c, v0], mu[d, v1]]
            rows[i, j] = mu[w0, F.inv[w1]] if w1 != 0 else q
    return rows


def _kernel_validation_message(mul):
    try:
        FiniteGroup(mul, assume_associative=True)
    except GroupError as err:
        return str(err)
    return None


# -- equality on the catalog ---------------------------------------------------------


def test_element_orders_equal_the_per_element_walk(catalog_groups):
    for label, G in catalog_groups.items():
        assert np.array_equal(G.elt_order, _orders_by_walk(G.mul)), label
        assert G.elt_order.dtype == np.int32


def test_conjugacy_classes_equal_the_per_element_unique(catalog_groups):
    for label, G in catalog_groups.items():
        classes, cls_id = _classes_by_unique(G)
        got = G.conjugacy_classes()
        assert len(got) == len(classes), label
        for mine, ref in zip(got, classes):
            assert mine.dtype == np.int64 and np.array_equal(mine, ref), label
        assert G.class_index().dtype == np.int64
        assert np.array_equal(G.class_index(), cls_id), label


def test_commutator_subgroup_equals_the_all_pairs_closure(catalog_groups):
    for label, G in catalog_groups.items():
        assert np.array_equal(commutator_subgroup(G).members, _derived_by_all_pairs(G)), label


def test_closures_from_random_seeds_equal_the_unique_closure(catalog_groups):
    rng = np.random.default_rng(11)
    for label, G in catalog_groups.items():
        for size in (1, 1, 2, 2, 3):
            seed = [0, *rng.integers(1, G.order, size).tolist()] if G.order > 1 else [0]
            got = _closure_indices(G.mul, seed)
            assert got.dtype == np.int64, label
            assert np.array_equal(got, _closure_by_unique(G.mul, seed)), (label, seed)


def test_normal_subgroups_equal_the_unique_closures(catalog_groups):
    # C720 is left out: its 720 singleton classes make the loop form take minutes
    for label, G in catalog_groups.items():
        if G.order > LOOP_ORDER_CAP or (G.order == 720 and G.is_abelian()):
            continue
        got = [N.members for N in normal_subgroups(G)]
        ref = _normal_members_by_unique(G, _classes_by_unique(G)[0])
        assert len(got) == len(ref), label
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)), label


def test_validation_agrees_with_the_per_line_unique(catalog_groups):
    rng = np.random.default_rng(3)
    for label, G in catalog_groups.items():
        n = G.order
        if n > LOOP_ORDER_CAP:
            continue
        tables = [G.mul.copy()]
        if n >= 4:
            i, j, k = 1 + rng.choice(n - 1, 3, replace=False)
            swapped = G.mul.copy()  # row i stays a permutation, two columns do not
            swapped[i, [j, k]] = swapped[i, [k, j]]
            repeated = G.mul.copy()  # row i and column j both repeat an entry
            repeated[i, j] = repeated[i, k]
            wide = G.mul.copy()
            wide[i, j] = n
            tables += [swapped, repeated, wide]
        for table in tables:
            assert _kernel_validation_message(table) == _validation_message(table), label
    # the last group's four tables meet every outcome
    messages = [_validation_message(t) for t in tables]
    assert messages == [None, "some column of the table is not a permutation",
                        "some row of the table is not a permutation",
                        "table entries out of range"]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_action_equals_the_nested_loop(q):
    F = gf(q)
    mats = _gl2_elements(F)
    got = _projective_action(F, mats)
    assert got.dtype == np.int32
    assert np.array_equal(got, _projective_action_by_loop(F, mats))


# -- tables that are not groups ------------------------------------------------------


TWISTED_C3 = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # rows are permutations, column 1 is not


def test_rows_fine_but_one_column_not_a_permutation():
    with pytest.raises(GroupError, match="some column of the table is not a permutation"):
        from_mul_table(TWISTED_C3)


def test_element_without_finite_order_raises():
    # 1 -> 1*1 = 2 -> 2*1 = 1 -> ... never reaches the identity
    with pytest.raises(GroupError, match="element has no finite order"):
        from_mul_table(TWISTED_C3, validate=False)
