"""The structure kernels against the forms they replace.

Each reference below is an older form of a kernel: a per-element loop (one
``np.unique`` per row, column, element or closure round, or one Python step
per element, point or table row), or a whole-table pass where the kernel now
works from the generators alone.  The kernels must give the same arrays, in
the same order, and raise the same errors, on every catalog group up to
order 720, on Aut(A6) where the reference is cheap enough, on the order-1440
Aut carriers of the order-720 groups, and on relabelled copies.
"""

import tracemalloc

import numpy as np
import pytest

from hgs.catalog import (
    _det,
    _gl2_elements,
    _projective_action,
    catalog_aut6_tower,
    from_perm_set,
    resolve_spec,
    special_linear2,
)
from hgs.fields import gf
from hgs.groups import (
    ELEMENT_DTYPE,
    MAX_ORDER,
    ORDER_WALK_LIMIT,
    CapExceededError,
    FiniteGroup,
    GroupError,
    PermRep,
    RowIndex,
    RowSet,
    Subgroup,
    _row_keys,
    center,
    commutator_subgroup,
    fingerprint,
    from_perm_gens,
    normal_subgroups,
    sorted_distinct,
    subgroup_closure,
)
from hgs.morphisms import Homomorphism, automorphism_group
from hgs.perms import identity_perm, is_permutation, parse_cycles

SPECS = ["C4", "V4", "C6", "S3", "C8", "C4xC2", "C2xC2xC2", "D4", "Q8",
         "S5", "AxCp(A5,2)", "A6", "S6", "PGL(2,9)", "M10", "AxCp(A6,2)", "C720",
         "Aut(A6)"]
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
    """Each element's order and inverse by the unbounded walk x, x^2, ..:
    the last power before 1 is the inverse."""
    orders = np.zeros(len(mul), dtype=np.int32)
    inverses = np.zeros(len(mul), dtype=np.int32)
    for x in range(len(mul)):
        last, z, k = 0, x, 1
        while z != 0:
            last, z = z, int(mul[z, x])
            k += 1
        orders[x], inverses[x] = k, last
    return orders, inverses


def _table_by_rows(images):
    """RowIndex.table with every composed row filled one at a time from a queue."""
    n = len(images)
    if n > MAX_ORDER:
        raise CapExceededError(f"{n} permutation rows are more than the "
                               f"{MAX_ORDER} that indices can number")
    images = np.ascontiguousarray(images, dtype=ELEMENT_DTYPE)
    if not np.array_equal(images[0], np.arange(images.shape[1])):
        raise GroupError("the identity row must come first")
    base: list[int] = []
    seen = 0
    for p in range(images.shape[1]):
        if seen == n:
            break
        distinct = len(sorted_distinct(images[:, base + [p]]))
        if distinct > seen:
            base.append(p)
            seen = distinct
    if seen != n:
        raise GroupError("permutation rows are not distinct")
    on_base = np.ascontiguousarray(images[:, base])
    order = np.argsort(_row_keys(on_base))
    sorted_keys = _row_keys(on_base[order])
    mul = np.empty((n, n), dtype=ELEMENT_DTYPE)
    mul[0] = np.arange(n)
    known = np.zeros(n, dtype=bool)
    known[0] = True
    queue = [0]
    gens: list[int] = []
    while len(queue) < n:
        g = int(np.argmin(known))  # the first row not yet reached
        composed = images[g][on_base]
        mul[g] = order[np.minimum(np.searchsorted(sorted_keys, _row_keys(composed)), n - 1)]
        if not np.array_equal(on_base[mul[g]], composed):
            raise GroupError("permutation rows are not closed under composition")
        known[g] = True
        queue.append(g)
        gens.append(g)
        for p in queue:  # grows while it is walked
            for h in gens:
                x = mul[h, p]
                if not known[x]:
                    known[x] = True
                    mul[x] = mul[h][mul[p]]
                    queue.append(x)
    return mul


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


def _normal_members_by_product_sets(G):
    """The class-closure scan with each join taken as the product set H K."""
    closures = {}
    for cls in G.conjugacy_classes()[1:]:
        closure = subgroup_closure(G, cls).members
        closures.setdefault(closure.tobytes(), closure)
    trivial = np.array([0], dtype=np.int64)
    found = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for closure in closures.values():
            if np.isin(closure, base).all():
                continue
            in_join = np.zeros(G.order, dtype=bool)
            in_join[G.mul[base[:, None], closure]] = True
            joined = np.flatnonzero(in_join)
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


def _gl2_elements_by_loop(F):
    out = []
    for a in range(F.q):
        for b in range(F.q):
            for c in range(F.q):
                for d in range(F.q):
                    if _det(F, (a, b, c, d)) != 0:
                        out.append((a, b, c, d))
    return out


def _mat_mul_by_entries(F, m1, m2):
    """The product of two 2x2 matrices (a, b, c, d), entry by entry."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    mu, ad = F.mul, F.add
    return (int(ad[mu[a1, a2], mu[b1, c2]]), int(ad[mu[a1, b2], mu[b1, d2]]),
            int(ad[mu[c1, a2], mu[d1, c2]]), int(ad[mu[c1, b2], mu[d1, d2]]))


def _sl2_table_by_loop(F):
    mats = [m for m in _gl2_elements_by_loop(F) if _det(F, m) == 1]
    mats.remove((1, 0, 0, 1))
    mats = [(1, 0, 0, 1)] + sorted(mats)
    index = {m: i for i, m in enumerate(mats)}
    return np.array([[index[_mat_mul_by_entries(F, m1, m2)] for m2 in mats]
                     for m1 in mats])


# -- the whole-table forms -------------------------------------------------------------


def _inverses_by_argmin(G):
    """The column holding 0 in each row of the table."""
    return np.argmin(G.mul, axis=1)


def _classes_by_conjugation_table(G):
    """Column minima of the n x n table of every g x g^-1."""
    least = G.mul[G.mul, G.inv[:, None]].min(axis=0)
    cls_id = (np.cumsum(least == np.arange(G.order)) - 1)[least]
    return [np.flatnonzero(cls_id == c) for c in range(cls_id.max() + 1)], cls_id


def _central_by_transpose(G):
    return np.flatnonzero(np.all(G.mul == G.mul.T, axis=1))


def _abelian_by_transpose(G):
    return bool(np.array_equal(G.mul, G.mul.T))


def _greedy_generators_by_full_closures(G):
    """Least element outside the closure, with that closure redone from scratch."""
    gens = []
    closed = np.zeros(G.order, dtype=bool)
    closed[0] = True
    while not closed.all():
        gens.append(int(np.argmin(closed)))
        closed[:] = False
        closed[_closure_by_unique(G.mul, [0] + gens)] = True
    return gens


def _subgroup_message_by_all_products(G, members):
    """The |S|^2 products of S gathered at once; the error or None."""
    members = np.unique(np.asarray(members, dtype=np.int64))
    if len(members) == 0 or members[0] != 0:
        return "subgroup must contain the identity"
    mask = np.zeros(G.order, dtype=bool)
    mask[members] = True
    if not mask[G.mul[np.ix_(members, members)]].all():
        return "subgroup members are not closed under multiplication"
    if G.order % len(members) != 0:
        return "subgroup size does not divide the group order"
    return None


def _kernel_subgroup_message(G, members):
    try:
        Subgroup(G, members)
    except GroupError as err:
        return str(err)
    return None


def _kernel_validation_message(mul):
    try:
        FiniteGroup(mul, assume_associative=True)
    except GroupError as err:
        return str(err)
    return None


# -- equality on the catalog ---------------------------------------------------------


def test_element_orders_equal_the_per_element_walk(catalog_groups):
    for label, G in catalog_groups.items():
        orders, inverses = _orders_by_walk(G.mul)
        assert np.array_equal(G.elt_order, orders), label
        assert np.array_equal(G.inv, inverses), label
        assert G.elt_order.dtype == np.int64  # an order, not an index: n may not fit
    # C720 has an element of every order dividing 720, most past the walk
    assert catalog_groups["C720"].elt_order.max() > ORDER_WALK_LIMIT


def test_a_prime_order_past_the_walk_limit_equals_the_unbounded_walk():
    G = resolve_spec("C997")  # one prime order, far past the walk
    orders, inverses = _orders_by_walk(G.mul)
    assert orders.max() == 997 > ORDER_WALK_LIMIT
    assert np.array_equal(G.elt_order, orders)
    assert np.array_equal(G.inv, inverses)


def test_perm_table_equals_the_per_row_fill(catalog_groups):
    tested = 0
    for label, G in catalog_groups.items():
        if G.perm_rep is not None:
            got = RowIndex(G.perm_rep.images).table()
            assert got.dtype == ELEMENT_DTYPE
            assert np.array_equal(got, _table_by_rows(G.perm_rep.images)), label
            tested += 1
    assert tested >= 6  # S3, D4, S5, A6, S6 and PGL(2,9)
    for spec in ("A6", "S6", "PGL(2,9)", "M10"):
        perms = automorphism_group(resolve_spec(spec)).perms
        assert np.array_equal(RowIndex(perms).table(), _table_by_rows(perms)), spec


def test_perm_table_peak_is_the_table_and_a_little_more():
    # the gathers go a block of rows at a time: one unblocked BFS level of
    # hundreds of rows would widen to intp and pass the bound many times over
    perms = automorphism_group(resolve_spec("PGL(2,9)")).perms
    table_bytes = len(perms) ** 2 * np.dtype(ELEMENT_DTYPE).itemsize  # 4.1 MB
    tracemalloc.start()
    try:
        RowIndex(perms).table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table_bytes + 2 * 2 ** 20


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
            got = subgroup_closure(G, seed).members
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


def test_normal_subgroup_joins_equal_the_product_sets(catalog_groups):
    # Aut(A6) and C720 included: the product sets are affordable at 1440
    sizes = set()
    for label, G in catalog_groups.items():
        got = [N.members for N in normal_subgroups(G)]
        ref = _normal_members_by_product_sets(G)
        assert len(got) == len(ref), label
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)), label
        sizes.add(G.order)
    assert 1440 in sizes


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
    assert got.dtype == ELEMENT_DTYPE
    assert np.array_equal(got, _projective_action_by_loop(F, mats))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_gl2_elements_equal_the_nested_loop(q):
    F = gf(q)
    assert [tuple(m) for m in _gl2_elements(F).tolist()] == _gl2_elements_by_loop(F)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_sl2_table_equals_the_per_product_loop(q):
    assert np.array_equal(special_linear2(q).mul, _sl2_table_by_loop(gf(q)))


def test_inverses_and_generators_equal_the_whole_table_forms(catalog_groups):
    for label, G in catalog_groups.items():
        assert G.inv.dtype == ELEMENT_DTYPE
        assert np.array_equal(G.inv, _inverses_by_argmin(G)), label
        assert G._greedy_generators() == _greedy_generators_by_full_closures(G), label


def test_classes_equal_the_conjugation_table_minima(catalog_groups):
    for label, G in catalog_groups.items():
        classes, cls_id = _classes_by_conjugation_table(G)
        got = G.conjugacy_classes()
        assert len(got) == len(classes), label
        assert all(np.array_equal(a, b) for a, b in zip(got, classes)), label
        assert np.array_equal(G.class_index(), cls_id), label


def test_center_and_abelian_equal_the_transpose_comparison(catalog_groups):
    kinds = set()
    for label, G in catalog_groups.items():
        assert np.array_equal(center(G).members, _central_by_transpose(G)), label
        assert G.is_abelian() == _abelian_by_transpose(G), label
        kinds.add(G.is_abelian())
    assert kinds == {False, True}


def test_subgroup_checks_agree_with_all_products(catalog_groups):
    rng = np.random.default_rng(5)
    messages = set()
    unclosed_dividing = 0
    for label, G in catalog_groups.items():
        n = G.order
        subs = [center(G).members, commutator_subgroup(G).members,
                subgroup_closure(G, [int(rng.integers(1, n))]).members,
                subgroup_closure(G, rng.integers(1, n, 2).tolist()).members,
                np.arange(n)]
        sets = list(subs)
        for members in subs:
            outside = np.flatnonzero(~np.isin(np.arange(n), members))
            if len(outside):  # a subgroup plus one element outside it
                sets.append(np.append(members, rng.choice(outside)))
            sets.append(members[members != 0])  # no identity
        # a random set whose size is the largest proper divisor of |G|
        d = max(k for k in range(1, n) if n % k == 0)
        dividing = np.concatenate([[0], 1 + rng.choice(n - 1, d - 1, replace=False)])
        sets += [dividing, np.array([], dtype=np.int64)]
        for members in sets:
            want = _subgroup_message_by_all_products(G, members)
            assert _kernel_subgroup_message(G, members) == want, (label, members)
            messages.add(want)
        if _subgroup_message_by_all_products(G, dividing) is not None:
            unclosed_dividing += 1
    assert messages == {None, "subgroup must contain the identity",
                        "subgroup members are not closed under multiplication"}
    assert unclosed_dividing >= len(catalog_groups) - 2  # in V4 every pair {0, x} closes


# -- np.unique, replaced by one sort and a mask of run starts ------------------------


def test_sorted_distinct_equals_np_unique():
    rng = np.random.default_rng(7)
    for trial in range(60):
        size, top = int(rng.integers(0, 50)), int(rng.integers(1, 2000))
        dtype = (np.int32, np.int64)[trial % 2]
        flat = rng.integers(0, top, size=size).astype(dtype)
        got = sorted_distinct(flat)
        assert got.dtype == np.unique(flat).dtype
        assert np.array_equal(got, np.unique(flat))
        rows = rng.integers(0, 3, size=(size, 1 + trial % 4)).astype(np.int32)
        rows = np.concatenate([rows, rows[: size // 2]])
        assert np.array_equal(sorted_distinct(rows), np.unique(rows, axis=0))


def test_perm_set_rows_keep_the_np_unique_order():
    rng = np.random.default_rng(11)
    for q in (3, 4, 5, 7, 8, 9):
        rows = _projective_action(gf(q), _gl2_elements(gf(q)))
        unique = np.unique(rows.astype(np.int32), axis=0)
        ident = int(np.flatnonzero((unique == np.arange(q + 1)).all(axis=1))[0])
        expected = unique[[ident] + [i for i in range(len(unique)) if i != ident]]
        got = from_perm_set(rows[rng.permutation(len(rows))]).perm_rep.images
        assert np.array_equal(got, expected), q


def test_fingerprints_and_image_checks_equal_the_np_unique_forms(catalog_groups):
    rng = np.random.default_rng(5)
    for label, G in catalog_groups.items():
        orders = G.elt_order
        census = tuple(sorted((int(k), int(np.count_nonzero(orders == k)))
                              for k in np.unique(orders)))
        assert fingerprint(G)[1] == census, label
        if G.order > 120:
            continue
        for f in (Homomorphism(G, G, np.arange(G.order)),
                  Homomorphism(G, G, np.zeros(G.order, dtype=np.int64))):
            distinct = np.unique(f.images)
            assert np.array_equal(f.image().members, distinct)
            assert f.is_injective() == (len(distinct) == G.order)
        for _ in range(5):
            p = G.mul[int(rng.integers(G.order))].copy()
            if rng.random() < 0.5:
                p[int(rng.integers(G.order))] = p[0]
            assert is_permutation(p) == (len(np.unique(p)) == G.order), label


# -- tables that are not groups ------------------------------------------------------


TWISTED_C3 = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # rows are permutations, column 1 is not


def test_rows_fine_but_one_column_not_a_permutation():
    with pytest.raises(GroupError, match="some column of the table is not a permutation"):
        FiniteGroup(TWISTED_C3)


def test_element_without_finite_order_raises():
    # 1 -> 1*1 = 2 -> 2*1 = 1 -> ... never reaches the identity
    with pytest.raises(GroupError, match="element has no finite order"):
        FiniteGroup(TWISTED_C3, validate=False)


@pytest.mark.parametrize("entry, value", [((1, 1), 1), ((2, 1), 1)],
                         ids=["1*1=1", "2*1=1"])
def test_element_without_finite_order_past_the_walk_limit_raises(entry, value):
    # C40 with one entry changed: the powers of 1 never reach the identity,
    # and 40 > ORDER_WALK_LIMIT leaves 1 to the square-and-multiply stage.
    # With 1*1 = 1 no power of 1 is ever 1; with 2*1 = 1 the squares still
    # run as in C40, and the stepwise powers 1, 2, 1, .. are met when the
    # greedy generators close <1>
    n = 40
    table = (np.arange(n)[:, None] + np.arange(n)) % n
    table[entry] = value
    assert n > ORDER_WALK_LIMIT
    with pytest.raises(GroupError, match="element has no finite order"):
        FiniteGroup(table, validate=False)


# -- closures built as subgroups skip the membership check ------------------------


def test_built_subgroups_equal_the_verifying_constructor(catalog_groups):
    rng = np.random.default_rng(13)
    for label, G in catalog_groups.items():
        built = [center(G), subgroup_closure(G, rng.integers(0, G.order, 2).tolist()),
                 *normal_subgroups(G)]
        for H in built:
            assert np.array_equal(Subgroup(G, H.members).members, H.members), label


def test_an_unclosed_set_still_raises(catalog_groups):
    for label, G in catalog_groups.items():
        if G.order < 4:
            continue
        x = int(np.argmax(G.elt_order))  # {1, x} is closed only when x^2 = 1
        if G.elt_order[x] > 2:
            with pytest.raises(GroupError, match="not closed"):
                Subgroup(G, [0, x])


# -- closures that grow a row set, against tuple keys and single elements --------


def test_row_set_keeps_the_first_copy_of_each_new_row_in_order():
    seen = RowSet()
    rows = np.array([[3, 1], [0, 2], [3, 1], [5, 5], [0, 2]], dtype=ELEMENT_DTYPE)
    assert seen.add(rows).tolist() == [0, 1, 3]
    more = np.array([[0, 2], [7, 7], [7, 7], [3, 1], [1, 3]], dtype=ELEMENT_DTYPE)
    assert seen.add(more).tolist() == [1, 4]
    assert seen.add(more).tolist() == []
    assert seen.add(np.empty((0, 2), dtype=ELEMENT_DTYPE)).tolist() == []
    assert rows[0] in seen and more[1] in seen
    assert np.array([2, 0], dtype=ELEMENT_DTYPE) not in seen


def test_row_set_keys_do_not_depend_on_the_batch():
    # with a word width chosen per batch, [1, 2] took a 16-bit key in the
    # first batch and a 32-bit one in the second, and came back as new
    seen = RowSet()
    assert seen.add([[1, 2]]).tolist() == [0]
    assert seen.add([[1, 2], [70000, 0]]).tolist() == [1]
    assert np.array([1, 2], dtype=ELEMENT_DTYPE) in seen
    assert np.array([70000, 0]) in seen


@pytest.mark.parametrize("dtype", [ELEMENT_DTYPE, np.int64])
def test_row_set_equals_a_tuple_keyed_set(dtype):
    rng = np.random.default_rng(17)
    for width in range(1, 7):
        top = int(np.iinfo(dtype).max) if dtype == ELEMENT_DTYPE else 1 << 32
        seen, reference = RowSet(), set()
        for _ in range(6):
            rows = rng.integers(0, top, (40, width)).astype(dtype)
            rows[::3] = rng.integers(0, 3, (len(rows[::3]), width))  # repeats
            met = [row in reference for row in map(tuple, rows.tolist())]
            assert [row in seen for row in rows] == met
            expected = []
            for i, row in enumerate(map(tuple, rows.tolist())):
                if row not in reference:
                    reference.add(row)
                    expected.append(i)
            assert seen.add(rows).tolist() == expected, (width, dtype)
            assert all(row in seen for row in rows)


def _from_perm_gens_one_element_at_a_time(gen_perms):
    """The closure ``from_perm_gens`` replaced: a queue of single elements,
    each times every generator, with one byte key per row."""
    gens = [np.asarray(p, dtype=ELEMENT_DTYPE) for p in gen_perms]
    identity = np.arange(len(gens[0]), dtype=ELEMENT_DTYPE)
    index_of = {identity.tobytes(): 0}
    elements = [identity]  # also the BFS queue
    pos = 0
    while pos < len(elements):
        x = elements[pos]
        pos += 1
        for g in gens:
            y = g[x]
            if y.tobytes() not in index_of:
                index_of[y.tobytes()] = len(elements)
                elements.append(y)
    images = np.stack(elements)
    return FiniteGroup(RowIndex(images).table(), perm_rep=PermRep(len(identity), images),
                       gens=[index_of[g.tobytes()] for g in gens], validate=False)


def _cycle(n):
    return np.roll(np.arange(n), -1)


GENERATOR_LISTS = {
    "S5": [_cycle(5), parse_cycles("(0 1)", 5)],
    "S6": [_cycle(6), parse_cycles("(0 1)", 6)],
    "A6": [parse_cycles("(0 1 2 3 4)", 6), parse_cycles("(3 4 5)", 6)],
    "D6": [_cycle(6), -np.arange(6) % 6],
    "S5 with the identity and a repeat": [identity_perm(5), _cycle(5),
                                          parse_cycles("(0 1)", 5), _cycle(5)],
}


@pytest.mark.parametrize("label", GENERATOR_LISTS)
def test_from_perm_gens_keeps_the_order_of_the_single_element_closure(label):
    got = from_perm_gens(GENERATOR_LISTS[label])
    expected = _from_perm_gens_one_element_at_a_time(GENERATOR_LISTS[label])
    assert np.array_equal(got.perm_rep.images, expected.perm_rep.images)
    assert np.array_equal(got.mul, expected.mul)
    assert got.gens == expected.gens


def test_from_perm_gens_raises_exactly_past_the_cap(monkeypatch):
    s4 = [_cycle(4), parse_cycles("(0 1)", 4)]
    monkeypatch.setenv("HGS_MAX_TABLE", "24")
    assert from_perm_gens(s4).order == 24
    monkeypatch.setenv("HGS_MAX_TABLE", "23")
    with pytest.raises(CapExceededError, match="more than 23 elements"):
        from_perm_gens(s4)
