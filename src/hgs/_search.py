"""Staged backtracking over generator images.

The engine searches for maps m: S -> T with m(1) = 1 and

    m(s * w) = T_k[m(s)][m(w)]        for the k-th generator s of S,

where T_k is a product table on T supplied per generator.  Homomorphisms
use T's own table for every k; the bijective crossed homomorphisms for f,
the only crossed homs hgs searches, use the twisted table
T_k[a][b] = a * f(s)(b) and no value twice.  The generators are
``S.gens``, which are effective (``FiniteGroup``).  The engine fixes
images for one generator at a time.  After each assignment it extends the
candidate map along the left-factorization word tree of the subgroup
generated so far (element = gen * parent).  Each generator-against-element product that the
tree does not cover is checked right after the node that gives the second
of its two elements an image (elements of earlier stages have theirs from
the start), so a bad branch dies on its first decidable violated product,
usually long before the stage is filled.  The tree is kept only as that
fill program (``StageData``), built when a search first runs on S.  Table
rows become Python lists the first time a generator image selects them,
once per search.

Callers certify every total assignment before emitting it, in O(n * |gens|)
rather than n^2 steps: ``generator_certificate`` checks
m(s * w) = m(s) * m(w) for every generator s and every w.  That is
sufficient.  The set of x with m(x * w) = m(x) * m(w) for all w is closed
under products, and it contains the generators, which generate S (checked
when S is built); in a finite group that makes it all of S.  A stack of
maps (Aut(G) certifies all its rows at once) is certified block by block,
so a stack of any height needs about a megabyte of temporaries.  The
crossed relation has the same certificate on the twisted tables
(``holomorph.crossed_relation_holds``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


class StageData:
    """The fill program of the word tree, one stage per generator.

    Stage k gives gens[k] its image, runs the checks ``first[k]`` and then
    the steps of ``fill[k]``, in the tree's breadth-first order.  A check
    (gi, w, gens[gi] * w) is a product that the tree does not cover; a
    step (e, gi, par, checks) gives e = gens[gi] * par its image and then
    runs the checks whose two elements both have images from that step on.
    ``first[k]`` holds the checks decidable as soon as gens[k] has one.
    """

    __slots__ = ("gens", "order", "dtype", "first", "fill")

    def __init__(self, mul: np.ndarray, gens: Sequence[int]):
        self.order = n = len(mul)
        self.dtype = mul.dtype
        self.gens = [int(g) for g in gens]
        self.first, self.fill = [], []
        member_list: list[int] = [0]
        member_set = {0}
        gen_rows: list[list[int]] = []
        for k, g in enumerate(self.gens):
            if g in member_set:
                raise ValueError("a generator lies in the subgroup of the earlier ones")
            gen_rows.append(mul[g].tolist())
            prev_count = len(member_list)
            nodes: list[tuple[int, int, int]] = []
            tree_edge: set[tuple[int, int]] = set()
            pos = 0
            while pos < len(member_list):
                x = member_list[pos]
                pos += 1
                for gi in range(k + 1):
                    y = gen_rows[gi][x]
                    if y not in member_set:
                        member_set.add(y)
                        member_list.append(y)
                        nodes.append((y, gi, x))
                        tree_edge.add((gi, x))
            # node index of each new element; earlier ones count as node 0
            node_of = {e: i for i, (e, _, _) in enumerate(nodes)}
            due: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
            new_members = member_list[prev_count:]
            for gi in range(k + 1):
                targets = member_list if gi == k else new_members
                row = gen_rows[gi]
                for w in targets:
                    if (gi, w) in tree_edge:
                        continue
                    u = row[w]
                    due[max(node_of.get(w, 0), node_of.get(u, 0))].append((gi, w, u))
            self.first.append(tuple(due[0]))
            self.fill.append([(e, gi, par, tuple(checks))
                              for (e, gi, par), checks in zip(nodes[1:], due[1:])])
        if len(member_list) != n:
            raise ValueError("generators do not generate the group")


def stage_data(G) -> StageData:
    """StageData for a FiniteGroup and its generators, cached on the group."""
    key = "stage_data"
    if key not in G._cache:
        G._cache[key] = StageData(G.mul, G.gens)
    return G._cache[key]


# index entries gathered per block: a block's temporaries stay near a
# megabyte, however many rows are stacked
CERTIFICATE_BLOCK = 1 << 16


def block_rows(width: int) -> int:
    """Rows of ``width`` index entries per block: about
    ``CERTIFICATE_BLOCK`` entries, and at least one row."""
    return max(1, CERTIFICATE_BLOCK // max(width, 1))


def generator_certificate(S, T, images: np.ndarray) -> bool:
    """True when every row of ``images`` is a homomorphism S -> T.

    ``images`` is one image sequence or a stack of them (one map per row).
    Each map is checked on m(s * w) = m(s) * m(w) for the generators s of
    S and every w, which is sufficient (module docstring).  The stack is
    checked a block of rows at a time (``block_rows``), and each block is
    one flat gather from T's table at m(s) * |T| + m(w) for all generators
    at once; the first failing block ends the check.
    """
    gens = np.asarray(S.gens, dtype=np.intp)
    left = S.mul[gens]
    flat = T.mul.ravel()
    if images.ndim == 1:
        blocks = [images]
    else:
        rows = block_rows(left.size)
        blocks = (images[i:i + rows] for i in range(0, len(images), rows))
    n = np.intp(T.order)  # the flat index is built as intp: no cast copy
    for m in blocks:
        # m(s) * |T| + m(w), kept C-ordered by m.take, so that flat.take
        # (faster than flat[...]) gathers from it without a copy
        index = m.take(gens, axis=-1)[..., None] * n + m[..., None, :]
        if not (m[..., left] == flat.take(index)).all():  # m(s * w) = m(s) * m(w)
            return False
    return True


def iter_stage_maps(
    sd: StageData,
    tables: Sequence[np.ndarray],
    candidates: Sequence[Sequence[int]],
    *,
    bijective: bool = False,
) -> Iterator[np.ndarray]:
    """Every map passing the staged checks against the per-generator tables.

    ``tables[k]`` is T_k as a 2-d array, one row per target element; a row
    becomes a list the first time the k-th generator's image selects it,
    once per search and table.  ``candidates[k]`` lists the allowed images
    of the k-th effective generator, tried in the given order; emission
    order is the lexicographic order of generator-image tuples, so it is
    deterministic.  With ``bijective`` no value is used twice, so only
    injective maps are met: every search but the Hom enumeration sets it.
    Maps have the tables' dtype, which is the element dtype of the groups.
    """
    if len(candidates) != len(sd.gens) or len(tables) != len(sd.gens):
        raise ValueError("need one candidate list and table per effective generator")
    if not sd.gens:  # the trivial source: no tables, so its own table's dtype
        yield np.zeros(sd.order, dtype=sd.dtype)
        return
    img = [-1] * sd.order
    img[0] = 0
    used = None
    if bijective:
        used = bytearray(len(tables[0]))
        used[0] = 1
    # converted rows, shared by the generators that share a table
    by_table: dict[int, list] = {}
    row_lists = [by_table.setdefault(id(t), [None] * len(t)) for t in tables]
    # rows[gi] = tables[gi][image of generator gi], fixed once gi is assigned
    rows: list = [None] * len(sd.gens)
    yield from _drive(sd, tables, row_lists, candidates, img, used, rows, 0)


def _drive(sd, tables, row_lists, candidates, img, used, rows, k) -> Iterator[np.ndarray]:
    """Assign generator k and every later one; yield each total assignment.

    Images are only ever read after the schedule has written them, so a
    rejected branch leaves stale entries in ``img`` rather than -1; only
    the ``used`` marks are undone.
    """
    fill = sd.fill[k]
    first_due = sd.first[k]
    gen_elt = sd.gens[k]
    table = tables[k]
    row_list = row_lists[k]
    last = k + 1 == len(sd.gens)
    for x in candidates[k]:
        if used is not None:
            if used[x]:
                continue
            used[x] = 1
        row = row_list[x]
        if row is None:
            row = row_list[x] = table[x].tolist()
        rows[k] = row
        img[gen_elt] = x
        ok = True
        for gi, w, u in first_due:
            if img[u] != rows[gi][img[w]]:
                ok = False
                break
        filled = 0
        if ok:
            for e, gi, par, checks in fill:
                v = rows[gi][img[par]]
                if used is not None:
                    if used[v]:
                        ok = False
                        break
                    used[v] = 1
                img[e] = v
                filled += 1
                for cgi, w, u in checks:
                    if img[u] != rows[cgi][img[w]]:
                        break
                else:
                    continue
                ok = False
                break
        if ok:
            if last:
                yield np.array(img, dtype=table.dtype)
            else:
                yield from _drive(sd, tables, row_lists, candidates, img, used, rows, k + 1)
        if used is not None:
            used[x] = 0
            for e, _, _, _ in fill[:filled]:
                used[img[e]] = 0


def iter_hom_images(
    S,
    T,
    candidates: Sequence[Sequence[int]],
    *,
    bijective: bool = False,
) -> Iterator[np.ndarray]:
    """All maps S -> T that are homomorphisms on the given generator images.

    ``candidates[k]`` lists allowed images for the k-th effective generator of
    S, in the emission order of ``iter_stage_maps``.
    """
    sd = stage_data(S)
    tables = [T.mul] * len(sd.gens)
    for img in iter_stage_maps(sd, tables, candidates, bijective=bijective):
        if generator_certificate(S, T, img):
            yield img
