"""Staged backtracking over generator images.

The engine searches for maps m: S -> T with m(1) = 1 and

    m(s * w) = T_k[m(s)][m(w)]        for the k-th effective generator s,

where T_k is a product table on T supplied per generator.  Homomorphisms
use T's own table for every k; crossed homomorphisms for f use the twisted
table T_k[a][b] = a * f(s)(b).  The engine fixes images for one generator at
a time.  After each assignment it extends the candidate map along the
left-factorization word tree of the subgroup generated so far
(element = gen * parent) and checks every generator-against-element product
available at that stage, so bad branches die on the first violated pair.

Callers certify every total assignment before emitting it, in O(n * |gens|)
rather than n^2 steps: ``generator_certificate`` checks
m(s * w) = m(s) * m(w) for every effective generator s and every w.  That is
sufficient.  The set of x with m(x * w) = m(x) * m(w) for all w is closed
under products, and it contains the effective generators, which generate S
(``StageData`` raises otherwise); in a finite group that makes it all of S.
The crossed relation has the same certificate on the twisted tables
(``holomorph.crossed_relation_holds``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


class StageData:
    """Word-tree stages for a fixed group and effective generator chain.

    ``nodes[k]`` lists (element, gi, parent) with element = gens[gi] * parent
    for the elements first reached at stage k; ``checks[k]`` lists
    (gi, w, gens[gi] * w) for the products that the tree does not cover.
    """

    __slots__ = ("gens", "nodes", "checks", "stage_sizes", "order")

    def __init__(self, mul: np.ndarray, gens: Sequence[int]):
        n = mul.shape[0]
        self.order = n
        member_list: list[int] = [0]
        member_set = {0}
        eff_gens: list[int] = []
        gen_rows: list[list[int]] = []
        self.nodes: list[list[tuple[int, int, int]]] = []
        self.checks: list[list[tuple[int, int, int]]] = []
        self.stage_sizes: list[int] = []
        for g in gens:
            if g in member_set:
                continue  # redundant generator: its image is forced anyway
            k = len(eff_gens)
            eff_gens.append(int(g))
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
            checks: list[tuple[int, int, int]] = []
            new_members = member_list[prev_count:]
            for gi in range(k + 1):
                targets = member_list if gi == k else new_members
                row = gen_rows[gi]
                for w in targets:
                    if (gi, w) in tree_edge:
                        continue
                    checks.append((gi, w, row[w]))
            self.nodes.append(nodes)
            self.checks.append(checks)
            self.stage_sizes.append(len(member_list))
        self.gens = eff_gens
        if len(member_list) != n:
            raise ValueError("generators do not generate the group")


def stage_data(G) -> StageData:
    """StageData for a FiniteGroup, cached on the group."""
    key = "stage_data"
    if key not in G._cache:
        G._cache[key] = StageData(G.mul, G.gens)
    return G._cache[key]


def generator_certificate(S, T, images: np.ndarray) -> bool:
    """True when every row of ``images`` is a homomorphism S -> T.

    ``images`` is one image sequence or a stack of them (one map per row).
    Each map is checked on m(s * w) = m(s) * m(w) for the effective
    generators s of S and every w, which is sufficient (module docstring).
    """
    gens = np.asarray(stage_data(S).gens, dtype=np.intp)
    lhs = images[..., S.mul[gens]]                              # m(s * w)
    rhs = T.mul[images[..., gens, None], images[..., None, :]]  # m(s) * m(w)
    return bool(np.array_equal(lhs, rhs))


def iter_stage_maps(
    sd: StageData,
    tables: Sequence[Sequence[Sequence[int]]],
    candidates: Sequence[Sequence[int]],
    *,
    bijective: bool = False,
) -> Iterator[np.ndarray]:
    """Every map passing the staged checks against the per-generator tables.

    ``tables[k]`` is T_k as row lists, one row per target element, and
    ``candidates[k]`` lists the allowed images of the k-th effective
    generator, tried in the given order; emission order is the lexicographic
    order of generator-image tuples, so it is deterministic.  With
    ``bijective`` no value is used twice.
    """
    if len(candidates) != len(sd.gens) or len(tables) != len(sd.gens):
        raise ValueError("need one candidate list and table per effective generator")
    if not sd.gens:
        yield np.zeros(sd.order, dtype=np.int32)
        return
    img = [-1] * sd.order
    img[0] = 0
    used = None
    if bijective:
        used = bytearray(len(tables[0]))
        used[0] = 1
    # rows[gi] = tables[gi][image of generator gi], fixed once gi is assigned
    rows: list = [None] * len(sd.gens)
    yield from _drive(sd, tables, candidates, img, used, rows, 0)


def _drive(sd, tables, candidates, img, used, rows, k) -> Iterator[np.ndarray]:
    """Assign generator k and every later one; yield each total assignment."""
    nodes = sd.nodes[k]
    checks = sd.checks[k]
    gen_elt = sd.gens[k]
    table = tables[k]
    last = k + 1 == len(sd.gens)
    for x in candidates[k]:
        if used is not None and used[x]:
            continue
        img[gen_elt] = x
        rows[k] = table[x]
        if used is not None:
            used[x] = 1
        trail = [gen_elt]
        ok = True
        for e, gi, par in nodes:
            if e == gen_elt:
                continue
            v = rows[gi][img[par]]
            if used is not None:
                if used[v]:
                    ok = False
                    break
                used[v] = 1
            img[e] = v
            trail.append(e)
        if ok:
            for gi, w, u in checks:
                if img[u] != rows[gi][img[w]]:
                    ok = False
                    break
        if ok:
            if last:
                yield np.array(img, dtype=np.int32)
            else:
                yield from _drive(sd, tables, candidates, img, used, rows, k + 1)
        for e in trail:
            if used is not None:
                used[img[e]] = 0
            img[e] = -1


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
    tables = [T.mul_rows()] * len(sd.gens)
    for img in iter_stage_maps(sd, tables, candidates, bijective=bijective):
        if generator_certificate(S, T, img):
            yield img
