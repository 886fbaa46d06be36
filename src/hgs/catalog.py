"""Named group catalog, spec parsing, and the Aut(A6) tower.

Resolution is deterministic and cached by normalized label.  Matrix groups
are built over the pinned finite-field tables and converted either to a
permutation action on the projective line (PGL, PSL) or to a Cayley table
(SL).  M10 carries no convenient matrix model, so it is cut out of Aut(A6)
and labeled by its outer-coset element orders.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable

import numpy as np

from . import perms as P
from .fields import GaloisField, gf
from .groups import (
    FiniteGroup,
    GroupError,
    PermRep,
    Subgroup,
    _readonly,
    commutator_subgroup,
    direct_product,
    from_mul_table,
    from_perm_gens,
    order_census,
    perm_table,
    quotient_group,
    center,
)
from .morphisms import are_isomorphic, automorphism_group


class SpecError(GroupError):
    """Unknown or malformed group spec."""


_RESOLVE_CACHE: dict[str, FiniteGroup] = {}


# -- elementary tables ---------------------------------------------------------


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise SpecError("cyclic group order must be positive")
    idx = np.arange(n, dtype=np.int64)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table.astype(np.int32), name=name or f"C{n}",
                       gens=[1] if n > 1 else [], validate=False,
                       assume_associative=True)


def dihedral(n: int) -> FiniteGroup:
    if n < 3:
        raise SpecError("dihedral group needs n >= 3")
    rot = np.roll(np.arange(n, dtype=np.int32), -1)
    refl = (-np.arange(n, dtype=np.int64)) % n
    return from_perm_gens([rot, refl.astype(np.int32)], name=f"D{n}")


def quaternion8() -> FiniteGroup:
    # units {1,-1,i,-i,j,-j,k,-k}: index = axis*2 + (sign<0), axis 0 = scalar
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    def unit(idx: int) -> tuple[int, int]:
        return idx // 2, 1 - 2 * (idx % 2)  # (axis, sign)
    def index(axis: int, sign: int) -> int:
        return axis * 2 + (0 if sign > 0 else 1)
    axis_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (2, 0): (2, 1), (3, 0): (3, 1),
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, 1), (2, 1): (3, -1),
        (2, 3): (1, 1), (3, 2): (1, -1),
        (3, 1): (2, 1), (1, 3): (2, -1),
    }
    table = np.empty((8, 8), dtype=np.int32)
    for x in range(8):
        ax, sx = unit(x)
        for y in range(8):
            ay, sy = unit(y)
            az, sz = axis_mul[(ax, ay)]
            table[x, y] = index(az, sz * sx * sy)
    return FiniteGroup(table, name="Q8")


def symmetric(n: int) -> FiniteGroup:
    if not 2 <= n <= 6:
        raise SpecError("symmetric group tables are built for 2 <= n <= 6")
    cyc = np.roll(np.arange(n, dtype=np.int32), -1)
    swap = np.arange(n, dtype=np.int32)
    swap[[0, 1]] = [1, 0]
    return from_perm_gens([cyc, swap], name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if not 3 <= n <= 6:
        raise SpecError("alternating group tables are built for 3 <= n <= 6")
    # an n-cycle (n odd) or (n-1)-cycle (n even) is even; a 3-cycle completes it
    top = n if n % 2 == 1 else n - 1
    long_cycle = P.parse_cycles("(" + " ".join(map(str, range(top))) + ")", n)
    three_cycle = P.parse_cycles(f"({n - 3} {n - 2} {n - 1})", n)
    return from_perm_gens([long_cycle, three_cycle], name=f"A{n}")


# -- matrix groups over small fields --------------------------------------------


def _mat_mul(F: GaloisField, m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    mu, ad = F.mul, F.add
    return (
        ad[mu[a1, a2], mu[b1, c2]], ad[mu[a1, b2], mu[b1, d2]],
        ad[mu[c1, a2], mu[d1, c2]], ad[mu[c1, b2], mu[d1, d2]],
    )


def _det(F: GaloisField, m):
    a, b, c, d = m
    return F.add[F.mul[a, d], F.neg[F.mul[b, c]]]


def _gl2_elements(F: GaloisField) -> list[tuple[int, int, int, int]]:
    out = []
    for a in range(F.q):
        for b in range(F.q):
            for c in range(F.q):
                for d in range(F.q):
                    m = (a, b, c, d)
                    if _det(F, m) != 0:
                        out.append(m)
    return out


def from_perm_set(perm_rows: np.ndarray, *, name: str | None = None) -> FiniteGroup:
    """Group from its full set of permutations (must already be closed)."""
    rows = np.unique(np.asarray(perm_rows, dtype=np.int32), axis=0)
    degree = rows.shape[1]
    ident = np.arange(degree, dtype=np.int32)
    ident_pos = int(np.flatnonzero((rows == ident).all(axis=1))[0])
    order = [ident_pos] + [i for i in range(len(rows)) if i != ident_pos]
    rows = rows[order]
    return FiniteGroup(perm_table(rows), name=name,
                       perm_rep=PermRep(degree, _readonly(rows)),
                       validate=False, assume_associative=True)


def special_linear2(q: int) -> FiniteGroup:
    """SL(2, q) as an abstract Cayley table over matrix indices."""
    F = gf(q)
    mats = [m for m in _gl2_elements(F) if _det(F, m) == 1]
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    index = {m: i for i, m in enumerate(mats)}
    n = len(mats)
    mul = np.empty((n, n), dtype=np.int32)
    for i, m1 in enumerate(mats):
        for j, m2 in enumerate(mats):
            mul[i, j] = index[_mat_mul(F, m1, m2)]
    expected = q * (q - 1) * (q + 1)
    if n != expected:
        raise GroupError(f"SL(2,{q}) came out with order {n}, expected {expected}")
    return FiniteGroup(mul, name=f"SL(2,{q})", validate=False, assume_associative=True)


def _projective_action(F: GaloisField, mats) -> np.ndarray:
    """Permutations of the projective line: points x=0..q-1 are [x:1], q is [1:0]."""
    q = F.q
    mu, ad = F.mul, F.add
    a, b, c, d = (col[:, None] for col in np.asarray(mats, dtype=np.int64).T)
    v0 = np.append(np.arange(q), 1)  # point j is (v0[j], v1[j])
    v1 = np.append(np.ones(q, dtype=np.int64), 0)
    w0 = ad[mu[a, v0], mu[b, v1]]
    w1 = ad[mu[c, v0], mu[d, v1]]
    # [w0:w1] is [w0/w1 : 1] unless w1 = 0; inv[0] is a sentinel, never used
    return np.where(w1 != 0, mu[w0, F.inv[w1]], q).astype(np.int32)


def projective_general_linear2(q: int) -> FiniteGroup:
    F = gf(q)
    rows = _projective_action(F, _gl2_elements(F))
    G = from_perm_set(rows, name=f"PGL(2,{q})")
    expected = q * (q - 1) * (q + 1)
    if G.order != expected:
        raise GroupError(f"PGL(2,{q}) came out with order {G.order}, expected {expected}")
    return G


def projective_special_linear2(q: int) -> FiniteGroup:
    F = gf(q)
    mats = [m for m in _gl2_elements(F) if _det(F, m) == 1]
    rows = _projective_action(F, mats)
    G = from_perm_set(rows, name=f"PSL(2,{q})")
    return G


# -- the Aut(A6) tower -----------------------------------------------------------

_TOWER_CACHE: dict[str, FiniteGroup] = {}


def catalog_aut6_tower() -> dict[str, FiniteGroup]:
    """Aut(A6) and its three index-2 overgroups of Inn(A6), labeled.

    The three subgroups are distinguished by the element orders in their
    outer coset: no involutions identifies M10, elements of order 6 identify
    S6, and the remaining one is PGL(2,9).  Labels are then cross-checked by
    explicit isomorphism against independent permutation and matrix models,
    failing hard on any mismatch.
    """
    if _TOWER_CACHE:
        return dict(_TOWER_CACHE)
    A6 = resolve_spec("A6")
    aut = automorphism_group(A6)
    car = aut.carrier
    inner_members = aut.inner.members
    derived = commutator_subgroup(car)
    if not np.array_equal(derived.members, inner_members):
        raise GroupError("commutator subgroup of Aut(A6) is not Inn(A6)")
    Q, coset_of = quotient_group(car, derived)
    if Q.order != 4 or int(Q.elt_order.max()) != 2:
        raise GroupError(f"Aut(A6)/Inn(A6) is not the Klein group (order {Q.order})")
    inner_mask = np.zeros(car.order, dtype=bool)
    inner_mask[inner_members] = True
    overgroups: dict[str, FiniteGroup] = {}
    for qv in range(1, 4):
        members = np.flatnonzero((coset_of == 0) | (coset_of == qv))
        sub = Subgroup(car, members)
        outer = members[~inner_mask[members]]
        outer_orders = set(int(o) for o in car.elt_order[outer])
        if 2 not in outer_orders:
            label = "M10"
        elif 6 in outer_orders:
            label = "S6"
        else:
            label = "PGL(2,9)"
        if label in overgroups:
            raise GroupError(f"outer-coset labeling produced {label} twice")
        H, _ = sub.as_group(name=label)
        overgroups[label] = H
    if set(overgroups) != {"M10", "S6", "PGL(2,9)"}:
        raise GroupError(f"tower labeling incomplete: {sorted(overgroups)}")
    # cross-check labels against independent constructions
    if are_isomorphic(overgroups["S6"], symmetric(6)) is None:
        raise GroupError("tower S6 label failed the isomorphism cross-check")
    if are_isomorphic(overgroups["PGL(2,9)"], projective_general_linear2(9)) is None:
        raise GroupError("tower PGL(2,9) label failed the isomorphism cross-check")
    if are_isomorphic(overgroups["M10"], overgroups["S6"]) is not None:
        raise GroupError("tower M10 should not be isomorphic to S6")
    inn_group, _ = aut.inner.as_group(name="Inn(A6)")
    _TOWER_CACHE.update({
        "Aut(A6)": car,
        "Inn(A6)": inn_group,
        **overgroups,
    })
    return dict(_TOWER_CACHE)


# -- group file format -----------------------------------------------------------


def load_group_file(path: str | Path) -> FiniteGroup:
    """Text format: 'perm <degree>' + one generator per line, or 'table <n>' + rows."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    content = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    content = [(no, ln) for no, ln in content if ln and not ln.startswith("#")]
    if not content:
        raise SpecError(f"{path}: line 1: empty group file")
    no, header = content[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("perm", "table"):
        raise SpecError(f"{path}: line {no}: header must be 'perm <degree>' or 'table <n>'")
    try:
        size = int(parts[1])
    except ValueError:
        raise SpecError(f"{path}: line {no}: bad size {parts[1]!r}")
    if parts[0] == "perm":
        if size > 64:
            raise SpecError(f"{path}: line {no}: permutation degree capped at 64")
        gens = []
        for no, ln in content[1:]:
            try:
                gens.append(P.parse_cycles(ln, size, line=no))
            except P.PermParseError as exc:
                raise SpecError(f"{path}: {exc}")
        if not gens:
            raise SpecError(f"{path}: line {no}: no generators given")
        return from_perm_gens(gens, name=path.stem)
    rows = []
    for no, ln in content[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise SpecError(f"{path}: line {no}: table rows must be integers")
        if len(row) != size:
            raise SpecError(f"{path}: line {no}: expected {size} entries, got {len(row)}")
        rows.append(row)
    if len(rows) != size:
        raise SpecError(f"{path}: expected {size} table rows, got {len(rows)}")
    try:
        return from_mul_table(rows, name=path.stem)
    except GroupError as exc:
        raise SpecError(f"{path}: {exc}")


# -- spec grammar -----------------------------------------------------------------

_ATOM_RES: list[tuple[re.Pattern, Callable[[re.Match], FiniteGroup]]] = []


def _atom(pattern: str):
    def wrap(fn):
        _ATOM_RES.append((re.compile(pattern + r"$", re.IGNORECASE), fn))
        return fn
    return wrap


@_atom(r"C(\d+)")
def _spec_cyclic(m):
    return cyclic(int(m.group(1)))


@_atom(r"D(\d+)")
def _spec_dihedral(m):
    return dihedral(int(m.group(1)))


@_atom(r"S(\d+)")
def _spec_symmetric(m):
    return symmetric(int(m.group(1)))


@_atom(r"A(\d+)")
def _spec_alternating(m):
    return alternating(int(m.group(1)))


@_atom(r"V4")
def _spec_klein(m):
    return from_mul_table([[i ^ j for j in range(4)] for i in range(4)], name="V4")


@_atom(r"Q8")
def _spec_quaternion(m):
    return quaternion8()


@_atom(r"SL\(2,\s*(\d+)\)")
def _spec_sl2(m):
    q = int(m.group(1))
    if q > 11:
        raise SpecError("matrix groups are cataloged for q <= 11")
    return special_linear2(q)


@_atom(r"PSL\(2,\s*(\d+)\)")
def _spec_psl2(m):
    q = int(m.group(1))
    if q > 11:
        raise SpecError("matrix groups are cataloged for q <= 11")
    return projective_special_linear2(q)


@_atom(r"PGL\(2,\s*(\d+)\)")
def _spec_pgl2(m):
    q = int(m.group(1))
    if q > 11:
        raise SpecError("matrix groups are cataloged for q <= 11")
    return projective_general_linear2(q)


@_atom(r"M10")
def _spec_m10(m):
    return catalog_aut6_tower()["M10"]


@_atom(r"Aut\(A6\)")
def _spec_aut_a6(m):
    return catalog_aut6_tower()["Aut(A6)"]


def _split_top_level(s: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return parts


def normalize_spec(label: str) -> str:
    return re.sub(r"\s+", "", label)


def resolve_spec(label: str) -> FiniteGroup:
    """Build (or fetch from cache) the group named by a spec string.

    Grammar: named atoms (C4, D4, S5, A6, V4, Q8, SL(2,9), PSL(2,7),
    PGL(2,9), M10, Aut(A6)), file:<path>, AxCp(<spec>,<p>), and top-level
    direct products joined with 'x' such as C4xC2.
    """
    label = normalize_spec(label)
    if not label:
        raise SpecError("empty group spec")
    if label in _RESOLVE_CACHE:
        return _RESOLVE_CACHE[label]
    G = _resolve_uncached(label)
    _check_catalog_invariants(label, G)
    _RESOLVE_CACHE[label] = G
    return G


def _resolve_uncached(label: str) -> FiniteGroup:
    if label.startswith("file:"):
        return load_group_file(label[5:])
    m = re.match(r"AxCp\((.*),(\d+)\)$", label, re.IGNORECASE)
    if m:
        inner = resolve_spec(m.group(1))
        p = int(m.group(2))
        return direct_product(inner, cyclic(p), name=f"{inner.name}xC{p}")
    parts = _split_top_level(label, "x")
    if len(parts) > 1:
        G = resolve_spec(parts[0])
        for part in parts[1:]:
            H = resolve_spec(part)
            G = direct_product(G, H, name=f"{G.name}x{H.name}")
        return G
    for pattern, fn in _ATOM_RES:
        m = pattern.match(label)
        if m:
            return fn(m)
    raise SpecError(f"unknown group spec {label!r}")


_EXPECTED_ORDERS: dict[str, int] = {
    "PGL(2,9)": 720, "PSL(2,9)": 360, "SL(2,9)": 720, "M10": 720,
    "S5": 120, "S6": 720, "A5": 60, "A6": 360, "Q8": 8, "V4": 4,
}


def _check_catalog_invariants(label: str, G: FiniteGroup) -> None:
    import math

    expected = _EXPECTED_ORDERS.get(label)
    if expected is not None and G.order != expected:
        raise GroupError(f"{label} resolved to order {G.order}, expected {expected}")
    m = re.match(r"([CDSA])(\d+)$", label)
    if m:
        kind, n = m.group(1), int(m.group(2))
        want = {"C": n, "D": 2 * n, "S": math.factorial(n),
                "A": math.factorial(n) // 2}[kind]
        if G.order != want:
            raise GroupError(f"{label} resolved to order {G.order}, expected {want}")
    m = re.match(r"(P?[SG]L)\(2,(\d+)\)$", label)
    if m:
        q = int(m.group(2))
        full = q * (q - 1) * (q + 1)
        want = full if m.group(1) in ("SL", "PGL") else full // math.gcd(2, q - 1)
        if G.order != want:
            raise GroupError(f"{label} resolved to order {G.order}, expected {want}")
    if label == "SL(2,9)" and center(G).size != 2:
        raise GroupError("SL(2,9) must have a center of order 2")
    if label == "PGL(2,9)" and order_census(G, 8) == 0:
        raise GroupError("PGL(2,9) must contain elements of order 8")


def catalog_list() -> list[str]:
    """Labels accepted by resolve_spec, for the CLI."""
    return [
        "Cn (cyclic)", "Dn (dihedral, n>=3)", "Sn (2<=n<=6)", "An (3<=n<=6)",
        "V4", "Q8", "SL(2,q) q<=11", "PSL(2,q) q<=11", "PGL(2,q) q<=11",
        "M10", "Aut(A6)", "AxCp(<spec>,<p>)", "<spec>x<spec> (direct product)",
        "file:<path> (perm/table group file)",
    ]
