"""Named group catalog, spec parsing, and the Aut(A6) tower.

Resolution is deterministic and cached by normalized label.  Matrix groups
are built over the pinned finite-field tables and converted either to a
permutation action on the projective line (PGL, PSL) or to a Cayley table
(SL).  PGL(2, q) acts with one matrix per point map.  M10 has a matrix
model too: PSL(2, 9) together with the maps x -> (a x^3 + b)/(c x^3 + d)
of non-square determinant.  The catalog still cuts M10 out of Aut(A6) and
labels it by its outer-coset element orders, since the tower is built and
cross-checked anyway and a second model would keep a second table.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Callable

import numpy as np

from . import perms as P
from .fields import FieldError, GaloisField, gf
from .groups import (
    ELEMENT_DTYPE,
    PERM_INPUT_DEGREE_CAP,
    CapExceededError,
    FiniteGroup,
    GroupError,
    PermRep,
    RowIndex,
    Subgroup,
    _readonly,
    commutator_subgroup,
    direct_product,
    from_perm_gens,
    order_census,
    quotient_group,
    center,
    sorted_distinct,
    table_cap,
)
from .morphisms import are_isomorphic, automorphism_group


class SpecError(GroupError):
    """Unknown or malformed group spec."""


_RESOLVE_CACHE: dict[str, FiniteGroup] = {}


# -- elementary tables ---------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise SpecError("cyclic group order must be positive")
    if n > table_cap():
        raise CapExceededError(f"cyclic order {n} above table cap {table_cap()}")
    idx = np.arange(n, dtype=ELEMENT_DTYPE)
    twice = np.concatenate([idx, idx])
    table = np.empty((n, n), dtype=ELEMENT_DTYPE)
    for i in range(n):  # row i is i, i+1, .., n-1, 0, .., i-1
        table[i] = twice[i:i + n]
    return FiniteGroup(table, name=f"C{n}",
                       gens=[1] if n > 1 else [], validate=False)


def dihedral(n: int) -> FiniteGroup:
    if n < 3:
        raise SpecError("dihedral group needs n >= 3")
    rot = np.roll(np.arange(n), -1)
    refl = -np.arange(n) % n
    return from_perm_gens([rot, refl], name=f"D{n}")


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
    table = np.empty((8, 8), dtype=ELEMENT_DTYPE)
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
    cyc = np.roll(np.arange(n), -1)
    swap = np.arange(n)
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


def _det(F: GaloisField, m):
    a, b, c, d = m
    return F.add[F.mul[a, d], F.neg[F.mul[b, c]]]


def _gl2_elements(F: GaloisField) -> np.ndarray:
    """The invertible matrices (a, b, c, d) over F, one row each, in
    lexicographic order."""
    mats = np.indices((F.q,) * 4).reshape(4, -1).T
    return mats[_det(F, mats.T) != 0]


def _sl2_elements(F: GaloisField) -> np.ndarray:
    mats = _gl2_elements(F)
    return mats[_det(F, mats.T) == 1]


def _pgl2_elements(F: GaloisField) -> np.ndarray:
    """One invertible matrix per point map of the projective line: those
    whose first row has the field's 1 as its first nonzero entry, in
    lexicographic order.  Two matrices map the points alike exactly when
    one is a scalar multiple of the other, and of the q - 1 multiples of
    a matrix exactly one has that entry 1."""
    mats = _gl2_elements(F)
    lead = np.where(mats[:, 0] != 0, mats[:, 0], mats[:, 1])
    one = F.mul[F.q - 1, F.inv[F.q - 1]]  # a unit times its inverse
    return mats[lead == one]


def from_perm_set(perm_rows: np.ndarray, *, name: str | None = None) -> FiniteGroup:
    """Group from its full set of permutations; GroupError unless they form one."""
    rows = np.asarray(perm_rows, dtype=np.int64)  # checked wide, so nothing wraps
    degree = rows.shape[1]
    bad = (np.sort(rows, axis=1) != np.arange(degree)).any(axis=1)
    if bad.any():
        raise GroupError(f"row {rows[bad][0].tolist()} is not a permutation")
    rows = sorted_distinct(rows.astype(ELEMENT_DTYPE))
    return FiniteGroup(RowIndex(rows).table(), name=name,
                       perm_rep=PermRep(degree, _readonly(rows)), validate=False)


def special_linear2(q: int) -> FiniteGroup:
    """SL(2, q) as an abstract Cayley table over matrix indices.

    The matrices, identity first and the rest in lexicographic order, act
    on the q^2 vectors (x, y) of GF(q)^2, vector x q + y; that action is
    faithful, so its permutations multiply as the matrices do.
    """
    F = gf(q)
    mats = _sl2_elements(F)
    is_ident = (mats == (1, 0, 0, 1)).all(axis=1)
    mats = np.concatenate([mats[is_ident], mats[~is_ident]])  # the rest stay sorted
    n = len(mats)
    expected = q * (q - 1) * (q + 1)
    if n != expected:
        raise GroupError(f"SL(2,{q}) came out with order {n}, expected {expected}")
    mu, ad = F.mul, F.add
    a, b, c, d = (col[:, None] for col in mats.T)
    x, y = np.divmod(np.arange(q * q), q)
    images = ad[mu[a, x], mu[b, y]] * q + ad[mu[c, x], mu[d, y]]
    return FiniteGroup(RowIndex(images).table(), name=f"SL(2,{q})", validate=False)


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
    return np.where(w1 != 0, mu[w0, F.inv[w1]], q).astype(ELEMENT_DTYPE)


def projective_general_linear2(q: int) -> FiniteGroup:
    F = gf(q)
    rows = _projective_action(F, _pgl2_elements(F))
    G = from_perm_set(rows, name=f"PGL(2,{q})")
    expected = q * (q - 1) * (q + 1)
    if G.order != expected:
        raise GroupError(f"PGL(2,{q}) came out with order {G.order}, expected {expected}")
    return G


def projective_special_linear2(q: int) -> FiniteGroup:
    F = gf(q)
    rows = _projective_action(F, _sl2_elements(F))
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
    # cross-check labels against independent constructions: the catalog's
    # permutation and matrix models, built once and cached
    if are_isomorphic(overgroups["S6"], resolve_spec("S6")) is None:
        raise GroupError("tower S6 label failed the isomorphism cross-check")
    if are_isomorphic(overgroups["PGL(2,9)"], resolve_spec("PGL(2,9)")) is None:
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
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: cannot read the file: {exc}")
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
    if size < 1:
        raise SpecError(f"{path}: line {no}: size must be at least 1, got {size}")
    if parts[0] == "perm":
        if size > PERM_INPUT_DEGREE_CAP:
            raise SpecError(f"{path}: line {no}: permutation degree capped at "
                            f"{PERM_INPUT_DEGREE_CAP}")
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
        return FiniteGroup(rows, name=path.stem)
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
    return FiniteGroup([[i ^ j for j in range(4)] for i in range(4)], name="V4")


@_atom(r"Q8")
def _spec_quaternion(m):
    return quaternion8()


def _matrix_field_order(m) -> int:
    """The q of a matrix spec, checked to name a cataloged field."""
    q = int(m.group(1))
    if q > 11:
        raise SpecError("matrix groups are cataloged for q <= 11")
    try:
        gf(q)
    except FieldError as exc:
        raise SpecError(f"no field GF({q}): {exc}")
    return q


@_atom(r"SL\(2,\s*(\d+)\)")
def _spec_sl2(m):
    return special_linear2(_matrix_field_order(m))


@_atom(r"PSL\(2,\s*(\d+)\)")
def _spec_psl2(m):
    return projective_special_linear2(_matrix_field_order(m))


@_atom(r"PGL\(2,\s*(\d+)\)")
def _spec_pgl2(m):
    return projective_general_linear2(_matrix_field_order(m))


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


# the orders the two pattern rules below do not already check
_EXPECTED_ORDERS: dict[str, int] = {"M10": 720, "Q8": 8, "V4": 4}


def _check_catalog_invariants(label: str, G: FiniteGroup) -> None:
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
