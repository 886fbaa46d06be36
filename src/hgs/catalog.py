"""Named group catalog, spec parsing, and the Aut(A6) tower.

Every named family is one row of ``FAMILIES``: its canonical spelling,
builder, order formula and ``hgs catalog list`` entry.  Resolution is
deterministic and cached by canonical spelling.  Matrix groups
are built over the pinned finite-field tables and converted either to a
permutation action on the projective line (PGL, PSL) or to a Cayley table
(SL).  PGL(2, q) acts with one matrix per point map.  M10 has a matrix
model too: PSL(2, 9) together with the maps x -> (a x^3 + b)/(c x^3 + d)
of non-square determinant.  The catalog still takes M10 from the Aut(A6)
tower, labeled by its outer-coset element orders, since the tower is built
and cross-checked anyway and a second model would keep a second table.
The tower is built from A6's Inn-coset representatives, one coset pair at
a time, so no Aut(A6) table is built for it; the family Aut(A6) is A6's
automorphism group, built when it is asked for.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import perms as P
from .fields import FieldError, GaloisField, _is_prime, gf
from .groups import (
    ELEMENT_DTYPE,
    PERM_INPUT_DEGREE_CAP,
    CapExceededError,
    FiniteGroup,
    GroupError,
    PermRep,
    RowIndex,
    _readonly,
    direct_product,
    from_perm_gens,
    order_census,
    center,
    sorted_distinct,
    table_cap,
)
from .morphisms import (are_isomorphic, automorphism_group, conjugators, coset_group,
                        outer_coset_reps)


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


def _field(q: int) -> GaloisField:
    """GF(q) for a matrix group; SpecError unless the catalog has that field."""
    if q > 11:
        raise SpecError("matrix groups are cataloged for q <= 11")
    try:
        return gf(q)
    except FieldError as exc:
        raise SpecError(f"no field GF({q}): {exc}")


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
    F = _field(q)
    mats = _sl2_elements(F)
    is_ident = (mats == (1, 0, 0, 1)).all(axis=1)
    mats = np.concatenate([mats[is_ident], mats[~is_ident]])  # the rest stay sorted
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
    F = _field(q)
    return from_perm_set(_projective_action(F, _pgl2_elements(F)), name=f"PGL(2,{q})")


def projective_special_linear2(q: int) -> FiniteGroup:
    F = _field(q)
    return from_perm_set(_projective_action(F, _sl2_elements(F)), name=f"PSL(2,{q})")


# -- the Aut(A6) tower -----------------------------------------------------------

_TOWER_CACHE: dict[str, FiniteGroup] = {}


def catalog_aut6_tower() -> dict[str, FiniteGroup]:
    """Inn(A6) and the three index-2 overgroups of it in Aut(A6), labeled.

    Built from the Inn-coset representatives of A6's automorphism search
    (``outer_coset_reps``), one group per set of cosets (``coset_group``);
    Aut(A6) itself is never built.  Inn(A6) is the coset that holds the
    identity, and each overgroup is Inn(A6) u Inn(A6) phi for one of the
    other three representatives phi.  That Aut(A6)/Inn(A6) is the Klein
    group and Inn(A6) its commutator subgroup follows from what is
    checked: there are four cosets; each Inn(A6) u Inn(A6) phi closes,
    since its table build raises otherwise, so every coset squares into
    Inn(A6) and the quotient has order 4 and exponent 2; and A6 is
    perfect, so Inn = [Inn, Inn] <= [Aut, Aut] <= Inn.

    An overgroup is labeled by the element orders of its outer coset:
    with phi^2 = c_h0, (c_h phi)^2 = c_{h phi(h) h0}, and c_h phi is not
    inner, so its order is twice that of h phi(h) h0.  No involutions
    identifies M10, elements of order 6 identify S6, and the remaining
    one is PGL(2,9).  Labels are then cross-checked by explicit
    isomorphism against independent permutation and matrix models,
    failing hard on any mismatch.
    """
    if _TOWER_CACHE:
        return dict(_TOWER_CACHE)
    A6 = resolve_spec("A6")
    reps = outer_coset_reps(A6)
    if len(reps) != 4:
        raise GroupError(f"[Aut(A6):Inn(A6)] is {len(reps)}, not 4")
    inner_reps = [q for q, phi in enumerate(reps) if len(conjugators(A6, phi))]
    if len(inner_reps) != 1:
        raise GroupError(f"{len(inner_reps)} of the Aut(A6) coset representatives "
                         "are inner, not 1")
    q0 = inner_reps[0]
    tower = {"Inn(A6)": coset_group(A6, reps[[q0]], "Inn(A6)")[0]}
    for q, phi in enumerate(reps):
        if q == q0:
            continue
        h0 = conjugators(A6, phi[phi])
        if len(h0) != 1:
            raise GroupError("an outer automorphism of A6 does not square into Inn(A6)")
        square = A6.mul[A6.mul[np.arange(A6.order), phi], h0[0]]  # h phi(h) h0 per h
        outer_orders = set((2 * A6.elt_order[square]).tolist())
        if 2 not in outer_orders:
            label = "M10"
        elif 6 in outer_orders:
            label = "S6"
        else:
            label = "PGL(2,9)"
        if label in tower:
            raise GroupError(f"outer-coset labeling produced {label} twice")
        tower[label] = coset_group(A6, reps[[q0, q]], label)[0]
    if set(tower) != {"Inn(A6)", "M10", "S6", "PGL(2,9)"}:
        raise GroupError(f"tower labeling incomplete: {sorted(tower)}")
    # cross-check labels against independent constructions: the catalog's
    # permutation and matrix models, built once and cached
    if are_isomorphic(tower["S6"], resolve_spec("S6")) is None:
        raise GroupError("tower S6 label failed the isomorphism cross-check")
    if are_isomorphic(tower["PGL(2,9)"], resolve_spec("PGL(2,9)")) is None:
        raise GroupError("tower PGL(2,9) label failed the isomorphism cross-check")
    if are_isomorphic(tower["M10"], tower["S6"]) is not None:
        raise GroupError("tower M10 should not be isomorphic to S6")
    _TOWER_CACHE.update(tower)
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
    except CapExceededError:
        raise
    except GroupError as exc:
        raise SpecError(f"{path}: {exc}")


# -- the catalog table and the spec grammar ------------------------------------------


class Family(NamedTuple):
    """A named group family: its canonical spec, with ``{}`` standing for
    the family's number if it has one, and the builder and order formula
    that take that number."""
    spelling: str
    build: Callable[..., FiniteGroup]
    order: Callable[..., int]
    entry: str  # its line in ``hgs catalog list``


FAMILIES = (
    Family("C{}", cyclic, lambda n: n, "Cn (cyclic)"),
    Family("D{}", dihedral, lambda n: 2 * n, "Dn (dihedral, n>=3)"),
    Family("S{}", symmetric, math.factorial, "Sn (2<=n<=6)"),
    Family("A{}", alternating, lambda n: math.factorial(n) // 2, "An (3<=n<=6)"),
    Family("V4", lambda: FiniteGroup([[i ^ j for j in range(4)] for i in range(4)], name="V4"),
           lambda: 4, "V4"),
    Family("Q8", quaternion8, lambda: 8, "Q8"),
    Family("SL(2,{})", special_linear2, lambda q: q ** 3 - q, "SL(2,q) q<=11"),
    Family("PSL(2,{})", projective_special_linear2,
           lambda q: (q ** 3 - q) // math.gcd(2, q - 1), "PSL(2,q) q<=11"),
    Family("PGL(2,{})", projective_general_linear2, lambda q: q ** 3 - q, "PGL(2,q) q<=11"),
    Family("M10", lambda: catalog_aut6_tower()["M10"], lambda: 720, "M10"),
    Family("Aut(A6)", lambda: automorphism_group(resolve_spec("A6")).carrier,
           lambda: 1440, "Aut(A6)"),
)


# each spelling as a case-insensitive pattern, {} matching the family's
# number; compiled at import, so that no resolve pays for it
_PATTERNS = [re.compile(re.escape(family.spelling).replace(r"\{\}", r"(\d+)"), re.IGNORECASE)
             for family in FAMILIES]


def _atom(label: str) -> tuple[Family, tuple[int, ...]] | None:
    """The family a spec names, matched case-insensitively, and its number."""
    for family, pattern in zip(FAMILIES, _PATTERNS):
        m = pattern.fullmatch(label)
        if m:
            return family, tuple(map(int, m.groups()))
    return None


def _factors(label: str) -> list[str]:
    """The factors of a direct product spec: the parts between the x or X
    outside parentheses, where the x of the name AxCp does not count."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(label):
        ch = label[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and label[i:i + 4].lower() == "axcp":
            i += 3  # on to the p, past the name's x
        elif depth == 0 and ch in "xX":
            parts.append(label[start:i])
            start = i + 1
        i += 1
    parts.append(label[start:])
    return parts


def _parse(label: str) -> tuple[str, Callable[[], FiniteGroup]]:
    """A spec's canonical spelling and a function that builds its group."""
    label = re.sub(r"\s+", "", label)
    if not label:
        raise SpecError("empty group spec")
    if label.startswith("file:"):
        return label, lambda: load_group_file(label[5:])
    parts = _factors(label)
    m = None if len(parts) > 1 else re.fullmatch(r"AxCp\((.*),(\d+)\)", label, re.IGNORECASE)
    if m:
        if not _is_prime(int(m[2])):
            raise SpecError(f"AxCp needs a prime p, got {int(m[2])}")
        parts = [m[1], f"C{m[2]}"]
    elif len(parts) == 1:
        atom = _atom(label)
        if atom is None:
            raise SpecError(f"unknown group spec {label!r}")
        family, n = atom
        return family.spelling.format(*n), lambda: family.build(*n)
    factors = [_parse(part) for part in parts]

    def build_product():
        G = _resolved(*factors[0])
        for factor in factors[1:]:
            H = _resolved(*factor)
            G = direct_product(G, H, name=f"{G.name}x{H.name}")
        return G
    if m:
        return f"AxCp({factors[0][0]},{int(m[2])})", build_product
    return "x".join(canonical for canonical, _ in factors), build_product


def resolve_spec(label: str) -> FiniteGroup:
    """Build (or fetch from cache) the group named by a spec string.

    Grammar: the families of ``FAMILIES`` (C4, D4, S5, A6, V4, Q8, SL(2,9),
    PSL(2,7), PGL(2,9), M10, Aut(A6)), named in any case, file:<path>,
    AxCp(<spec>,<p>) for a prime p, and direct products of any of these
    joined with x or X outside parentheses, such as C4xC2 or AxCp(A5,2)xC3.
    Every spelling of a spec gives one cached group.
    """
    return _resolved(*_parse(label))


def _resolved(canonical: str, build: Callable[[], FiniteGroup]) -> FiniteGroup:
    G = _RESOLVE_CACHE.get(canonical)
    if G is None:
        G = build()
        _check_catalog_invariants(canonical, G)
        _RESOLVE_CACHE[canonical] = G
    return G


def _check_catalog_invariants(label: str, G: FiniteGroup) -> None:
    """The order formula of the family ``label`` names, and the structure
    that the order-720 counts rely on in SL(2,9) and PGL(2,9)."""
    atom = _atom(label)
    if atom is None:
        return
    family, n = atom
    want = family.order(*n)
    if G.order != want:
        raise GroupError(f"{label} resolved to order {G.order}, expected {want}")
    canonical = family.spelling.format(*n)
    if canonical == "SL(2,9)" and center(G).size != 2:
        raise GroupError("SL(2,9) must have a center of order 2")
    if canonical == "PGL(2,9)" and order_census(G, 8) == 0:
        raise GroupError("PGL(2,9) must contain elements of order 8")


def catalog_list() -> list[str]:
    """Specs accepted by resolve_spec, for the CLI."""
    return [family.entry for family in FAMILIES] + [
        "AxCp(<spec>,<p>)", "<spec>x<spec> (direct product)",
        "file:<path> (perm/table group file)",
    ]
