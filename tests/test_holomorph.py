import hashlib

import numpy as np
import pytest

from hgs.catalog import resolve_spec
from hgs.groups import GroupError, center, normal_subgroups
from hgs.holomorph import (
    Checkpoint,
    build_holomorph,
    crossed_homomorphisms,
    derive_h,
    dual_regular_subgroup,
    group_digest,
    holomorph_equals_translation_normalizers,
    induce_on_quotient,
    is_characteristic,
    lambda_perms,
    normalized_by,
    regular_subgroups_in_holomorph,
    rho_perms,
)
from hgs.morphisms import (
    Homomorphism,
    automorphism_group,
    enumerate_homomorphisms,
    fixed_points,
)


def _trivial_f(G, hol):
    return Homomorphism(G, hol.aut.carrier, np.zeros(G.order, dtype=np.int32))


def test_holomorph_orders():
    assert build_holomorph(resolve_spec("C4")).order == 8
    assert build_holomorph(resolve_spec("V4")).order == 24
    assert build_holomorph(resolve_spec("A5")).order == 7200


def test_holomorph_pair_algebra():
    hol = build_holomorph(resolve_spec("S3"))
    pairs = [(e, a) for e in range(6) for a in range(hol.aut.order)]
    for p in pairs[:40]:
        inv = hol.pair_inv(p)
        assert hol.pair_mul(p, inv) == (0, 0)
        assert hol.pair_mul(inv, p) == (0, 0)


def test_holomorph_action_is_faithful_and_matches_pairs():
    G = resolve_spec("S3")
    hol = build_holomorph(G)
    perms = hol.all_pair_perms()
    assert len({row.tobytes() for row in perms}) == hol.order
    # pair action composes like pair multiplication
    p, q = (2, 1), (4, 3)
    left = hol.pair_perm(hol.pair_mul(p, q))
    right = hol.pair_perm(p)[hol.pair_perm(q)]
    assert np.array_equal(left, right)


@pytest.mark.parametrize("label", ["C6", "S3", "D4", "Q8", "C2xC2xC2"])
def test_pair_orders_match_pair_multiplication(label):
    hol = build_holomorph(resolve_spec(label))
    for a in range(hol.aut.order):
        expected = []
        for x in range(hol.base.order):
            q, k = (x, a), 1
            while q != (0, 0):
                q = hol.pair_mul(q, (x, a))
                k += 1
            expected.append(k)
        assert hol.pair_orders(a).tolist() == expected


def test_lambda_rho_pairs_act_as_translations():
    G = resolve_spec("S3")
    hol = build_holomorph(G)
    for g in range(6):
        assert np.array_equal(hol.pair_perm(hol.lambda_pair(g)), G.mul[g])
        assert np.array_equal(hol.pair_perm(hol.rho_pair(g)), G.mul[:, G.inv[g]])


def test_lambda_rho_centralize_each_other():
    G = resolve_spec("S3")
    lam, rho = lambda_perms(G), rho_perms(G)
    for a in lam:
        for b in rho:
            assert np.array_equal(a[b], b[a])


def test_normalizer_identity_small_groups():
    for label in ("C2", "C4", "V4", "C6", "S3"):
        assert holomorph_equals_translation_normalizers(resolve_spec(label))


def test_normalizer_identity_capped():
    with pytest.raises(GroupError, match="capped"):
        holomorph_equals_translation_normalizers(resolve_spec("C8"))


def test_trivial_f_crossed_homs_are_homomorphisms():
    C4 = resolve_spec("C4")
    hol = build_holomorph(C4)
    f = _trivial_f(C4, hol)
    all_maps = list(crossed_homomorphisms(hol, f))
    # with trivial f the crossed relation is plain multiplicativity
    assert len(all_maps) == 4  # Hom(C4, C4)
    bijective = [c for c in all_maps if c.bijective]
    assert len(bijective) == 2  # the two automorphisms


def test_no_bijective_crossed_hom_c4_to_v4():
    V4 = resolve_spec("V4")
    C4 = resolve_spec("C4")
    hol = build_holomorph(V4)
    f = _trivial_f(C4, hol)
    assert list(crossed_homomorphisms(hol, f, bijective_only=True)) == []


@pytest.mark.parametrize("g_label,n_label", [
    ("C4", "C4"), ("V4", "C4"), ("S3", "C6"), ("C6", "S3"), ("S3", "S3"),
    ("D4", "Q8"), ("Q8", "D4"), ("C4xC2", "D4"), ("C6", "C2"),
])
def test_trivial_f_crossed_homs_are_hom_enumeration(g_label, n_label):
    # a homomorphism is a crossed homomorphism for the trivial f, found in
    # the same order by the same search
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    hol = build_holomorph(N)
    crossed = [c.g.tolist() for c in crossed_homomorphisms(hol, _trivial_f(G, hol))]
    homs = [h.images.tolist() for h in enumerate_homomorphisms(G, N)]
    assert crossed == homs


def _crossed_sequence_digest(G, N):
    """sha256 over every emitted (f, g, bijective), all f's, both modes."""
    hol = build_holomorph(N)
    h = hashlib.sha256()
    count = 0
    for bijective_only in (False, True):
        for f in enumerate_homomorphisms(G, hol.aut.carrier):
            for c in crossed_homomorphisms(hol, f, bijective_only=bijective_only):
                h.update(c.f.images.tobytes())
                h.update(c.g.tobytes())
                h.update(bytes([c.bijective]))
                count += 1
            h.update(b"|")
    return h.hexdigest(), count


@pytest.mark.parametrize("g_label,n_label,digest,count", [
    ("S3", "C6", "b2b899766be02317cf58313c05b33759b962c5e4c60f4f3e6fe9e31c937e8711", 26),
    ("D4", "Q8", "d68d496089bd896a82c28a77a64a1a4b39f22093dedf738a1b15ed6013332389", 1216),
])
def test_crossed_emission_order_is_pinned(g_label, n_label, digest, count):
    # checkpoints and collected samples depend on this order
    G, N = resolve_spec(g_label), resolve_spec(n_label)
    assert _crossed_sequence_digest(G, N) == (digest, count)


def test_crossed_relation_verified_on_all_pairs(S5, A5xC2):
    hol = build_holomorph(A5xC2)
    f_list = list(enumerate_homomorphisms(S5, hol.aut.carrier))
    seen = 0
    for f in f_list:
        for c in crossed_homomorphisms(hol, f, bijective_only=True):
            assert c.verify()
            seen += 1
            if seen >= 50:
                return
    assert seen > 0


def test_derive_h_properties(S5, A5xC2):
    hol = build_holomorph(A5xC2)
    ZN = center(A5xC2)
    f_list = list(enumerate_homomorphisms(S5, hol.aut.carrier))
    checked = 0
    for f in f_list:
        for c in crossed_homomorphisms(hol, f, bijective_only=True):
            h = derive_h(c)  # construction fails if not a homomorphism
            fp = fixed_points(c.f, h)
            assert np.array_equal(fp, np.flatnonzero(np.isin(c.g, ZN.members)))
            checked += 1
            if checked >= 20:
                return
    assert checked > 0


def test_derive_h_trivial_f_identity_g():
    # with f trivial and g the identity map, h is conjugation; kernel = Z(N)
    Q8 = resolve_spec("Q8")
    hol = build_holomorph(Q8)
    f = _trivial_f(Q8, hol)
    from hgs.holomorph import CrossedHom
    c = CrossedHom(hol, f, np.arange(8, dtype=np.int32), bijective=True)
    assert c.verify()
    h = derive_h(c)
    assert h.kernel().size == center(Q8).size == 2


def test_induce_on_quotient_characteristic_only(A5xC2):
    hol = build_holomorph(A5xC2)
    f = _trivial_f(A5xC2, hol)
    c = next(crossed_homomorphisms(hol, f, bijective_only=True))
    subs = normal_subgroups(A5xC2)
    a5 = [s for s in subs if s.size == 60][0]
    c2 = [s for s in subs if s.size == 2][0]
    assert is_characteristic(hol.aut, a5)
    assert is_characteristic(hol.aut, c2)
    induced, pre = induce_on_quotient(c, a5)
    assert induced.source.order == 120 and induced.hol.base.order == 2
    assert pre.size == 60


def test_induce_on_trivial_and_full_subgroup(A5xC2):
    from hgs.groups import full_subgroup, trivial_subgroup
    hol = build_holomorph(A5xC2)
    f = _trivial_f(A5xC2, hol)
    c = next(crossed_homomorphisms(hol, f, bijective_only=True))
    ind, pre = induce_on_quotient(c, trivial_subgroup(A5xC2))
    assert np.array_equal(ind.g, c.g)
    assert pre.size == 1
    ind2, pre2 = induce_on_quotient(c, full_subgroup(A5xC2))
    assert ind2.hol.base.order == 1
    assert pre2.size == 120


def test_induce_rejects_non_characteristic():
    # the three order-2 subgroups of V4 are normal but not characteristic
    V4 = resolve_spec("V4")
    hol = build_holomorph(V4)
    f = _trivial_f(V4, hol)
    c = next(crossed_homomorphisms(hol, f, bijective_only=True))
    from hgs.groups import Subgroup
    sub = Subgroup(V4, np.array([0, 1], dtype=np.int64))
    with pytest.raises(GroupError, match="characteristic"):
        induce_on_quotient(c, sub)


def test_regular_counts_v4_c4_fixtures():
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    r = regular_subgroups_in_holomorph(V4, C4, collect_subgroups=True)
    assert (r.pair_count, r.subgroup_count) == (6, 3)
    r2 = regular_subgroups_in_holomorph(C4, V4, collect_subgroups=True)
    assert (r2.pair_count, r2.subgroup_count) == (6, 1)


def test_regular_subgroup_members_are_regular():
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    r = regular_subgroups_in_holomorph(V4, C4, collect_subgroups=True)
    for D in r.samples:
        evals = D.members[:, 0]
        assert len(np.unique(evals)) == 4
        H = D.as_group()
        assert H.order == 4 and H.elt_order.max() == 4  # cyclic


def test_dual_of_lambda_is_rho():
    G = resolve_spec("S3")
    from hgs.holomorph import RegularSubgroup
    lam = RegularSubgroup(G, lambda_perms(G), ambient="perm")
    dual = dual_regular_subgroup(lam)
    assert dual.member_set() == {row.tobytes() for row in rho_perms(G)}


def test_double_dual_and_abelian_self_dual():
    G = resolve_spec("C6")
    from hgs.holomorph import RegularSubgroup
    lam = RegularSubgroup(G, lambda_perms(G), ambient="perm")
    dual = dual_regular_subgroup(lam)
    assert dual.key() == lam.key()  # abelian: self-dual
    assert dual_regular_subgroup(dual).key() == lam.key()


def test_normalized_by_lambda_self():
    G = resolve_spec("S3")
    from hgs.holomorph import RegularSubgroup
    lam = RegularSubgroup(G, lambda_perms(G), ambient="perm")
    assert normalized_by(lam, lambda_perms(G, G.gens))


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "run.ckpt"
    ck = Checkpoint("aaaa", "bbbb", "rho-semidirect-v1", 17, 4242)
    ck.write(path)
    back = Checkpoint.read(path)
    assert back == ck


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(GroupError, match="not a checkpoint"):
        Checkpoint.read(path)


def test_checkpoint_rejects_the_per_f_format(tmp_path):
    # format 1 counted single f's; its index means nothing in an orbit run
    path = tmp_path / "old.ckpt"
    V4, C4 = _matching_checkpoint(path, 0, 0)
    path.write_text(path.read_text().replace("hgs-checkpoint/2", "hgs-checkpoint/1")
                    .replace("orbit-index", "f-index"))
    with pytest.raises(GroupError, match="hgs-checkpoint/1"):
        regular_subgroups_in_holomorph(V4, C4, checkpoint_path=path)


def test_checkpoint_resume_reproduces_counts(tmp_path):
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    running = []
    full = regular_subgroups_in_holomorph(
        V4, C4, log=lambda oi, total, pairs: running.append((oi, pairs)))
    assert len(running) == full.orbit_count
    # rewind to the state after the first completed orbit and resume; the
    # total must match the uninterrupted run exactly
    path = tmp_path / "resume.ckpt"
    regular_subgroups_in_holomorph(V4, C4, checkpoint_path=path)
    ck = Checkpoint.read(path)
    assert ck.orbit_index == full.orbit_count - 1
    assert ck.pair_count == full.pair_count
    # a finished run's checkpoint is in range and resumes to its own total
    done = regular_subgroups_in_holomorph(V4, C4, checkpoint_path=path)
    assert done.pair_count == full.pair_count
    mid = Checkpoint(group_digest(C4), group_digest(V4), ck.convention,
                     running[0][0], running[0][1])
    mid.write(path)
    resumed = regular_subgroups_in_holomorph(V4, C4, checkpoint_path=path)
    assert resumed.pair_count == full.pair_count


def test_checkpoint_rejects_wrong_run(tmp_path):
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    path = tmp_path / "wrong.ckpt"
    Checkpoint("dead", "beef", "rho-semidirect-v1", 0, 0).write(path)
    with pytest.raises(GroupError, match="different run"):
        regular_subgroups_in_holomorph(V4, C4, checkpoint_path=path)


def _matching_checkpoint(path, orbit_index, pair_count):
    """A checkpoint for the (G, N) = (C4, V4) run, with the given progress."""
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    Checkpoint(group_digest(C4), group_digest(V4), "rho-semidirect-v1",
               orbit_index, pair_count).write(path)
    return V4, C4


def test_checkpoint_rejects_non_integer_fields(tmp_path):
    path = tmp_path / "bad.ckpt"
    _matching_checkpoint(path, "x3", 0)
    with pytest.raises(GroupError, match="not an integer"):
        Checkpoint.read(path)


@pytest.mark.parametrize("orbit_index, pair_count, message", [
    (99, 8, "outside"),
    (-2, 0, "outside"),
    (1, -8, "impossible pair-count"),
    (-1, 8, "impossible pair-count"),
])
def test_checkpoint_rejects_impossible_progress(tmp_path, orbit_index, pair_count,
                                                message):
    path = tmp_path / "bad.ckpt"
    V4, C4 = _matching_checkpoint(path, orbit_index, pair_count)
    run = regular_subgroups_in_holomorph(V4, C4)
    assert (run.f_total, run.orbit_count) == (4, 2)
    with pytest.raises(GroupError, match=message):
        regular_subgroups_in_holomorph(V4, C4, checkpoint_path=path)


def test_checkpointed_run_digests_each_group_once(tmp_path, monkeypatch):
    import hgs.holomorph
    digested = []
    monkeypatch.setattr(hgs.holomorph, "group_digest",
                        lambda G: digested.append(G) or group_digest(G))
    V4, C4 = resolve_spec("V4"), resolve_spec("C4")
    regular_subgroups_in_holomorph(V4, C4, checkpoint_path=tmp_path / "run.ckpt")
    assert digested == [C4, V4]


def test_pair_count_divisible_by_aut_g(S5, A5xC2):
    r = regular_subgroups_in_holomorph(A5xC2, S5)
    assert r.pair_count == 2400
    assert r.pair_count % automorphism_group(S5).order == 0
