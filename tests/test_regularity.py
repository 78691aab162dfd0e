import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from conftest import bivalent_family
from sphere_ot import maps as mp
from sphere_ot import measures as me
from sphere_ot import regularity as rg
from sphere_ot import solver as so
from sphere_ot.errors import ConfigError, DomainError, InsufficientDataError


class TestHolderFit:
    def test_identity_map(self):
        mesh = me.quasi_uniform_mesh(2, 100, 0)
        rep = rg.holder_fit(mesh.points, mesh.points)
        assert rep.alpha_hat == pytest.approx(1.0, abs=0.02)
        assert rep.C_hat == pytest.approx(1.0, abs=0.05)
        assert not rep.degenerate

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_exact_exponent_recovery(self, alpha):
        points, values = rg.exact_exponent_fixture(alpha, 80, seed=3)
        r = pdist(points)
        window = (float(np.quantile(r, 0.05)), float(np.quantile(r, 0.95)))
        rep = rg.holder_fit(points, values, window=window)
        assert rep.alpha_hat == pytest.approx(alpha, abs=0.02)
        assert rep.C_hat == pytest.approx(1.0, abs=0.05)

    def test_fixture_is_exact(self):
        points, values = rg.exact_exponent_fixture(0.5, 60, seed=1)
        r = pdist(points)
        d = pdist(values)
        assert np.max(np.abs(d - r**0.5)) <= 1e-10

    def test_constant_map_degenerate(self):
        mesh = me.quasi_uniform_mesh(2, 60, 0)
        rep = rg.holder_fit(mesh.points, np.tile(mesh.points[0], (60, 1)))
        assert rep.degenerate
        assert math.isnan(rep.alpha_hat)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            rg.holder_fit(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_empty_window(self):
        mesh = me.quasi_uniform_mesh(2, 50, 0)
        with pytest.raises(InsufficientDataError):
            rg.holder_fit(mesh.points, mesh.points, window=(1e-9, 2e-9))

    def test_low_confidence_flag(self):
        points, values = rg.exact_exponent_fixture(1.0, 6, seed=0)
        rep = rg.holder_fit(points, values, window=(1e-6, 2.0))
        assert rep.pair_count < 30
        assert rep.low_confidence

    def test_holder_constant_on_fixture(self):
        points, values = rg.exact_exponent_fixture(0.5, 40, seed=2)
        r = pdist(points)
        window = (float(r.min()), float(r.max()))
        c = rg.holder_constant(points, values, 0.5, window)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_bad_alpha_fixture(self):
        with pytest.raises(ConfigError):
            rg.exact_exponent_fixture(1.5, 10)


class TestRegionConstants:
    def test_margin_is_min(self):
        # two nearby bivalent atoms with inner alignments -0.3 and -0.5
        mm = bivalent_family(2)
        mm.points = np.array([[0.0, 0.0, 1.0], [np.sin(0.1), 0.0, np.cos(0.1)]])
        for k, target_dot in enumerate((-0.3, -0.5)):
            x = mm.points[k]
            w = np.array([1.0, 0.0, 0.0]) - x[0] * x
            w /= np.linalg.norm(w)
            mm.minus[k] = target_dot * x + np.sqrt(1 - target_dot**2) * w
        lam = -2 * np.einsum("ij,ij->i", mm.points, mm.minus)
        mm.plus = mm.minus + lam[:, None] * mm.points
        consts = rg.region_constants(mm, np.array([0, 1]), window=(1e-12, 2.0))
        assert consts.k_U == pytest.approx(0.3)

    def test_formula_values(self):
        consts = rg.RegionConstants.from_holder(0.5, 3.0)
        assert consts.C_minus_statement == 15.0
        assert consts.C_minus_proof == 25.0

    def test_rejects_nonnegative_alignment(self):
        mm = bivalent_family(3)
        mm.minus[1] = mm.plus[1]  # inner image on the positive side
        with pytest.raises(DomainError):
            rg.region_constants(mm, np.arange(3), window=(1e-12, 2.0))

    def test_rejects_univalent_atoms(self):
        mm = bivalent_family(3)
        mm.bivalent[0] = False
        with pytest.raises(DomainError):
            rg.region_constants(mm, np.arange(3), window=(1e-12, 2.0))


class TestInnerBound:
    def test_family_within_bound(self):
        mm = bivalent_family(40)
        window = (0.01, 0.5)
        consts = rg.region_constants(mm, np.arange(40), window)
        ratio = rg.t_minus_bound_check(mm, np.arange(40), window, consts)
        assert 0 < ratio <= 1.0

    def test_converse_within_bound(self):
        mm = bivalent_family(40)
        ratio = rg.t_minus_bound_check(mm, np.arange(40), (0.01, 0.5), converse=True)
        assert 0 < ratio <= 1.0

    def test_generous_constant_on_univalent_data(self):
        # inner equals outer (continuous), tested against a generous constant
        mm = bivalent_family(30)
        mm.minus = mm.plus.copy()
        consts = rg.RegionConstants.from_holder(1.0, 10.0, rg.holder_exponent(2))
        ratio = rg.t_minus_bound_check(mm, np.arange(30), (0.01, 0.5), consts)
        assert ratio < 1.0

    def test_empty_pairs(self):
        mm = bivalent_family(5)
        with pytest.raises(InsufficientDataError):
            rg.t_minus_bound_check(mm, np.arange(5), (1e-9, 2e-9),
                                   rg.RegionConstants.from_holder(0.5, 3.0))


class TestSegmentNormal:
    def test_single_point_segment(self):
        mm = bivalent_family(2)
        mm.points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        mm.minus = np.array([[0.6, 0.0, -0.8], [0.6, 0.0, -0.8]])
        proj, ok = rg.segment_normal_check(mm, 0, 1, k_u=1.6)
        assert proj == pytest.approx(0.8, abs=1e-12)
        assert ok  # 0.8 > 1.6 / 2
        _, ok_high = rg.segment_normal_check(mm, 0, 1, k_u=1.7)
        assert not ok_high

    def test_nearby_split_pair(self):
        mm = bivalent_family(40)
        consts = rg.region_constants(mm, np.arange(40), (0.01, 0.5))
        proj, ok = rg.segment_normal_check(mm, 10, 11, consts.k_U)
        assert ok

    def test_antipodal_inner_images(self):
        mm = bivalent_family(2)
        mm.minus = np.array([[0.6, 0.0, -0.8], [-0.6, 0.0, 0.8]])
        with pytest.raises(DomainError):
            rg.segment_normal_check(mm, 0, 1, k_u=0.5)


class TestVectorLemma:
    def test_right_angle(self):
        alpha, margin = rg.vector_lemma_margin(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert alpha == 0.0
        assert margin == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_obtuse_pair(self):
        alpha, margin = rg.vector_lemma_margin(
            np.array([1.0, 0.0]), np.array([-math.sqrt(0.5), math.sqrt(0.5)])
        )
        assert alpha == pytest.approx(math.pi / 4, abs=1e-12)
        assert margin == pytest.approx(0.0583, abs=1e-3)

    def test_zero_v(self):
        alpha, margin = rg.vector_lemma_margin(np.array([2.0, 0.0]), np.zeros(2))
        assert alpha == 0.0 and margin == 0.0

    def test_zero_u_rejected(self):
        with pytest.raises(DomainError):
            rg.vector_lemma_margin(np.zeros(2), np.array([1.0, 0.0]))

    def test_antiparallel_rejected(self):
        with pytest.raises(DomainError):
            rg.vector_lemma_margin(np.array([1.0, 0.0]), np.array([-2.0, 0.0]))

    @given(
        st.integers(2, 4),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_margin_nonnegative(self, dim, u_raw, v_raw):
        u = np.array(u_raw[:dim])
        v = np.array(v_raw[:dim])
        if np.linalg.norm(u) < 1e-6:
            return
        try:
            _, margin = rg.vector_lemma_margin(u, v)
        except DomainError:
            return
        assert margin >= -1e-12

    def test_batch_matches_scalar(self, rng):
        us = rng.normal(size=(50, 3))
        vs = rng.normal(size=(50, 3))
        alphas, margins = rg.vector_lemma_margin_batch(us, vs)
        for k in range(50):
            a, m = rg.vector_lemma_margin(us[k], vs[k])
            assert alphas[k] == pytest.approx(a, abs=1e-12)
            assert margins[k] == pytest.approx(m, abs=1e-12)


def synthetic_inverse(points, s_plus, s_minus, region=None):
    points = np.asarray(points, dtype=float)
    count = len(points)
    s_plus = np.asarray(s_plus, dtype=float)
    s_minus = np.asarray(s_minus, dtype=float)
    omega = np.einsum("ij,ij->i", s_plus - s_minus, points)
    residual = np.linalg.norm(s_plus - s_minus - omega[:, None] * points, axis=1)
    if region is None:
        region = np.full(count, "T2", dtype="<U2")
    return mp.MultiMap(
        side="target",
        n=points.shape[1] - 1,
        points=points,
        plus=s_plus,
        minus=s_minus,
        jump=omega,
        residual=residual,
        bivalent=region == "T2",
        region=np.asarray(region, dtype="<U2"),
        plus_members=[np.array([j]) for j in range(count)],
        minus_members=[np.array([j]) for j in range(count)],
    )


class TestMonotonicity:
    def test_identity_inverse(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 20, rng)
        inv = synthetic_inverse(pts, pts, pts)
        value = rg.monotonicity_check(inv, np.arange(20))
        expected = min(pdist(pts)) ** 2
        assert value == pytest.approx(expected, rel=1e-9)
        assert value > 0

    def test_single_atom(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 3, rng)
        inv = synthetic_inverse(pts, pts, pts)
        with pytest.raises(InsufficientDataError):
            rg.monotonicity_check(inv, np.array([0]))

    def test_solved_instance(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        t2 = inv.indices_in("T2")
        assert rg.monotonicity_check(inv, t2) >= -1e-9


class TestDichotomy:
    def circle_inverse(self, omegas):
        # targets on the unit circle with prescribed split weights
        points = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        s_plus = points.copy()
        s_minus = points - omegas[:, None] * points
        # s_minus here is not unit; acceptable for the pure angle computation
        return synthetic_inverse(points, s_plus, s_minus)

    def test_equal_weights_zero_angle(self):
        inv = self.circle_inverse(np.array([1.5, 1.5, 1.5]))
        rep = rg.dichotomy_probe(inv, 0, m=50)
        k = list(rep.others).index(1)
        assert rep.betas[k] == pytest.approx(0.0, abs=1e-9)

    def test_known_arithmetic(self):
        # centre (1,0) with weight 2 against (0,1) with weight 1:
        # cos beta = 3 / sqrt(10)
        inv = self.circle_inverse(np.array([2.0, 1.0, 1.5]))
        rep = rg.dichotomy_probe(inv, 0, m=50)
        k = list(rep.others).index(1)
        assert rep.betas[k] == pytest.approx(math.acos(3 / math.sqrt(10)), abs=1e-12)
        assert math.degrees(rep.betas[k]) == pytest.approx(18.434948, abs=1e-4)
        assert rep.gamma_bound_ok

    def test_large_m_empty(self):
        inv = self.circle_inverse(np.array([2.0, 1.0, 1.5]))
        rep = rg.dichotomy_probe(inv, 0, m=10**9)
        assert len(rep.members) == 0
        assert math.isnan(rep.K_m)

    def test_coincident_weighted_normals_rejected(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        s_plus = points.copy()
        inv = synthetic_inverse(points, s_plus, s_plus)  # omega = 0 everywhere
        with pytest.raises(DomainError):
            rg.dichotomy_probe(inv, 0, m=50)

    def test_m_validation(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        t2 = inv.indices_in("T2")
        with pytest.raises(ConfigError):
            rg.dichotomy_probe(inv, int(t2[0]), m=1)

    def test_angle_bound_on_solved_instance(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        t2 = inv.indices_in("T2")
        for center in t2[:5]:
            rep = rg.dichotomy_probe(inv, int(center), m=50)
            assert rep.gamma_bound_ok


class TestInjectivity:
    def test_identity_maps(self, rng):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 15, rng)
        inv = synthetic_inverse(pts, pts, pts)
        window = (1e-9, 4.0)
        rep = rg.injectivity_lower_bound(inv, np.arange(15), exponent=7.0, window=window)
        assert rep.s_minus_ratio > 0
        assert rep.s_plus_ratio > 0
        r = pdist(pts)
        assert rep.s_minus_ratio == pytest.approx(np.min(r / r**7.0), rel=1e-9)

    def test_duplicates_dropped(self, rng):
        from sphere_ot import geometry as g

        p = g.random_sphere_points(2, 1, rng)[0]
        pts = np.array([p, p, p])
        inv = synthetic_inverse(pts, pts, pts)
        with pytest.raises(InsufficientDataError):
            rg.injectivity_lower_bound(inv, np.arange(3), exponent=7.0)

    def test_solved_instance_certifies(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        mm = bivalent_instance["mm"]
        t2 = inv.indices_in("T2")
        rep = rg.injectivity_lower_bound(inv, t2, exponent=7.0)
        assert rep.s_minus_ratio > 0
        window = rg.default_window(mm.points)
        s2 = mm.indices_in("S2")
        margins = -np.einsum("ij,ij->i", mm.points[s2], mm.minus[s2])
        usable = s2[margins > 0]
        consts = rg.region_constants(mm, usable, window)
        assert rep.s_minus_ratio >= 1.0 / consts.C_minus_proof
