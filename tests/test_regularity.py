import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from conftest import bivalent_family, exact_exponent_fixture, vector_lemma_margin
from sphere_ot import maps as mp
from sphere_ot import measures as me
from sphere_ot import regularity as rg
from sphere_ot.errors import ConfigError, DomainError, InsufficientDataError


class TestHolderFit:
    def test_identity_map(self):
        mesh = me.quasi_uniform_mesh(2, 100, 0)
        rep = rg.holder_fit(mesh.points, mesh.points,
                            rg.scale_window(me.median_spacing(mesh.points)))
        assert rep.alpha_hat == pytest.approx(1.0, abs=0.02)
        assert rep.C_hat == pytest.approx(1.0, abs=0.05)
        assert not rep.degenerate

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_exact_exponent_recovery(self, alpha):
        points, values = exact_exponent_fixture(alpha, 80, seed=3)
        r = pdist(points)
        window = (float(np.quantile(r, 0.05)), float(np.quantile(r, 0.95)))
        rep = rg.holder_fit(points, values, window=window)
        assert rep.alpha_hat == pytest.approx(alpha, abs=0.02)
        assert rep.C_hat == pytest.approx(1.0, abs=0.05)

    def test_fixture_is_exact(self):
        points, values = exact_exponent_fixture(0.5, 60, seed=1)
        r = pdist(points)
        d = pdist(values)
        assert np.max(np.abs(d - r**0.5)) <= 1e-10

    def test_constant_map_degenerate(self):
        mesh = me.quasi_uniform_mesh(2, 60, 0)
        rep = rg.holder_fit(mesh.points, np.tile(mesh.points[0], (60, 1)),
                            rg.scale_window(me.median_spacing(mesh.points)))
        assert rep.degenerate
        assert math.isnan(rep.alpha_hat)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            rg.holder_fit(np.zeros((1, 3)), np.zeros((1, 3)), (0.01, 0.5))

    def test_empty_window(self):
        mesh = me.quasi_uniform_mesh(2, 50, 0)
        with pytest.raises(InsufficientDataError):
            rg.holder_fit(mesh.points, mesh.points, window=(1e-9, 2e-9))

    def test_low_confidence_flag(self):
        points, values = exact_exponent_fixture(1.0, 6, seed=0)
        rep = rg.holder_fit(points, values, window=(1e-6, 2.0))
        assert rep.pair_count < 30
        assert rep.low_confidence

    def test_holder_constant_on_fixture(self):
        points, values = exact_exponent_fixture(0.5, 40, seed=2)
        r = pdist(points)
        window = (float(r.min()), float(r.max()))
        c = rg.holder_constant(points, values, 0.5, window)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_bad_alpha_fixture(self):
        with pytest.raises(ConfigError):
            exact_exponent_fixture(1.5, 10)


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
        consts = rg.RegionConstants.from_holder(0.5, 3.0, rg.holder_exponent(2))
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

    def test_generous_constant_on_univalent_data(self):
        # inner equals outer (continuous), tested against a generous constant
        mm = bivalent_family(30)
        mm.minus = mm.plus.copy()
        consts = rg.RegionConstants.from_holder(1.0, 10.0, rg.holder_exponent(2))
        ratio = rg.t_minus_bound_check(mm, np.arange(30), (0.01, 0.5), consts)
        assert ratio < 1.0

    def test_empty_pairs(self):
        mm = bivalent_family(5)
        consts = rg.RegionConstants.from_holder(0.5, 3.0, rg.holder_exponent(2))
        with pytest.raises(InsufficientDataError):
            rg.t_minus_bound_check(mm, np.arange(5), (1e-9, 2e-9), consts)


def segment_normal_check(mm, i0: int, i1: int, k_u: float):
    """Alignment of both sources with the inward normal along the inner segment.

    Samples the segment between the two inner images at 100 even steps,
    ends included; at each sample u the inward direction is -u/|u|, and the
    check passes when both sources' projections onto it stay above k_u / 2
    (up to roundoff).
    """
    z0 = mm.minus[i0]
    z1 = mm.minus[i1]
    diff = z1 - z0
    dd = float(diff @ diff)
    s_star = 0.0 if dd == 0.0 else float(np.clip(-(z0 @ diff) / dd, 0.0, 1.0))
    if np.linalg.norm(z0 + s_star * diff) < 1e-9:
        raise DomainError("segment between inner images passes through the origin")
    ts = np.linspace(0.0, 1.0, 100)
    seg = (1.0 - ts)[:, None] * z0[None, :] + ts[:, None] * z1[None, :]
    norms = np.linalg.norm(seg, axis=1)
    grads = -seg / norms[:, None]
    proj0 = grads @ mm.points[i0]
    proj1 = grads @ mm.points[i1]
    min_proj = float(min(proj0.min(), proj1.min()))
    return min_proj, min_proj > k_u / 2.0 - 1e-9


class TestSegmentNormal:
    def test_single_point_segment(self):
        mm = bivalent_family(2)
        mm.points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        mm.minus = np.array([[0.6, 0.0, -0.8], [0.6, 0.0, -0.8]])
        proj, ok = segment_normal_check(mm, 0, 1, k_u=1.6)
        assert proj == pytest.approx(0.8, abs=1e-12)
        assert ok  # 0.8 > 1.6 / 2
        _, ok_high = segment_normal_check(mm, 0, 1, k_u=1.7)
        assert not ok_high

    def test_nearby_split_pair(self):
        mm = bivalent_family(40)
        consts = rg.region_constants(mm, np.arange(40), (0.01, 0.5))
        proj, ok = segment_normal_check(mm, 10, 11, consts.k_U)
        assert ok

    def test_antipodal_inner_images(self):
        mm = bivalent_family(2)
        mm.minus = np.array([[0.6, 0.0, -0.8], [-0.6, 0.0, 0.8]])
        with pytest.raises(DomainError):
            segment_normal_check(mm, 0, 1, k_u=0.5)


def _scalar_vector_lemma_margin(u, v):
    """Reference: the excess angle and margin of one pair, in scalar math."""
    nu_ = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu_ == 0.0:
        raise DomainError("u must be nonzero")
    if nv == 0.0:
        return 0.0, 0.0
    cosang = float(np.clip(u @ v / (nu_ * nv), -1.0, 1.0))
    angle = math.acos(cosang)
    alpha = max(0.0, angle - math.pi / 2.0)
    if alpha >= math.pi / 2.0:
        raise DomainError("antiparallel pair: excess angle reaches a right angle")
    margin = float(np.linalg.norm(u + v)) - nu_ * math.cos(alpha)
    return alpha, margin


def _margin_of_pair(u, v):
    """vector_lemma_margin on the one-row arrays of u and v, as scalars."""
    alphas, margins = vector_lemma_margin(np.array([u], dtype=float), np.array([v], dtype=float))
    return float(alphas[0]), float(margins[0])


class TestVectorLemma:
    def test_right_angle(self):
        alpha, margin = _margin_of_pair([1.0, 0.0], [0.0, 1.0])
        assert alpha == 0.0
        assert margin == pytest.approx(math.sqrt(2) - 1, abs=1e-12)

    def test_obtuse_pair(self):
        alpha, margin = _margin_of_pair([1.0, 0.0], [-math.sqrt(0.5), math.sqrt(0.5)])
        assert alpha == pytest.approx(math.pi / 4, abs=1e-12)
        assert margin == pytest.approx(0.0583, abs=1e-3)

    def test_zero_v(self):
        alpha, margin = _margin_of_pair([2.0, 0.0], [0.0, 0.0])
        assert alpha == 0.0 and margin == 0.0

    def test_zero_u_rejected(self):
        with pytest.raises(DomainError):
            _margin_of_pair([0.0, 0.0], [1.0, 0.0])

    def test_antiparallel_rejected(self):
        with pytest.raises(DomainError):
            _margin_of_pair([1.0, 0.0], [-2.0, 0.0])

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
            _, margin = _margin_of_pair(u, v)
        except DomainError:
            return
        assert margin >= -1e-12

    def test_batch_matches_scalar(self, rng):
        us = rng.normal(size=(50, 3))
        vs = rng.normal(size=(50, 3))
        alphas, margins = vector_lemma_margin(us, vs)
        for k in range(50):
            a, m = _scalar_vector_lemma_margin(us[k], vs[k])
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
        own=np.repeat(np.arange(count), 2),
        other=np.repeat(np.arange(count), 2),
        inner=np.tile([False, True], count),
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

    @pytest.mark.parametrize("n, count", [(1, 2), (2, 7), (3, 12), (2, 40), (1, 333)])
    def test_blocks_match_dense_form(self, rng, monkeypatch, n, count):
        # at BLOCK 5 a block holds at most 25 entries or one row: one block
        # of 2 atoms, blocks of 3 and 2 rows at 7 and 12 atoms, one row at
        # 40 and 333. A one-row block is a vector-matrix product, whose BLAS
        # sums may round apart from the matrix product's in the last bit,
        # hence abs=1e-14, about 45 ulps of 1
        from sphere_ot import geometry as g
        from sphere_ot import solver as so

        points = g.random_sphere_points(n, count, rng)
        minus = g.random_sphere_points(n, count, rng)
        inv = synthetic_inverse(points, points, minus)
        idx = rng.permutation(count)
        gram = minus[idx] @ points[idx].T
        diag = np.diag(gram)
        dots = diag[:, None] + diag[None, :] - gram - gram.T
        dense = float(dots[np.triu_indices(count, k=1)].min())
        monkeypatch.setattr(so, "BLOCK", 5)
        assert rg.monotonicity_check(inv, idx) == pytest.approx(dense, rel=0, abs=1e-14)

    def test_memory_in_blocks(self, rng):
        # 2000 atoms: the dense form held several 2000 x 2000 arrays at once
        # (107 MiB); blocks of at most BLOCK x BLOCK entries take about 2 MiB
        from sphere_ot import geometry as g

        points = g.random_sphere_points(2, 2000, rng)
        inv = synthetic_inverse(points, points, g.random_sphere_points(2, 2000, rng))
        tracemalloc.start()
        try:
            rg.monotonicity_check(inv, np.arange(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
        rep = rg.dichotomy_probe(inv, 0)
        k = list(rep.others).index(1)
        assert rep.betas[k] == pytest.approx(0.0, abs=1e-9)

    def test_known_arithmetic(self):
        # centre (1,0) with weight 2 against (0,1) with weight 1:
        # cos beta = 3 / sqrt(10)
        inv = self.circle_inverse(np.array([2.0, 1.0, 1.5]))
        rep = rg.dichotomy_probe(inv, 0)
        k = list(rep.others).index(1)
        assert rep.betas[k] == pytest.approx(math.acos(3 / math.sqrt(10)), abs=1e-12)
        assert math.degrees(rep.betas[k]) == pytest.approx(18.434948, abs=1e-4)
        assert rep.gamma_bound_ok

    def test_coincident_weighted_normals_rejected(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        s_plus = points.copy()
        inv = synthetic_inverse(points, s_plus, s_plus)  # omega = 0 everywhere
        with pytest.raises(DomainError):
            rg.dichotomy_probe(inv, 0)

    def test_angle_bound_on_solved_instance(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        t2 = inv.indices_in("T2")
        for center in t2[:5]:
            rep = rg.dichotomy_probe(inv, int(center))
            assert rep.gamma_bound_ok

    @staticmethod
    def assert_matches_loop(inv, center):
        others, betas, bound_ok = _looped_probe(inv, center)
        rep = rg.dichotomy_probe(inv, center)
        assert np.array_equal(rep.others, others)
        assert rep.betas.tobytes() == betas.tobytes()
        assert rep.gamma_bound_ok == bound_ok

    def test_matches_loop_on_solved_instance(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        for center in inv.indices_in("T2"):
            self.assert_matches_loop(inv, int(center))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_loop_on_random_targets(self, rng, dim):
        from sphere_ot import geometry as g

        for _ in range(20):
            count = int(rng.integers(2, 30))
            pts = g.random_sphere_points(dim - 1, count, rng)
            # split weights of both signs, so both sides of the gamma test run
            s_minus = pts - rng.uniform(-0.5, 2.0, count)[:, None] * pts
            s_minus += 0.01 * rng.normal(size=pts.shape)
            inv = synthetic_inverse(pts, pts, s_minus)
            for center in range(min(count, 4)):
                self.assert_matches_loop(inv, center)

    @pytest.mark.parametrize("normals_at, duplicate_at", [
        (3, None), (None, 3), (3, 4), (4, 3), (3, 3),
    ])
    def test_error_matches_loop(self, rng, normals_at, duplicate_at):
        from sphere_ot import geometry as g

        pts = g.random_sphere_points(2, 6, rng)
        omegas = rng.uniform(0.5, 1.5, 6)
        if normals_at is not None:  # the antipode with the opposite weight
            pts[normals_at], omegas[normals_at] = -pts[0], -omegas[0]
        if duplicate_at is not None:
            pts[duplicate_at], omegas[duplicate_at] = pts[0], omegas[0] + 0.25
        if normals_at == duplicate_at:  # the centre itself, weight and all
            omegas[normals_at] = omegas[0]
        inv = synthetic_inverse(pts, pts, pts - omegas[:, None] * pts)
        with pytest.raises(DomainError) as looped:
            _looped_probe(inv, 0)
        with pytest.raises(DomainError) as probed:
            rg.dichotomy_probe(inv, 0)
        assert str(probed.value) == str(looped.value)
        first = min(k for k in (normals_at, duplicate_at) if k is not None)
        kind = "weighted normals coincide" if first == normals_at else "duplicate target"
        assert str(probed.value).startswith(kind)
        assert str(probed.value).endswith(f"0 and {first}")


def _looped_probe(inv, center):
    """The probe as one scalar loop over the other T2 targets: the reference
    dichotomy_probe must match bit for bit, errors included."""
    t2 = inv.indices_in("T2")
    others = t2[t2 != center]
    y1 = inv.points[center]
    w1 = inv.jump[center]
    betas = np.empty(len(others))
    bound_ok = True
    for k, j in enumerate(others):
        yj = inv.points[j]
        diff = y1 - yj
        vec = w1 * y1 - inv.jump[j] * yj
        nv = np.linalg.norm(vec)
        nd = np.linalg.norm(diff)
        if nv < 1e-12:
            raise DomainError(f"weighted normals coincide for targets {center} and {j}")
        if nd < 1e-12:
            raise DomainError(f"duplicate target atoms {center} and {j}")
        beta = math.acos(float(np.clip(diff @ vec / (nd * nv), -1.0, 1.0)))
        betas[k] = beta
        if w1 > 0 and inv.jump[j] > 0:
            gamma = math.acos(float(np.clip(y1 @ yj, -1.0, 1.0)))
            if beta >= (math.pi - gamma) / 2.0 + 1e-9:
                bound_ok = False
    return others, betas, bound_ok


def _pdist_table(points, values, window):
    """Reference for rg._pair_table: pdist over every pair, masked to the window."""
    r, d = pdist(points), pdist(values)
    keep = (r >= window[0]) & (r <= window[1])
    return r[keep], d[keep]


class TestPairTable:
    """The k-d tree pair table against pdist over every pair, bit for bit."""

    @staticmethod
    def _points(rng, n):
        from sphere_ot import geometry as g

        points = g.random_sphere_points(n, 400, rng)
        points = np.vstack([points, points[::13]])  # duplicate atoms
        return points, g.random_sphere_points(n, len(points), rng), g.random_sphere_points(
            n, len(points), rng)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bitwise_equal_to_pdist(self, rng, n):
        points, values, more = self._points(rng, n)
        r = np.sort(pdist(points))
        # windows that cut pairs, with edges on pair distances, from the
        # duplicates' zero distance up, and one that keeps every pair
        windows = [(0.0, r[len(r) // 50]), (r[len(r) // 20], r[len(r) // 5]),
                   (0.1, 0.5), (r[len(r) // 2], r[len(r) // 2]), (0.0, 2.0)]
        for window in windows:
            want_r, want_d = _pdist_table(points, values, window)
            got_r, got_d, got_more = rg._pair_table(points, window, values, more)
            assert 0 < len(want_r)
            assert got_r.tobytes() == want_r.tobytes(), window
            assert got_d.tobytes() == want_d.tobytes(), window
            assert got_more.tobytes() == _pdist_table(points, more, window)[1].tobytes()
        assert 0.0 in rg._pair_table(points, windows[0])[0]
        assert len(_pdist_table(points, values, windows[-1])[0]) == len(r)

    def test_empty_and_single(self):
        for count in (0, 1):
            r, d = rg._pair_table(np.ones((count, 3)), (0.0, 1.0), np.ones((count, 3)))
            assert r.shape == d.shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_injectivity_bitwise_equal_to_pdist(self, rng, n):
        points, minus, plus = self._points(rng, n)
        inv = synthetic_inverse(points, plus, minus)
        idx = np.arange(0, len(points), 2)
        window, exponent = (0.05, 0.6), 1.0 / (4 * n - 1)
        rep = rg.injectivity_lower_bound(inv, idx, exponent, window)
        r = pdist(points[idx])
        keep = (r > 1e-12) & (r >= window[0]) & (r <= window[1])
        denom = r[keep] ** exponent
        assert rep.s_minus_ratio == float(np.min(pdist(minus[idx])[keep] / denom))
        assert rep.s_plus_ratio == float(np.min(pdist(plus[idx])[keep] / denom))
        assert rep.pair_count == keep.sum() < len(r)


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
            rg.injectivity_lower_bound(inv, np.arange(3), exponent=7.0,
                                       window=rg.scale_window(me.median_spacing(pts)))

    def test_solved_instance_certifies(self, bivalent_instance):
        inv = bivalent_instance["inv"]
        mm = bivalent_instance["mm"]
        t2 = inv.indices_in("T2")
        t2_window = rg.scale_window(me.median_spacing(inv.points[t2]))
        rep = rg.injectivity_lower_bound(inv, t2, exponent=7.0, window=t2_window)
        assert rep.s_minus_ratio > 0
        window = rg.scale_window(me.median_spacing(mm.points))
        consts = rg.region_constants(mm, mm.usable_s2(), window)
        assert rep.s_minus_ratio >= 1.0 / consts.C_minus_proof
