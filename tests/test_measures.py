import math

import numpy as np
import pytest

from sphere_ot import measures as me
from sphere_ot.errors import ConfigError, DomainError

E3 = np.array([0.0, 0.0, 1.0])


class TestMesh:
    def test_circle_four_points(self):
        mesh = me.quasi_uniform_mesh(1, 4, 0)
        assert mesh.count == 4
        assert np.allclose(mesh.cell_areas, math.pi / 2)
        assert np.allclose(np.linalg.norm(mesh.points, axis=1), 1.0)

    def test_sphere_area_spread(self):
        mesh = me.quasi_uniform_mesh(2, 500, 0)
        mesh.validate()
        mean = 4 * math.pi / 500
        assert mesh.cell_areas.min() >= 0.75 * mean
        assert mesh.cell_areas.max() <= 1.25 * mean
        assert mesh.cell_areas.sum() == pytest.approx(4 * math.pi, rel=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            me.quasi_uniform_mesh(2, 2, 0)
        with pytest.raises(ConfigError):
            me.quasi_uniform_mesh(0, 10, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negative_seed_rejected(self, n):
        with pytest.raises(ConfigError):
            me.quasi_uniform_mesh(n, 10, -1)

    def test_higher_dimension_mesh(self):
        mesh = me.quasi_uniform_mesh(3, 80, 1)
        mesh.validate()
        assert mesh.cell_areas.sum() == pytest.approx(me.sphere_area(3), rel=1e-9)
        assert np.all(mesh.cell_areas > 0)

    @pytest.mark.parametrize("field", ["points", "cell_areas"])
    def test_nan_rejected(self, field):
        mesh = me.quasi_uniform_mesh(2, 50, 0)
        getattr(mesh, field)[3] = np.nan
        with pytest.raises(DomainError):
            mesh.validate()

    def test_determinism(self):
        a = me.quasi_uniform_mesh(2, 60, 7)
        b = me.quasi_uniform_mesh(2, 60, 7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.cell_areas, b.cell_areas)
        c = me.quasi_uniform_mesh(2, 60, 8)
        assert not np.allclose(a.points, c.points)

    def test_spacing_scale(self):
        mesh = me.quasi_uniform_mesh(2, 500, 0)
        # nearest-neighbour distance tracks sqrt(area per point)
        assert 0.5 * math.sqrt(4 * math.pi / 500) < mesh.spacing < 2.0 * math.sqrt(4 * math.pi / 500)


class TestSampleDensity:
    def test_constant_density_weights_proportional_to_areas(self):
        mesh = me.quasi_uniform_mesh(2, 100, 0)
        m = me.sample_density(lambda p: 3.7, mesh)
        expected = mesh.cell_areas / mesh.cell_areas.sum()
        assert np.allclose(m.weights, expected, atol=1e-15)
        m.validate()

    def test_scale_invariance(self):
        mesh = me.quasi_uniform_mesh(2, 100, 0)
        d = lambda p: 0.2 + (1 + p[2]) ** 2
        a = me.sample_density(d, mesh)
        b = me.sample_density(lambda p: 2.0 * d(p), mesh)
        assert np.array_equal(a.weights, b.weights)

    def test_cap_density_ratio(self):
        mesh = me.quasi_uniform_mesh(2, 300, 0)
        d = lambda p: 0.2 + 3.0 * max(0.0, float(p @ E3)) ** 4
        m = me.sample_density(d, mesh)
        assert m.mass == pytest.approx(1.0, abs=1e-10)
        values = np.array([d(p) for p in mesh.points])
        raw = values * mesh.cell_areas
        expected_ratio = raw.max() / raw.min()
        got_ratio = m.weights.max() / m.weights.min()
        assert got_ratio == pytest.approx(expected_ratio, rel=0.05)

    def test_nonpositive_density_rejected(self):
        mesh = me.quasi_uniform_mesh(2, 50, 0)
        with pytest.raises(DomainError):
            me.sample_density(lambda p: float(p @ E3), mesh)  # vanishes on equator


class TestSuitability:
    def test_uniform_pair_passes(self):
        mesh = me.quasi_uniform_mesh(2, 200, 0)
        mu = me.uniform_measure(mesh)
        nu = me.uniform_measure(mesh)
        eps = 0.5 / me.sphere_area(2)
        for cert in (me.check_suitable(mu, nu, eps), me.check_suitable(nu, mu, eps)):
            assert cert.upper_ok and cert.lower_ok

    def test_zero_weight_atom_fails_lower(self):
        mesh = me.quasi_uniform_mesh(2, 100, 0)
        nu = me.uniform_measure(mesh)
        nu.weights[17] = 0.0
        nu.weights /= nu.weights.sum()
        cert = me.check_suitable(me.uniform_measure(mesh), nu, 0.01 / me.sphere_area(2))
        assert not cert.lower_ok
        assert cert.worst_atoms["nu_min"] == 17

    def test_heavy_atom_fails_upper(self):
        # one atom carrying half the mass of a 500-atom mesh has density
        # estimate 0.5 * 500 / (4 pi) ~ 19.9, far above the uniform level;
        # any epsilon above ~0.05 trips the upper bound
        mesh = me.quasi_uniform_mesh(2, 500, 0)
        mu = me.uniform_measure(mesh)
        mu.weights[3] = mu.weights.sum()
        mu.weights /= mu.weights.sum()
        estimate = mu.weights[3] / mu.cell_areas[3]
        assert estimate > 15.0
        cert = me.check_suitable(mu, me.uniform_measure(mesh), 0.06)
        assert not cert.upper_ok
        assert cert.worst_atoms["mu_max"] == 3
        # the spec-level example value 0.01 keeps 1/epsilon = 100 above the
        # estimate, so the bound still holds there
        assert me.check_suitable(mu, me.uniform_measure(mesh), 0.01).upper_ok

    def test_monotone_in_epsilon(self):
        mesh = me.quasi_uniform_mesh(2, 150, 2)
        mu = me.sample_density(lambda p: 0.5 + (1 + p[2]) ** 2, mesh)
        nu = me.uniform_measure(mesh)
        passing = [
            eps
            for eps in np.geomspace(1e-4, 1.0, 12)
            if (lambda c: c.upper_ok and c.lower_ok)(me.check_suitable(mu, nu, eps))
        ]
        # the passing set is a down-closed interval in epsilon
        all_eps = list(np.geomspace(1e-4, 1.0, 12))
        if passing:
            cutoff = max(passing)
            for eps in all_eps:
                if eps < cutoff:
                    cert = me.check_suitable(mu, nu, eps)
                    assert cert.upper_ok and cert.lower_ok

    def test_dimension_mismatch(self):
        a = me.uniform_measure(me.quasi_uniform_mesh(1, 10, 0))
        b = me.uniform_measure(me.quasi_uniform_mesh(2, 10, 0))
        with pytest.raises(ConfigError):
            me.check_suitable(a, b, 0.1)


class TestMeasureIO:
    def test_round_trip(self, tmp_path):
        mesh = me.quasi_uniform_mesh(2, 40, 5)
        m = me.sample_density(lambda p: 1.0 + p[0] ** 2, mesh)
        path = tmp_path / "m.json"
        me.save_measure(m, path)
        loaded = me.load_measure(path)
        assert loaded.n == 2
        assert np.allclose(loaded.points, m.points, atol=1e-15)
        assert np.allclose(loaded.weights, m.weights, atol=1e-15)
        assert np.allclose(loaded.cell_areas, m.cell_areas, atol=1e-15)

    def test_loader_rejects_bad_mass(self, tmp_path):
        mesh = me.quasi_uniform_mesh(2, 10, 0)
        m = me.uniform_measure(mesh)
        m.weights = m.weights * 2.0
        path = tmp_path / "bad.json"
        me.save_measure(m, path)
        with pytest.raises(DomainError):
            me.load_measure(path)

    def test_loader_rejects_off_sphere(self, tmp_path):
        mesh = me.quasi_uniform_mesh(2, 10, 0)
        m = me.uniform_measure(mesh)
        m.points = m.points * 1.001
        path = tmp_path / "off.json"
        me.save_measure(m, path)
        with pytest.raises(DomainError):
            me.load_measure(path)

    def test_loader_rejects_nan_weight(self, tmp_path):
        m = me.uniform_measure(me.quasi_uniform_mesh(2, 10, 0))
        m.weights[3] = np.nan
        path = tmp_path / "nan.json"
        me.save_measure(m, path)
        with pytest.raises(DomainError, match="weights"):
            me.load_measure(path)

    def test_loader_rejects_nan_coordinate(self, tmp_path):
        m = me.uniform_measure(me.quasi_uniform_mesh(2, 10, 0))
        m.points[3, 0] = np.nan
        path = tmp_path / "nan.json"
        me.save_measure(m, path)
        with pytest.raises(DomainError, match="unit vectors"):
            me.load_measure(path)

    def test_loader_rejects_empty_atom_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 2, "atoms": []}')
        with pytest.raises(DomainError, match="dimension"):
            me.load_measure(path)

    def test_nan_cell_area_rejected(self):
        m = me.uniform_measure(me.quasi_uniform_mesh(2, 10, 0))
        m.cell_areas[3] = np.nan
        with pytest.raises(DomainError, match="cell areas"):
            m.validate()

    def test_restriction_keeps_weights(self):
        mesh = me.quasi_uniform_mesh(2, 30, 0)
        m = me.uniform_measure(mesh)
        sub = m.restrict(np.arange(10))
        assert sub.mass == pytest.approx(m.weights[:10].sum())
