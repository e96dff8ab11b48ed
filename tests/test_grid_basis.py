import numpy as np
import pytest

from tdalc.errors import ConfigurationError
from tdalc.grid_basis import (DiscretizationGrid, ParamMesh, SpatialMesh,
                              TimeMesh, assemble_1d_gram, hat_matrix,
                              hat_value, temporal_basis_matrices)


class TestSpatialMesh:
    def test_nodes_uniform(self):
        mesh = SpatialMesh(4)
        assert np.allclose(mesh.nodes, np.linspace(0.0, 1.0, 5))
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            SpatialMesh(0)


class TestParamMesh:
    def test_edges_and_centers(self):
        pm = ParamMesh(4, 0.0, 2.0)
        assert np.allclose(pm.edges, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(pm.centers, [0.25, 0.75, 1.25, 1.75])

    def test_cell_index_interior_and_edges(self):
        pm = ParamMesh(4, 0.0, 2.0)
        assert pm.cell_index(0.3) == 0
        assert pm.cell_index(1.99) == 3
        # upper boundary belongs to the last cell
        assert pm.cell_index(2.0) == 3

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            ParamMesh(4, 1.0, 1.0)


class TestTimeMesh:
    def test_counts(self):
        tm = TimeMesh(m=24, horizon=240.0, tau=1.0)
        assert tm.n_grid == 241

    def test_rejects_small_basis(self):
        with pytest.raises(ConfigurationError):
            TimeMesh(m=1, horizon=60.0, tau=1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_nonfinite_tau(self, tau):
        with pytest.raises(ConfigurationError, match="finite"):
            TimeMesh(m=8, horizon=60.0, tau=tau)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_rejects_nonfinite_horizon(self, horizon):
        # a NaN or infinite horizon failed converting the step count to int
        with pytest.raises(ConfigurationError, match="finite"):
            TimeMesh(m=8, horizon=horizon, tau=1.0)

    def test_partition_of_unity(self):
        tm = TimeMesh(m=8, horizon=120.0, tau=1.0)
        _, _, sample = temporal_basis_matrices(tm)
        assert np.allclose(sample.sum(axis=1), 1.0, atol=1e-12)

    def test_gram_matrices_match_quadrature(self):
        tm = TimeMesh(m=6, horizon=60.0, tau=1.0)
        g0, g1, sample = temporal_basis_matrices(tm)
        t = np.linspace(0.0, tm.horizon, 60001)
        knots = np.linspace(0.0, tm.horizon, tm.m)
        vals = np.empty((t.size, tm.m))
        for j in range(tm.m):
            e = np.zeros(tm.m)
            e[j] = 1.0
            vals[:, j] = np.interp(t, knots, e)
        g0_ref = np.empty((tm.m, tm.m))
        g1_ref = np.empty((tm.m, tm.m))
        dvals = np.gradient(vals, t, axis=0)
        for i in range(tm.m):
            for j in range(tm.m):
                g0_ref[i, j] = np.trapezoid(vals[:, i] * vals[:, j], t)
                g1_ref[i, j] = np.trapezoid(dvals[:, i] * dvals[:, j], t)
        assert np.allclose(g0, g0_ref, rtol=1e-6, atol=1e-9)
        assert np.allclose(g1, g1_ref, rtol=2e-3, atol=2e-3)


class TestHatBasis:
    def test_interpolates_linear_functions(self):
        nodes = np.linspace(0.0, 1.0, 6)
        x = np.linspace(0.0, 1.0, 101)
        mat = hat_matrix(nodes, x)
        recon = mat @ (2.0 * nodes + 0.3)
        assert np.allclose(recon, 2.0 * x + 0.3, atol=1e-12)

    def test_single_hat_peak(self):
        nodes = np.linspace(0.0, 1.0, 5)
        assert hat_value(nodes, 2, 0.5) == pytest.approx(1.0)
        assert hat_value(nodes, 2, 0.25) == pytest.approx(0.0)


class TestSpatialGram:
    def test_mass_matrix_closed_form(self):
        n = 5
        gram = assemble_1d_gram(np.linspace(0.0, 1.0, n + 1))
        h = 1.0 / n
        expect = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            expect[i, i] = 2.0 * h / 3.0
            if i in (0, n):
                expect[i, i] = h / 3.0
            if i < n:
                expect[i, i + 1] = expect[i + 1, i] = h / 6.0
        assert np.allclose(gram.mass, expect, atol=1e-14)

    def test_stiffness_matrix_closed_form(self):
        n = 4
        gram = assemble_1d_gram(np.linspace(0.0, 1.0, n + 1))
        expect = (np.diag([1.0] + [2.0] * (n - 1) + [1.0])
                  - np.diag(np.ones(n), 1) - np.diag(np.ones(n), -1)) * n
        assert np.allclose(gram.stiffness, expect, atol=1e-12)


class TestDiscretizationGrid:
    def _params(self):
        from tdalc.density import PopulationParams
        return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.6, 1.0),
                                sigma=((0.04, 0.0), (0.0, 0.09)))

    def test_from_params_binds_box(self):
        grid = DiscretizationGrid.from_params(self._params(), n=4, m1=3,
                                              m2=5, tau=1.0)
        assert grid.pm1.hi == 1.5 and grid.pm2.hi == 2.0
        assert grid.n_cells == 15

    def test_rebind_keeps_counts(self):
        from tdalc.density import PopulationParams
        grid = DiscretizationGrid.from_params(self._params(), m1=3, m2=5)
        other = PopulationParams(a=(0.1, 0.2), b=(0.9, 1.1), mu=(0.5, 0.6),
                                 sigma=((0.01, 0.0), (0.0, 0.01)))
        re = grid.rebind(other)
        assert re.pm1.count == 3 and re.pm2.count == 5
        assert re.pm1.lo == 0.1 and re.pm2.hi == 1.1

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ConfigurationError):
            DiscretizationGrid.from_params(self._params(), tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_nonfinite_tau(self, tau):
        with pytest.raises(ConfigurationError, match="finite"):
            DiscretizationGrid.from_params(self._params(), tau=tau)
