import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tdalc import forward_model
from tdalc.density import PopulationParams, moment_weights
from tdalc.errors import ConfigurationError, NumericalError, ParameterError
from tdalc.grid_basis import DiscretizationGrid, ParamMesh, SpatialMesh


def make_params():
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.04, 0.008), (0.008, 0.09)))


def make_ops(params=None, n=4, m1=4, m2=4, tau=1.0):
    params = params or make_params()
    grid = DiscretizationGrid.from_params(params, n=n, m1=m1, m2=m2, tau=tau)
    return forward_model.discrete_time(forward_model.assemble(params, grid))


def pulse(k):
    t = np.arange(k, dtype=float)
    return 0.08 * (t / 40.0) * np.exp(1.0 - t / 40.0)


class TestAssembly:
    def test_cell_masses_positive_and_normalized(self):
        ops = make_ops()
        assert np.all(ops.p >= 0.0)
        assert ops.p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_conditional_means_inside_cells(self):
        params = make_params()
        grid = DiscretizationGrid.from_params(params)
        sys = forward_model.assemble(params, grid)
        c1 = np.repeat(np.arange(4), 1)
        for c in range(grid.n_cells):
            i1, i2 = c % 4, c // 4
            assert grid.pm1.edges[i1] - 1e-12 <= sys.qbar1[c] \
                <= grid.pm1.edges[i1 + 1] + 1e-12
            assert grid.pm2.edges[i2] - 1e-12 <= sys.qbar2[c] \
                <= grid.pm2.edges[i2 + 1] + 1e-12

    def test_zero_mass_cells_tolerated(self):
        # a tight density leaves far cells with underflowed mass
        params = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.3, 0.5),
                                  sigma=((1e-4, 0.0), (0.0, 1e-4)))
        grid = DiscretizationGrid.from_params(params)
        sys = forward_model.assemble(params, grid)
        assert np.all(np.isfinite(sys.qbar1)) and np.all(np.isfinite(sys.qbar2))
        dead = sys.p == 0.0
        assert dead.any()
        ops = forward_model.discrete_time(sys)
        y = forward_model.simulate(ops, pulse(120))
        assert np.all(np.isfinite(y))

    def test_negative_mass_rejected(self):
        params = make_params()
        grid = DiscretizationGrid.from_params(params)
        w = moment_weights(params, grid.pm1, grid.pm2)
        bad = w.p.copy()
        bad[0, 0] = -1e-3
        from dataclasses import replace
        with pytest.raises(NumericalError):
            forward_model.assemble_from_weights(replace(w, p=bad), grid)

    def test_grid_off_the_support_rejected(self):
        params = make_params()
        grid = DiscretizationGrid.from_params(params)
        grid = DiscretizationGrid(grid.spatial, ParamMesh(4, 0.0, 1.4),
                                  grid.pm2, grid.tau)
        with pytest.raises(ConfigurationError, match="does not match"):
            forward_model.assemble(params, grid)

    @pytest.mark.parametrize("field", ["p", "w1", "w2"])
    def test_nonfinite_weights_rejected(self, field):
        params = make_params()
        grid = DiscretizationGrid.from_params(params)
        w = moment_weights(params, grid.pm1, grid.pm2)
        bad = getattr(w, field).copy()
        bad[1, 2] = np.nan
        from dataclasses import replace
        with pytest.raises(NumericalError, match="not finite"):
            forward_model.assemble_from_weights(replace(w, **{field: bad}),
                                                grid)

    def test_all_dead_rejected(self):
        params = make_params()
        grid = DiscretizationGrid.from_params(params)
        w = moment_weights(params, grid.pm1, grid.pm2)
        from dataclasses import replace
        zero = replace(w, p=np.zeros_like(w.p), w1=np.zeros_like(w.w1),
                       w2=np.zeros_like(w.w2))
        with pytest.raises(NumericalError):
            forward_model.assemble_from_weights(zero, grid)


class TestRecursion:
    def test_zero_input_zero_output(self):
        ops = make_ops()
        y = forward_model.simulate(ops, np.zeros(100))
        assert np.array_equal(y, np.zeros(100))

    def test_linearity(self):
        ops = make_ops()
        u1, u2 = pulse(150), np.roll(pulse(150), 30)
        y = forward_model.simulate(ops, u1 + 0.5 * u2)
        y_parts = (forward_model.simulate(ops, u1)
                   + 0.5 * forward_model.simulate(ops, u2))
        assert np.allclose(y, y_parts, atol=1e-14)

    def test_output_nonnegative_for_nonneg_input(self):
        ops = make_ops()
        y = forward_model.simulate(ops, pulse(240))
        assert np.all(y >= -1e-12)

    def test_trajectory_consistent_with_output(self):
        ops = make_ops()
        u = pulse(60)
        states, y = forward_model.state_trajectory(ops, u)
        assert np.array_equal(y, forward_model.simulate(ops, u))
        for k in range(1, u.size + 1):
            direct = float(np.sum(ops.c_out * states[k]))
            assert direct == pytest.approx(y[k - 1], abs=1e-14)

    def test_semigroup_square(self):
        params = make_params()
        grid = DiscretizationGrid.from_params(params, tau=1.0)
        sys = forward_model.assemble(params, grid)
        one = forward_model.discrete_time(sys, tau=1.0)
        two = forward_model.discrete_time(sys, tau=2.0)
        for c in range(one.n_cells):
            sq = one.ahat[c] @ one.ahat[c]
            err = (np.linalg.norm(two.ahat[c] - sq)
                   / np.linalg.norm(two.ahat[c]))
            assert err < 1e-10

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_step_rejected(self, tau):
        sys = forward_model.assemble(make_params(),
                                     DiscretizationGrid.from_params(make_params()))
        with pytest.raises(ConfigurationError, match="finite"):
            forward_model.discrete_time(sys, tau=tau)


class TestKernels:
    def test_convolution_matches_recursion(self):
        ops = make_ops()
        u = pulse(120)
        kern = forward_model.impulse_kernels(ops, u.size)
        y_conv = forward_model.convolve(kern, u)
        y_rec = forward_model.simulate(ops, u)
        assert np.max(np.abs(y_conv - y_rec)) < 1e-12

    def test_convolution_is_the_direct_lag_sum(self):
        # y_k = sum_l h_l u_{k-l}, h the mean kernel (the rows summed)
        ops = make_ops()
        u = 0.1 * np.random.default_rng(3).random(60)
        kern = forward_model.impulse_kernels(ops, u.size).sum(axis=0)
        direct = [np.sum(kern[:k][::-1] * u[:k]) for k in range(1, u.size + 1)]
        assert np.allclose(forward_model.convolve(kern[None], u), direct,
                           rtol=1e-13, atol=0.0)

    def test_only_a_vector_input_is_accepted(self):
        ops = make_ops()
        u = pulse(60)
        kern = forward_model.impulse_kernels(ops, u.size)
        tiled = np.tile(u[:, None], (1, ops.n_cells))
        for run in (lambda v: forward_model.convolve(kern, v),
                    lambda v: forward_model.simulate(ops, v)):
            for bad in (tiled, tiled[:, :, None], tiled[:, :3], u[:, None]):
                with pytest.raises(ConfigurationError):
                    run(bad)

    def test_kernels_of_dead_cells_are_zero(self):
        params = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.3, 0.5),
                                  sigma=((1e-4, 0.0), (0.0, 1e-4)))
        ops = make_ops(params)
        kern = forward_model.impulse_kernels(ops, 10)
        dead = ops.p == 0.0
        assert np.all(kern[dead] == 0.0)
        assert np.all(np.isfinite(kern))

    def test_count_validation(self):
        ops = make_ops()
        with pytest.raises(ConfigurationError):
            forward_model.impulse_kernels(ops, 0)
        kern = forward_model.impulse_kernels(ops, 5)
        with pytest.raises(ConfigurationError):
            forward_model.convolve(kern, pulse(10))


class TestDeterministic:
    def test_population_collapses_to_deterministic(self):
        # a near-atomic population behaves like the single subject at mu
        q = (0.62, 1.0)
        params = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=q,
                                  sigma=((1e-4, 0.0), (0.0, 1e-4)))
        ops = make_ops(params)
        det = forward_model.deterministic_ops(q, SpatialMesh(4), 1.0)
        u = pulse(180)
        y_pop = forward_model.simulate(ops, u)
        y_det = forward_model.simulate_deterministic(det, u)
        assert np.max(np.abs(y_pop - y_det)) < 1e-10

    @pytest.mark.parametrize("sd", [1e-2, 1e-3, 3e-4, 1e-5, 1e-6])
    def test_narrow_law_reaches_single_subject(self, sd):
        # the cell holding mu takes all the mass and its conditional mean
        # tends to mu, however narrow the peak against the cells
        q = (0.62, 0.9)
        params = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=q,
                                  sigma=((sd * sd, 0.0), (0.0, sd * sd)))
        mean = forward_model.impulse_kernels(make_ops(params), 200).sum(axis=0)
        det = forward_model.deterministic_kernels(
            forward_model.deterministic_ops(q, SpatialMesh(4), 1.0), 200)
        assert np.max(np.abs(mean - det)) <= 1e-12 * np.max(np.abs(det))

    def test_deterministic_kernels_match_impulse(self):
        det = forward_model.deterministic_ops((0.7, 1.1), SpatialMesh(4), 1.0)
        kern = forward_model.deterministic_kernels(det, 40)
        imp = np.zeros(40)
        imp[0] = 1.0
        y = forward_model.simulate_deterministic(det, imp)
        assert np.allclose(kern, y, atol=1e-13)

    def test_gain_scales_output(self):
        u = pulse(100)
        det1 = forward_model.deterministic_ops((0.7, 1.0), SpatialMesh(4), 1.0)
        det2 = forward_model.deterministic_ops((0.7, 2.0), SpatialMesh(4), 1.0)
        y1 = forward_model.simulate_deterministic(det1, u)
        y2 = forward_model.simulate_deterministic(det2, u)
        assert np.allclose(y2, 2.0 * y1, atol=1e-13)


STACK = np.array([[0.05, 1.0], [0.62, 0.9], [8.0, 0.0], [0.7, 2.5],
                  [1e-3, 0.3]])


class TestDeterministicStack:
    def test_pairs_are_unit_mass_cells(self):
        ops = forward_model.deterministic_ops(STACK, SpatialMesh(4), 0.7)
        assert ops.cells == (len(STACK), 1) and ops.n_cells == len(STACK)
        assert np.array_equal(ops.p, np.ones(len(STACK)))
        assert np.array_equal(ops.qbar1, STACK[:, 0])
        assert np.array_equal(ops.qbar2, STACK[:, 1])

    def test_rows_equal_one_cell_kernels(self):
        mesh = SpatialMesh(4)
        stack = forward_model.impulse_kernels(
            forward_model.deterministic_ops(STACK, mesh, 0.7), 163)
        assert stack.shape == (len(STACK), 163)
        for row, q in zip(stack, STACK):
            one = forward_model.impulse_kernels(
                forward_model.deterministic_ops(q, mesh, 0.7), 163)
            assert one.shape == (1, 163)
            assert np.array_equal(row, one[0])

    @pytest.mark.parametrize("where, q1", [(0, 0.0), (2, -0.25), (4, np.nan)])
    def test_nonpositive_diffusivity_named(self, where, q1):
        stack = STACK.copy()
        stack[where, 0] = q1
        with pytest.raises(ParameterError, match=re.escape(f"got {q1}")):
            forward_model.deterministic_ops(stack, SpatialMesh(4), 1.0)

    @pytest.mark.parametrize("column, value", [(0, np.inf), (1, np.nan), (1, np.inf)])
    def test_nonfinite_subject_named(self, column, value):
        # an infinite diffusivity failed in LAPACK, a non-finite gain gave
        # an all-zero deconvolution reported as converged
        stack = STACK.copy()
        stack[3, column] = value
        with pytest.raises(ParameterError, match=re.escape(f"got {value}")):
            forward_model.deterministic_ops(stack, SpatialMesh(4), 1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_step_rejected(self, tau):
        with pytest.raises(ConfigurationError, match="finite"):
            forward_model.deterministic_ops(STACK, SpatialMesh(4), tau)

    @pytest.mark.parametrize("q", [(0.7,), (0.7, 1.0, 2.0), np.ones((2, 2, 2))])
    def test_other_shapes_rejected(self, q):
        with pytest.raises(ConfigurationError):
            forward_model.deterministic_ops(q, SpatialMesh(4), 1.0)


def _expm_reference(q, mesh, tau, u):
    """Kernels and outputs of the single-subject zero-order-hold recursion,
    built from scipy's expm and a time-stepping loop."""
    gram = mesh.gram
    a = np.linalg.solve(gram.mass, -(gram.boundary0 + q[0] * gram.stiffness))
    ahat = expm(tau * a)
    bhat = np.linalg.solve(a, (ahat - np.eye(mesh.basis_size))
                           @ (q[1] * np.linalg.solve(gram.mass, gram.trace1)))
    kern = np.zeros(u.size)
    y = np.zeros(u.size)
    v = bhat.copy()
    x = np.zeros(mesh.basis_size)
    for j in range(u.size):
        kern[j] = gram.trace0 @ v
        v = ahat @ v
        x = ahat @ x + bhat * u[j]
        y[j] = gram.trace0 @ x
    return kern, y


class TestSpectralDeterministic:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("q2", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("q1", [0.05, 0.62, 8.0])
    def test_matches_expm_recursion(self, q1, q2, n):
        mesh = SpatialMesh(n)
        u = pulse(200)
        ref_kern, ref_y = _expm_reference((q1, q2), mesh, 1.0, u)
        det = forward_model.deterministic_ops((q1, q2), mesh, 1.0)
        kern = forward_model.deterministic_kernels(det, u.size)
        y = forward_model.simulate_deterministic(det, u)
        assert np.max(np.abs(kern - ref_kern)) <= 1e-12 * np.max(np.abs(ref_kern))
        assert np.max(np.abs(y - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))
        # the single subject is a one-cell system: the package's own
        # recursion runs on it unchanged
        y_rec = forward_model.simulate(det, u)
        assert np.max(np.abs(y_rec - ref_y)) <= 1e-12 * np.max(np.abs(ref_y))

    def test_empty_input(self):
        det = forward_model.deterministic_ops((0.62, 1.0), SpatialMesh(4), 1.0)
        assert forward_model.simulate_deterministic(det, np.zeros(0)).shape == (0,)


class TestPopulationKernels:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(2, 12), m1=st.integers(1, 3), m2=st.integers(1, 3),
           box=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
           loc=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
           spread=st.tuples(st.floats(0.02, 0.5), st.floats(0.02, 0.5)),
           corr=st.floats(-0.7, 0.7), tau=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(0, 2 ** 16))
    def test_convolution_matches_recursion(self, n, m1, m2, box, loc, spread,
                                           corr, tau, seed):
        # the spectral kernels against the reference expm recursion
        b = np.array(box)
        sd = np.array(spread) * b
        params = PopulationParams(
            a=(0.0, 0.0), b=b, mu=np.array(loc) * b,
            sigma=np.outer(sd, sd) * np.array([[1.0, corr], [corr, 1.0]]))
        ops = make_ops(params, n=n, m1=m1, m2=m2, tau=tau)
        u = np.random.default_rng(seed).random(60)
        kern = forward_model.impulse_kernels(ops, u.size)
        y_rec = forward_model.simulate(ops, u)
        err = np.max(np.abs(forward_model.convolve(kern, u) - y_rec))
        assert err <= 1e-11 * np.max(np.abs(y_rec))

    @pytest.mark.parametrize("q1", [0.05, 0.62, 8.0])
    def test_decays_equal_direct_exponentials(self, q1):
        # per-mode evaluation must not change a bit: the fit's seed search
        # and the band's kernels read these values
        for n, shape, count, tau in ((4, (), 300, 1.0), (8, (1,), 163, 0.7),
                                     (3, (5,), 241, 2.5)):
            lam = forward_model._spectrum(SpatialMesh(n),
                                          np.full(shape, q1))[0]
            direct = np.exp(-tau * np.arange(count)[:, None]
                            * lam[..., None, :])
            got = forward_model._decays(lam, tau, count)
            assert got.flags.c_contiguous
            assert np.array_equal(got, direct)
