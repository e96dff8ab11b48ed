import contextlib
import gc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, lapack

from tdalc import deconvolution, forward_model
from tdalc.data_io import build_episode
from tdalc.deconvolution import (DeconvolutionProblem, SearchEpisode,
                                 build_problem, deconvolve,
                                 deconvolve_deterministic,
                                 default_basis_count, nnls,
                                 select_regularization, sqrtm_psd,
                                 write_result_csv)
from tdalc.density import PopulationParams
from tdalc.errors import ConfigurationError, NumericalError
from tdalc.grid_basis import (DiscretizationGrid, SpatialMesh, TimeMesh,
                              temporal_basis_matrices)
from tdalc.synth import SynthConfig, generate


def make_params():
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.01, 0.002), (0.002, 0.03)))


def make_ops(params=None, **kw):
    params = params or make_params()
    grid = DiscretizationGrid.from_params(params, **kw)
    return forward_model.discrete_time(forward_model.assemble(params, grid))


def pulse(k):
    t = np.arange(k, dtype=float)
    return 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)


@contextlib.contextmanager
def capped_nnls(cap):
    """Hold ``nnls`` solves to ``cap`` iterations by wrapping the engine
    ``_pivoting``; a call that passes its own cap (the descent recursion)
    keeps it."""
    pivoting = deconvolution._pivoting

    def capped(normal, x, max_iter, descent=False):
        return pivoting(normal, x, cap if max_iter is None else max_iter,
                        descent)

    with mock.patch.object(deconvolution, "_pivoting", capped):
        yield


def make_tac(ops, u):
    return np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])


def stacked(prob):
    """The problem's design rows over its block-diagonal penalty root,
    dense."""
    return np.vstack([prob.design, block_diag(*prob.penalty_sqrt)])


def block_problem(design, roots):
    """A problem of the given design and penalty-root blocks, for ``nnls``
    and the operator products, which read nothing else."""
    return DeconvolutionProblem(
        tac=np.zeros(len(design)), time_mesh=None, sample=None, design=design,
        penalty_sqrt=roots, r1=0.0, r2=0.0, cell_masses=np.ones(len(roots)))


def scaled_kkt(a, b, x):
    grad = a.T @ (a @ x - b)
    active = x > 0.0
    return max(float(np.max(np.abs(grad[active]), initial=0.0)),
               float(np.max(-grad[~active], initial=0.0))) \
        / float(np.linalg.norm(a.T @ b))


class TestBasisCount:
    def test_six_per_hour(self):
        assert default_basis_count(240.0) == 24
        assert default_basis_count(60.0) == 6

    def test_floor_of_two(self):
        assert default_basis_count(10.0) == 2


class TestSqrtmPsd:
    def test_squares_back(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 6))
        mat = a @ a.T
        s = sqrtm_psd(mat)
        assert np.allclose(s @ s, mat, atol=1e-10)
        assert np.allclose(s, s.T, atol=1e-12)

    def test_clips_tiny_negative_eigenvalues(self):
        mat = np.diag([1.0, -1e-15])
        s = sqrtm_psd(mat)
        assert np.all(np.isfinite(s))
        assert s[1, 1] == 0.0


class TestNnls:
    def test_identity_with_mixed_signs(self):
        res = nnls(np.eye(2), np.array([1.0, -1.0]))
        assert np.allclose(res.x, [1.0, 0.0])
        assert res.converged

    def test_recovers_feasible_exact_solution(self):
        rng = np.random.default_rng(7)
        a = rng.random((30, 8))
        x_true = np.abs(rng.random(8))
        res = nnls(a, a @ x_true)
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert res.residual < 1e-10

    def test_kkt_conditions_random_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = int(rng.integers(10, 40)), int(rng.integers(3, 15))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            res = nnls(a, b)
            assert res.converged
            grad = a.T @ (a @ res.x - b)
            scale = np.linalg.norm(a.T @ b)
            assert np.all(res.x >= 0.0)
            active = res.x > 0.0
            assert np.all(np.abs(grad[active]) <= 1e-8 * scale)
            assert np.all(grad[~active] >= -1e-8 * scale)

    def test_never_beaten_by_random_feasible_points(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((25, 6))
        b = rng.standard_normal(25)
        res = nnls(a, b)
        obj = np.linalg.norm(a @ res.x - b)
        pts = rng.random((10_000, 6)) * 2.0
        vals = np.linalg.norm(pts @ a.T - b, axis=1)
        assert np.all(obj <= vals + 1e-12)

    def test_iteration_cap_warns_and_returns_feasible(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        with pytest.warns(RuntimeWarning), capped_nnls(1):
            res = nnls(a, b)
        assert not res.converged
        assert np.all(res.x >= 0.0)

    def test_iteration_cap_returns_the_best_point(self):
        # one solve from x0's free set, then the cap: the answer is the
        # better of x0 and that solve projected onto x >= 0
        rng = np.random.default_rng(19)
        a = rng.standard_normal((20, 10))
        b = a @ rng.random(10) - 2.0 * rng.random(20)
        x0 = rng.random(10) * (rng.random(10) < 0.5)
        free = x0 > 0.0
        z = np.zeros(10)
        z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
        with pytest.warns(RuntimeWarning), capped_nnls(1):
            res = nnls(a, b, x0=x0)
        best = min((x0, np.maximum(z, 0.0)),
                   key=lambda v: np.linalg.norm(a @ v - b))
        assert not res.converged
        assert np.max(np.abs(res.x - best)) <= 1e-12 * np.max(best)
        assert not np.array_equal(best, x0)

    def test_iteration_cap_from_warm_start_warns_and_returns_feasible(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        with pytest.warns(RuntimeWarning), capped_nnls(1):
            res = nnls(a, b, x0=rng.random(10))
        assert not res.converged
        assert np.all(res.x >= 0.0)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            nnls(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_data_rejected(self, value):
        # a NaN target once gave x = 0, "converged", residual NaN
        with pytest.raises(ConfigurationError, match="finite"):
            nnls(np.eye(2), np.array([value, 1.0]))
        a = np.eye(2)
        a[1, 0] = value
        with pytest.raises(ConfigurationError, match="finite"):
            nnls(a, np.ones(2))

    def test_warm_start_matches_cold_solution(self):
        # criterion 07's family of random problems.  The fit a x at the
        # optimum is unique; x itself is unique only when a has full column
        # rank, which fails for the wide problems (m < n) of the family
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = int(rng.integers(10, 60)), int(rng.integers(3, 20))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            cold = nnls(a, b)
            for x0 in (np.zeros(n), cold.x, 2.0 * rng.random(n)):
                warm = nnls(a, b, x0=x0)
                assert warm.converged
                assert np.all(warm.x >= 0.0)
                assert scaled_kkt(a, b, warm.x) <= 1e-8
                assert np.max(np.abs(a @ (warm.x - cold.x))) <= 1e-10
                if m >= n:
                    assert np.max(np.abs(warm.x - cold.x)) <= 1e-10

    def test_warm_start_from_solution_is_immediate(self):
        # a problem whose cold solve needs more than one exchange
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 20))
        b = rng.standard_normal(30)
        cold = nnls(a, b)
        assert nnls(a, b, x0=cold.x).iterations <= 1 < cold.iterations

    @pytest.mark.parametrize("x0", [[1.0, -1e-12, 0.0], [1.0, np.nan, 0.0],
                                    [1.0, np.inf, 0.0], [1.0, 0.0],
                                    [[1.0, 0.0, 0.0]]])
    def test_invalid_start_rejected(self, x0):
        with pytest.raises(ConfigurationError):
            nnls(np.eye(3), np.ones(3), x0=np.array(x0))

    def test_tq_problem_on_8x8_cells(self):
        ops = make_ops(m1=8, m2=8)
        prob = build_problem(ops, make_tac(ops, pulse(163)), 1e-3, 1e-3)
        a, b = stacked(prob), prob.target
        assert a.shape[1] == 64 * prob.time_mesh.m
        res = nnls(a, b)
        assert res.converged
        assert scaled_kkt(a, b, res.x) <= 1e-8

    def test_tq_answer_independent_of_start(self):
        # every start ends on the same free set, whose system the
        # pivoting solve solves exactly: one curve for every start
        ops = make_ops(m1=8, m2=8)
        prob = build_problem(ops, make_tac(ops, pulse(163)), 1e-3, 1e-3)
        cold = nnls(prob, prob.target)
        curve = prob.mean_curve(cold.x)
        rng = np.random.default_rng(29)
        for x0 in (cold.x, rng.random(prob.n_cols) + 0.01):
            warm = nnls(prob, prob.target, x0=x0)
            assert warm.converged
            assert np.max(np.abs(prob.mean_curve(warm.x) - curve)) \
                <= 1e-9 * np.max(curve)

    @pytest.mark.parametrize("cells", [4, 8])
    @pytest.mark.parametrize("r1, r2", [(0.0, 1e-3), (0.0, 0.0)])
    def test_tq_rank_deficient_free_sets(self, cells, r1, r2):
        # at r1 = 0 the penalty blocks are singular, and at r2 = 0 the
        # stacked matrix is wide: large free sets are rank deficient
        ops = make_ops(m1=cells, m2=cells)
        tac = make_tac(ops, pulse(163))
        res = deconvolve(ops, tac, r1, r2)
        prob = build_problem(ops, tac, r1, r2)
        assert res.converged
        assert scaled_kkt(stacked(prob), prob.target, res.nnls.x) <= 1e-8

    def test_gram_over_budget_raises(self, monkeypatch):
        # at r1 = 0 the penalty blocks do not factor, so a free set larger
        # than K (121) forms its Gram; over the budget that is a typed error
        monkeypatch.setattr(deconvolution, "_GRAM_BUDGET", 8 * 177 ** 2 - 1)
        ops = make_ops()
        with pytest.raises(ConfigurationError, match="177 columns"):
            deconvolve(ops, make_tac(ops, pulse(121)), 0.0, 1e-3)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rows=st.integers(2, 40), cols=st.integers(1, 25),
           copies=st.integers(0, 4), seed=st.integers(0, 2 ** 16))
    def test_warm_and_cold_solves_agree(self, rows, cols, copies, seed):
        # tall and wide problems, some with duplicated columns, from zero
        # and from a random start
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((rows, cols))
        a = np.hstack([base, base[:, rng.integers(0, cols, copies)]])
        b = rng.standard_normal(rows)
        x0 = rng.random(a.shape[1]) * (rng.random(a.shape[1]) < 0.6)
        cold = nnls(a, b)
        for res in (cold, nnls(a, b, x0=x0)):
            assert res.converged
            assert np.all(res.x >= 0.0)
            assert scaled_kkt(a, b, res.x) <= 1e-8
            assert np.max(np.abs(a @ (res.x - cold.x))) <= 1e-10

    @pytest.mark.parametrize("rows, cols, copies, seed, warm",
                             [(6, 16, 1, 4319, True), (10, 25, 0, 48528, False)])
    def test_singular_gram_does_not_cycle(self, rows, cols, copies, seed,
                                          warm):
        # wide problems on which single principal pivots cycle or wander
        # until the cap; the feasible single exchanges end them
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((rows, cols))
        a = np.hstack([base, base[:, rng.integers(0, cols, copies)]])
        b = rng.standard_normal(rows)
        x0 = rng.random(a.shape[1]) * (rng.random(a.shape[1]) < 0.6)
        res = nnls(a, b, x0=x0 if warm else None)
        assert res.converged
        assert scaled_kkt(a, b, res.x) <= 1e-8

    def test_zero_step_entry_does_not_cycle(self):
        # columns 0 and 2 have condition number 1e4; unless their free-set
        # solve is refined, column 1 breaks the dual tolerance by rounding and
        # solves negative beside them, so its entry moves x by a zero step,
        # and re-entering it runs to the cap (12, or 1000)
        a = np.array([[-1.3700287996106297, 0.7691515785822234,
                       0.5021353186606634, 2.3020698833701196],
                      [-0.34465767986942786, 1.3381310251274214,
                       0.12616278055386868, 0.6998559514741798]])
        b = np.array([0.19762560714522448, -1.2829434465309564])
        from scipy.optimize import nnls as scipy_nnls
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = nnls(a, b)
        assert res.converged and res.iterations <= 12
        ref = scipy_nnls(a, b)[0]
        assert np.max(np.abs(res.x - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_ill_conditioned_exact_fit_is_refined(self):
        # the free set {0, 2, 3} has condition number 1.1e5, squared on its
        # Gram: an unrefined solve leaves duals 120-224 times the tolerance
        a = np.array([[-0.2690607808830497, -2.546221943457742,
                       1.26648876134398, -0.6615677129365322,
                       0.28999822338893305, -0.9733836481043466],
                      [-0.3905410509769505, 0.599433247396696,
                       -1.3127591071052762, 1.1804011180365657,
                       -1.3219632104602548, 0.03072775035252521],
                      [-1.3974495757189387, -0.3918950438583486,
                       0.5358215555252785, 0.6685169843206893,
                       1.1732292410375424, 0.18581842125795187]])
        b = np.array([1.4126806481722638, -0.7377271634305704,
                      -0.07876486961278573])
        from scipy.optimize import nnls as scipy_nnls
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = nnls(a, b)
        assert res.converged
        assert scaled_kkt(a, b, res.x) <= 1e-8
        ref = scipy_nnls(a, b)[0]
        assert np.max(np.abs(res.x - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_column_solved_to_zero_is_held(self):
        # columns 0 and 3 differ by about 1e-8 relative, so the pivoted factor
        # holds column 0 at exactly zero on the free set {0, 3}; kept free, a
        # held column escapes the dual test, and the solve stops "converged"
        # at scaled KKT 3e-8 on the support {0, 1}
        a = np.array([[0.7131727935387797, -0.36714270580216096,
                       -0.8165231498130866, 0.7131727773308515],
                      [1.5210992656234712, -0.06471761760733605,
                       0.16424570391647705, 1.521099238886075],
                      [0.33556060418864436, -0.3648423557472923,
                       1.6748583617437256, 0.33556059475110145],
                      [-0.9140452018706795, 0.28970937591250934,
                       0.10501370662823215, -0.9140452392530216]])
        b = np.array([0.1243152603984885, -0.3538646808771685,
                      -0.7940525164906479, -1.0184071284356127])
        from scipy.optimize import nnls as scipy_nnls
        res = nnls(a, b)
        assert res.converged
        assert scaled_kkt(a, b, res.x) <= 1e-8
        ref = scipy_nnls(a, b)[0]
        assert np.array_equal(res.x > 0.0, ref > 0.0)

    def test_void_column_held_and_reported(self):
        # a plain matrix gets the engine's void rule: a column at 1e-13 of
        # the others that alone spans the target stays at zero from any
        # start, and the result names it
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 4))
        void = np.linalg.svd(a[:, :3].T)[2][-1]     # orthogonal to the rest
        a[:, 3] = 1e-13 * void
        for x0 in (None, np.ones(4)):
            res = nnls(a, void, x0=x0)
            assert res.converged
            assert res.void.tolist() == [False, False, False, True]
            assert res.x[3] == 0.0

    def test_duplicated_columns_fall_back(self, monkeypatch):
        # a free set holding a column twice has a singular Gram: the
        # pivoted factor stops short of full rank and holds the copy at zero
        # (``_gram_solve`` imports LAPACK's pivoted Cholesky on first use)
        breakdowns = []
        pstrf = lapack.dpstrf

        def spy(gram, **kwargs):
            out = pstrf(gram, **kwargs)
            breakdowns.append(out[2] < gram.shape[0])
            return out

        monkeypatch.setattr(lapack, "dpstrf", spy)
        rng = np.random.default_rng(23)
        base = rng.standard_normal((40, 6))
        a = np.hstack([base, base[:, :3]])
        b = rng.standard_normal(40)
        for x0 in (None, rng.random(9) + 0.1):
            res = nnls(a, b, x0=x0)
            assert res.converged
            assert np.all(res.x >= 0.0)
            assert scaled_kkt(a, b, res.x) <= 1e-8
        assert any(breakdowns)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
    def test_numpy_and_lapack_gram_solves_agree(self, monkeypatch, n):
        # free sets up to _NUMPY_COLS columns are solved with numpy, wider
        # ones with LAPACK's Cholesky factor; with the width set to 0 the
        # same unit-diagonal SPD systems go to LAPACK
        assert n <= deconvolution._NUMPY_COLS
        rng = np.random.default_rng(n)
        systems = []
        for _ in range(5):
            a = rng.standard_normal((2 * n, n)) * rng.uniform(0.1, 10.0, n)
            gram = a.T @ a
            s = np.sqrt(np.diag(gram))
            systems.append((gram / np.outer(s, s), rng.standard_normal(n)))
        calls = []
        potrf = lapack.dpotrf

        def spy(gram, **kwargs):
            calls.append(gram.shape[0])
            return potrf(gram, **kwargs)

        monkeypatch.setattr(lapack, "dpotrf", spy)

        def solve(gram, f):
            return deconvolution._gram_solve(gram, f, lambda z: f - gram @ z)

        narrow = [solve(*system) for system in systems]
        assert calls == []
        monkeypatch.setattr(deconvolution, "_NUMPY_COLS", 0)
        wide = [solve(*system) for system in systems]
        assert calls == [n] * len(systems)
        for (gram, f), x, y in zip(systems, narrow, wide):
            assert np.linalg.norm(x - y) <= 1e-13 * np.linalg.norm(y)
            assert np.linalg.norm(gram @ x - f) <= 1e-14 * np.linalg.norm(f)

    def test_inaccurate_woodbury_solve_falls_back(self, monkeypatch):
        # free sets wider than the design go through the Woodbury
        # capacitance system; penalty blocks of condition 1e13 pass its
        # pivot check yet leave it inaccurate, so a solution whose free-set
        # gradient breaks the stop rule gives way to the Gram solve
        woodbury, refused = deconvolution._Normal._capacitance_solve, []

        def spy(normal, free):
            x = woodbury(normal, free)
            if x is not None:
                grad = normal.s * (normal.gx(x) - normal.f)
                refused.append(np.max(np.abs(grad[free])) > normal.tol)
            return x

        monkeypatch.setattr(deconvolution._Normal, "_capacitance_solve", spy)
        rng = np.random.default_rng(0)
        cells, m, rows = 4, 10, 20
        design = rng.standard_normal((rows, cells * m))
        roots = np.stack([
            np.diag(np.logspace(0.0, -6.5, m))
            @ np.linalg.qr(rng.standard_normal((m, m)))[0].T
            for _ in range(cells)])
        a = block_problem(design, roots)
        b = np.concatenate([design @ rng.uniform(0.5, 1.5, cells * m),
                            np.zeros(cells * m)])
        res = nnls(a, b)
        assert res.converged
        assert scaled_kkt(a, b, res.x) <= 1e-9
        assert any(refused)


def toeplitz_designs(kernels, sample):
    """Reference designs, transposed: the K x K Toeplitz matrix of each lag
    kernel, zero on and above the diagonal, times the sampled basis."""
    from scipy.linalg import toeplitz
    n = sample.shape[0]
    return np.stack([(toeplitz(np.concatenate([[0.0], kern[:n - 1]]),
                               np.zeros(n)) @ sample).T for kern in kernels])


def assert_close_per_kernel(got, want, rel):
    """Each kernel's design within ``rel`` of that design's own max."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want).max(axis=(1, 2))
                  <= rel * np.abs(want).max(axis=(1, 2)))


def hat_sample(n, m):
    return deconvolution._time_basis(TimeMesh(m, n - 1.0, 1.0))[2]


class TestDesigns:
    @pytest.mark.parametrize("n", [2, 3, 17, 163])
    def test_equals_scipy_toeplitz(self, n):
        # a dense S: every lag reaches every block; m = 2 + n // 3 columns
        # give one block for small n and several for n = 163
        rng = np.random.default_rng(n)
        sample = rng.random((n, 2 + n // 3))
        kern = rng.random((3, n + 4))
        got = deconvolution._designs(kern, deconvolution._lag_blocks(sample))
        assert_close_per_kernel(got, toeplitz_designs(kern, sample), 1e-13)

    # K not a multiple of the row block, m = 2, m near K / 2, the records'
    # meshes, and a single kernel
    @pytest.mark.parametrize("n, m, count", [
        (45, 2, 3), (45, 22, 3), (61, 30, 2), (163, 16, 4), (199, 20, 1),
        (21, 7, 1), (2, 2, 2), (3, 2, 1)])
    def test_hat_basis_equals_scipy_toeplitz(self, n, m, count):
        sample = hat_sample(n, m)
        lags = deconvolution._lag_blocks(sample)
        kern = np.random.default_rng(n + m).random((count, n + 2))
        got = deconvolution._designs(kern, lags)
        assert got.shape == (count, m, n)
        assert_close_per_kernel(got, toeplitz_designs(kern, sample), 1e-15)

    def test_blocks_hold_only_lags_that_reach(self):
        # each hat spans two node spacings: the blocks of the K = 199,
        # m = 20 basis hold under four entries per nonzero of the lag
        # tensor (the nonzeros of S[:k] for each row k), and no block is
        # all zero
        sample = hat_sample(199, 20)
        shape, blocks = deconvolution._lag_blocks(sample)
        assert shape == (199, 20)
        nonzeros = sum(np.count_nonzero(sample[:k]) for k in range(199))
        assert sum(b.lag.size for b in blocks) < 4 * nonzeros
        assert all(np.any(b.lag) and not b.lag.flags.writeable
                   for b in blocks)

    def test_batched_equals_one_by_one(self):
        sample = np.random.default_rng(5).random((31, 12))
        lags = deconvolution._lag_blocks(sample)
        assert len(lags[1]) > 1 and lags[1][1].j0 > 0
        kern = np.random.default_rng(3).random((6, 40))
        batch = deconvolution._designs(kern, lags)
        assert batch.shape == (6, 12, 31)
        for i in range(6):
            one = deconvolution._designs(kern[i:i + 1], lags)[0]
            assert np.max(np.abs(batch[i] - one)) <= 1e-13 * np.max(np.abs(one))

    def test_tq_design_columns(self):
        # column c m + j of the tq design is kernel c's Toeplitz matrix
        # times basis column j: temporal index fastest, then the cells
        ops = make_ops(m1=3, m2=2)
        tac = make_tac(ops, pulse(75))
        prob = build_problem(ops, tac, 1e-3, 1e-3, m=9)
        kernels = forward_model.impulse_kernels(ops, tac.size - 1)
        want = toeplitz_designs(kernels, prob.sample)
        assert prob.design.shape == (75, 6 * 9)
        got = prob.design.reshape(75, 6, 9).transpose(1, 2, 0)
        assert_close_per_kernel(got, want, 1e-15)

    def test_blocks_built_once_per_mesh(self):
        tm = TimeMesh(12, 90.0, 1.0)
        assert deconvolution._mesh_lags(tm) is deconvolution._mesh_lags(
            TimeMesh(12, 90.0, 1.0))


def batch_nnls(a, b, x0, max_iter):
    """One run of the exchange loop on the problems min ||a_i x - b_i||,
    x >= 0 (a: B x K x c), all from x0, given by their normal equations:
    x, the converged flags, the iteration counts and the ``_Grams``."""
    normal = deconvolution._Grams.of(np.swapaxes(a, 1, 2) @ a,
                                     np.einsum("pkc,pk->pc", a, b))
    x, converged, iterations = deconvolution._pivoting(
        normal, normal.s * x0 * normal.keep, max_iter)
    return x / normal.s, converged, iterations, normal


class TestBatchedPivoting:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cols=st.integers(1, 10), extra=st.integers(0, 20),
           problems=st.integers(1, 4),
           noise=st.sampled_from([1e-8, 1e-4, 1.0]),
           kind=st.sampled_from(["plain", "plain", "duplicate", "zero",
                                 "void", "cap"]),
           seed=st.integers(0, 2 ** 16))
    def test_batch_equals_each_nnls(self, cols, extra, problems, noise, kind,
                                    seed):
        # one run of the engine on a batch of problems given by their
        # normal equations meets each problem's own nnls from the same
        # start: a duplicated column breaks its factor down, a zero target
        # gives exact zeros, a void column is zeroed (as nnls zeroes it),
        # and a cap of one iteration returns the best iterate.  The data
        # carry noise: on an exact fit a coefficient that is zero in
        # truth comes out as +-1e-17, and its sign, which rounding decides,
        # decides whether one more exchange follows
        rng = np.random.default_rng(seed)
        x0 = rng.random(cols) * (rng.random(cols) < 0.7)
        a = rng.standard_normal((problems, 2 * cols + extra, cols))
        if kind == "duplicate":     # both copies start free
            a[0, :, -1] = a[0, :, 0]
            x0[[0, -1]] = 1.0
        x_true = (rng.random(cols) < 0.7) * (0.5 + rng.random(cols))
        b = a @ x_true + noise * rng.standard_normal(a.shape[:2])
        if kind == "zero":
            b[0] = 0.0
        if kind == "void":
            a[0, :, -1] *= 1e-13
        max_iter = 1 if kind == "cap" else 3 * cols
        x, converged, iterations, _ = batch_nnls(a, b, x0, max_iter)
        for i in range(problems):
            keep = ~deconvolution._void(np.sum(a[i] ** 2, axis=0))
            with warnings.catch_warnings(), capped_nnls(max_iter):
                warnings.simplefilter("ignore", RuntimeWarning)
                res = nnls(a[i] * keep, b[i], x0=x0 * keep)
            assert converged[i] == res.converged
            assert iterations[i] == res.iterations
            scale = max(float(np.linalg.norm(res.x)), 1e-300)
            assert np.linalg.norm(x[i] - res.x) <= 1e-10 * scale

    def test_void_column_stays_at_zero(self):
        # a column at 1e-13 of the others that alone spans the target: its
        # dual breaks the stop rule, but zeroed (as nnls zeroes it) it
        # stays at zero, while the other problem is solved
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 12, 4))
        void = np.linalg.svd(a[0, :, :3].T)[2][-1]   # orthogonal to the rest
        a[0, :, 3] = 1e-13 * void
        b = np.stack([void, rng.standard_normal(12)])
        x, converged, _, normal = batch_nnls(a, b, np.ones(4), 12)
        assert normal.keep.tolist() == [[True] * 3 + [False], [True] * 4]
        assert converged.all() and x[0, 3] == 0.0
        assert np.max(np.abs(x[0])) <= 1e-12     # the rest sees no target
        assert np.max(np.abs(x[1] - nnls(a[1], b[1]).x)) <= 1e-10

    def test_backup_rule_fires_within_a_batch(self):
        # the wide problem on which full exchanges wander (see
        # test_singular_gram_does_not_cycle) turns to single exchanges while
        # a tall one beside it converges by full exchanges; the wide Gram is
        # singular, so only its fit a x is unique
        rng = np.random.default_rng(48528)
        wide = rng.standard_normal((10, 25))
        a = np.stack([np.vstack([wide, np.zeros((25, 25))]),
                      np.vstack([wide, 3.0 * np.eye(25)])])
        b = rng.standard_normal((2, 35))
        x, converged, iterations, _ = batch_nnls(a, b, np.zeros(25), 75)
        for i in range(2):
            res = nnls(a[i], b[i])
            assert converged[i] and res.converged
            assert scaled_kkt(a[i], b[i], x[i]) <= 1e-8
            assert np.max(np.abs(a[i] @ (x[i] - res.x))) <= 1e-10
        assert iterations[1] == nnls(a[1], b[1]).iterations
        assert iterations[0] > deconvolution._BACKUP + iterations[1]


class TestVoidColumns:
    def test_threshold_is_relative_to_the_largest_norm(self):
        # a column at 0.9e-12 of the largest norm is void, 1.1e-12 is not
        norms = 3.0 * np.array([1.0, 0.9e-12, 1.1e-12, 0.0])
        assert deconvolution._void(norms ** 2).tolist() == [
            False, True, False, True]
        # per problem along the last axis
        both = np.stack([norms, norms[[1, 0, 2, 3]] * 1e6]) ** 2
        assert deconvolution._void(both).tolist() == [
            [False, True, False, True], [True, False, False, True]]


class TestBuildProblem:
    def test_negative_regularization_rejected(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        with pytest.raises(ConfigurationError):
            build_problem(ops, tac, -1.0, 0.1)

    @pytest.mark.parametrize("r1, r2", [(np.nan, 0.1), (0.1, np.nan),
                                        (np.inf, 0.1), (0.1, np.inf),
                                        (-np.inf, 0.1), (0.1, -np.inf)])
    def test_nonfinite_regularization_rejected(self, r1, r2):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        with pytest.raises(ConfigurationError, match="finite"):
            build_problem(ops, tac, r1, r2)
        with pytest.raises(ConfigurationError, match="finite"):
            build_problem(ops, tac, 0.1, 0.1).with_regs(r1, r2)

    def test_small_regularization_snaps_to_zero(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        prob = build_problem(ops, tac, 1e-8, 1e-7)
        assert prob.r1 == 0.0 and prob.r2 == 0.0

    def test_unknown_variant_rejected(self):
        ops = make_ops()
        with pytest.raises(ConfigurationError, match="unknown variant 'foo'"):
            build_problem(ops, make_tac(ops, pulse(61)), 0.1, 0.1,
                          variant="foo")

    def test_zero_kernels_rejected(self):
        ops = make_ops()
        dead = replace(ops, qbar2=np.zeros_like(ops.qbar2))
        tac = np.zeros(61)
        with pytest.raises(NumericalError):
            build_problem(dead, tac, 0.1, 0.1)

    def test_block_penalty_stacks_as_kron(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(121))
        prob = build_problem(ops, tac, 2e-3, 5e-2)
        m = prob.time_mesh.m
        assert prob.penalty_sqrt.shape == (16, m, m)
        g0, g1, _ = temporal_basis_matrices(prob.time_mesh)
        dense = np.kron(np.diag(np.sqrt(prob.cell_masses)),
                        sqrtm_psd(2e-3 * g0 + 5e-2 * g1))
        assert np.array_equal(stacked(prob), np.vstack([prob.design, dense]))
        scalar = build_problem(ops, tac, 2e-3, 5e-2, variant="scalar")
        assert np.array_equal(scalar.cell_masses, [1.0])
        assert np.array_equal(stacked(scalar), np.vstack(
            [scalar.design, sqrtm_psd(2e-3 * g0 + 5e-2 * g1)]))

    def test_design_reproduces_forward_map(self):
        # the stacked design applied to exact input coefficients returns the
        # recursion output at every grid instant
        ops = make_ops()
        u = pulse(121)
        tac = make_tac(ops, u)
        prob = build_problem(ops, tac, 0.0, 0.0, m=121, variant="scalar")
        y_design = prob.design @ u
        assert np.max(np.abs(y_design - tac)) < 1e-9


class TestStackedOperator:
    def test_products_match_dense_stacked(self):
        ops = make_ops()
        prob = build_problem(ops, make_tac(ops, pulse(121)), 2e-3, 5e-2)
        a = prob
        dense = stacked(prob)
        rng = np.random.default_rng(3)
        x, r = rng.standard_normal(a.shape[1]), rng.standard_normal(a.shape[0])
        assert a.shape == dense.shape and a.T.shape == dense.T.shape
        assert np.allclose(a @ x, dense @ x, rtol=1e-13, atol=1e-15)
        assert np.allclose(a.T @ r, dense.T @ r, rtol=1e-13, atol=1e-15)

    def test_freed_without_cyclic_collector(self):
        # the adjoint is built on access, so the operator (and the design
        # it holds) goes with its last reference even after op.T @ v
        rng = np.random.default_rng(4)
        design = rng.standard_normal((12, 6))
        roots = rng.standard_normal((2, 3, 3))
        gc.disable()
        try:
            op = block_problem(design, roots)
            op.T @ (op @ np.ones(6))
            ref = weakref.ref(op)
            del op
            assert ref() is None
        finally:
            gc.enable()


class TestDeconvolve:
    def test_round_trip_tq(self):
        ops = make_ops()
        u = pulse(301)
        tac = make_tac(ops, u)
        res = deconvolve(ops, tac, 1e-3, 1e-3)
        rel = np.linalg.norm(res.mean_curve - u) / np.linalg.norm(u)
        assert rel < 0.10
        assert res.converged

    def test_round_trip_scalar(self):
        ops = make_ops()
        u = pulse(301)
        tac = make_tac(ops, u)
        res = deconvolve(ops, tac, 1e-3, 1e-3, variant="scalar")
        rel = np.linalg.norm(res.mean_curve - u) / np.linalg.norm(u)
        assert rel < 0.10

    def test_variants_identical_on_single_cell_grid(self):
        ops = make_ops(m1=1, m2=1)
        u = pulse(181)
        tac = make_tac(ops, u)
        a = deconvolve(ops, tac, 1e-3, 1e-2, variant="tq")
        b = deconvolve(ops, tac, 1e-3, 1e-2, variant="scalar")
        assert np.max(np.abs(a.mean_curve - b.mean_curve)) < 1e-12

    def test_misfit_monotone_in_penalty_weight(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(301))
        for variant, r1 in (("tq", 1e-2), ("scalar", 1e-3)):
            mis = [deconvolve(ops, tac, r1, r2, variant=variant).residual
                   for r2 in (1e-3, 1e-2, 1e-1, 1.0, 10.0)]
            assert all(x <= y + 1e-12 for x, y in zip(mis, mis[1:])), \
                (variant, mis)

    def test_objective_bounded_by_zero_solution(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(301))
        for r1, r2 in ((0.0, 0.0), (1e-3, 1e-2), (1.0, 1.0)):
            res = deconvolve(ops, tac, r1, r2)
            assert res.nnls.residual <= np.linalg.norm(tac) + 1e-12

    def test_estimate_nonnegative(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(301))
        res = deconvolve(ops, tac, 1e-4, 1e-4)
        assert np.all(res.coeffs >= 0.0)
        assert np.all(res.mean_curve >= -1e-14)

    def test_coeff_tensor_shape(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(121))
        res = deconvolve(ops, tac, 1e-3, 1e-3, m=10)
        assert res.coeffs.shape == (10, 4, 4)
        flat_mean = np.tensordot(res.coeffs.reshape(10, 16, order="F"),
                                 forward_model.assemble(
                                     make_params(),
                                     DiscretizationGrid.from_params(
                                         make_params())).p,
                                 axes=(1, 0))
        recon = res.mean_curve
        sampled = np.linalg.norm(recon)
        assert sampled > 0 and flat_mean.shape == (10,)

    def test_coeff_tensor_layout(self):
        # coeffs[:, i1, i2] is the block of cell i1 + m1 * i2 in the flat
        # solution, temporal index fastest
        ops = make_ops(m1=3, m2=2)
        res = deconvolve(ops, make_tac(ops, pulse(121)), 1e-3, 1e-3, m=10)
        blocks = res.nnls.x.reshape(6, 10)
        for i1 in range(3):
            for i2 in range(2):
                assert np.array_equal(res.coeffs[:, i1, i2],
                                      blocks[i1 + 3 * i2])

    def test_one_cell_scalar_is_single_subject(self):
        # a single subject is the one-cell population at its cell means
        ops = make_ops(m1=1, m2=1)
        tac = make_tac(ops, pulse(181))
        res = deconvolve(ops, tac, 1e-3, 1e-2, variant="scalar")
        det = forward_model.deterministic_ops(
            (ops.qbar1[0], ops.p[0] * ops.qbar2[0]), ops.spatial,
            ops.tau)
        curve, _ = deconvolve_deterministic(det, tac, 1e-3, 1e-2)
        assert np.max(np.abs(res.mean_curve - curve)) \
            <= 1e-12 * np.max(np.abs(curve))
        # and the single subject is a one-cell system that deconvolve takes;
        # its scalar problem is the very one deconvolve_deterministic solves
        own = deconvolve(det, tac, 1e-3, 1e-2, variant="scalar")
        assert np.array_equal(own.mean_curve, curve)
        own = deconvolve(det, tac, 1e-3, 1e-2, variant="tq")
        assert np.max(np.abs(own.mean_curve - curve)) \
            <= 1e-12 * np.max(np.abs(curve))

    def test_deterministic_variant(self):
        det = forward_model.deterministic_ops((0.62, 1.0), SpatialMesh(4), 1.0)
        u = pulse(301)
        y = forward_model.simulate_deterministic(det, u[:-1])
        tac = np.concatenate([[0.0], y])
        curve, sol = deconvolve_deterministic(det, tac, 1e-4, 1e-4)
        rel = np.linalg.norm(curve - u) / np.linalg.norm(u)
        assert rel < 0.10 and sol.converged

    def test_deterministic_warm_start_matches_cold(self):
        # a complete excursion: the input is back at zero before the end,
        # so the cold solve needs several exchanges
        mesh = SpatialMesh(4)
        u = bump(181, 40.0, 120.0, 0.08)
        tac = np.concatenate([[0.0], forward_model.simulate_deterministic(
            forward_model.deterministic_ops((0.62, 1.0), mesh, 1.0), u[:-1])])
        _, start = deconvolve_deterministic(
            forward_model.deterministic_ops((0.62, 1.0), mesh, 1.0), tac,
            1e-3, 1e-3)
        det = forward_model.deterministic_ops((0.7, 1.2), mesh, 1.0)
        cold_curve, cold = deconvolve_deterministic(det, tac, 1e-3, 1e-3)
        # the cold solve is build_problem's scalar problem through nnls,
        # which a nearby pair's solution warm-starts to the same point
        problem = build_problem(det, tac, 1e-3, 1e-3, variant="scalar")
        again = nnls(problem, problem.target)
        assert np.array_equal(cold.x, again.x)
        assert cold.iterations == again.iterations
        warm = nnls(problem, problem.target, x0=start.x)
        assert warm.converged and warm.iterations < cold.iterations
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-10
        assert np.max(np.abs(problem.sample @ warm.x - cold_curve)) <= 1e-10

    def test_deterministic_input_checks(self):
        # a single subject gets deconvolve's checks: they are one builder's
        det = forward_model.deterministic_ops((0.62, 1.0), SpatialMesh(4), 1.0)
        tac = make_tac(det, pulse(61))
        for bad in (np.stack([tac, tac]), tac[:1]):
            with pytest.raises(ConfigurationError):
                deconvolve_deterministic(det, bad, 1e-3, 1e-3)
        mute = forward_model.deterministic_ops((0.62, 0.0), SpatialMesh(4), 1.0)
        with pytest.raises(NumericalError):
            deconvolve_deterministic(mute, tac, 1e-3, 1e-3)


class TestSelectRegularization:
    def _episode(self, ops, k=301, seed=None):
        u = pulse(k)
        t = np.arange(k, dtype=float)
        tac = make_tac(ops, u)
        return build_episode("train", t, u, t, tac, tau=1.0)

    def test_beats_simplex_start(self, monkeypatch):
        monkeypatch.setattr(deconvolution, "_COMPASS_EVALS", 25)
        ops = make_ops()
        ep = self._episode(ops)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r1, r2 = select_regularization(ops, [ep])
        assert r1 >= 0.0 and r2 >= 0.0

        def misfit(rr1, rr2):
            res = deconvolve(ops, ep.y, rr1, rr2)
            du = res.mean_curve[:-1] - ep.u[:-1]
            dy = res.fitted_tac[1:] - ep.y[1:]
            return float(du @ du + dy @ dy)

        assert misfit(r1, r2) <= misfit(1e-1, 1.0) + 1e-12

    def test_long_record_search_converges(self):
        # acceptance criterion 06's training episode: one K = 301 record
        ops = make_ops()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            search = select_regularization(ops, [self._episode(ops)])
        assert search.converged and search.evals <= 100
        assert min(score for _, _, score in search.path) <= 1.7171e-4

    def test_rejects_episode_without_brac(self):
        ops = make_ops()
        ep = self._episode(ops)
        bare = replace(ep, u=None)
        with pytest.raises(ConfigurationError):
            select_regularization(ops, [bare])

    def test_rejects_tau_mismatch(self):
        ops = make_ops()
        ep = self._episode(ops)
        half = replace(ep, tau=0.5)
        with pytest.raises(ConfigurationError):
            select_regularization(ops, [half])


def bump(k, peak, end, height):
    """Smooth complete excursion: up to ``height`` at ``peak``, back at zero
    from ``end`` on."""
    t = np.arange(k, dtype=float)
    rise = np.sin(0.5 * np.pi * np.clip(t / peak, 0.0, 1.0)) ** 2
    fall = np.cos(0.5 * np.pi * np.clip((t - peak) / (end - peak), 0.0,
                                        1.0)) ** 2
    return height * np.where(t <= peak, rise, fall)


class TestSearchRecord:
    """The two-stage search on a two-episode problem of the benchmark's
    size: K = 121, tq variant on a 4 x 4 parameter mesh."""

    def _episodes(self, ops, scale=1.0):
        t = np.arange(121, dtype=float)
        out = []
        for k, shape in enumerate(((25.0, 90.0, 0.08), (40.0, 105.0, 0.06))):
            u = scale * bump(121, *shape)
            out.append(build_episode(f"train{k}", t, u, t, make_tac(ops, u),
                                     tau=1.0))
        return out

    def test_converges_in_budget_inside_the_box(self, monkeypatch):
        ops = make_ops()
        episodes = self._episodes(ops)
        calls = []
        misfit = deconvolution._selection_misfit

        def counted(*args):
            calls.append(args[1:])
            return misfit(*args)

        monkeypatch.setattr(deconvolution, "_selection_misfit", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            search = select_regularization(ops, episodes)
        assert search.converged
        assert search.evals == len(calls) == len(search.path) <= 100
        lo, hi = deconvolution._LOG_BOUNDS
        for log_r1, log_r2, score in search.path:
            assert lo <= log_r1 <= hi and lo <= log_r2 <= hi
            assert np.isfinite(score)
        r1, r2 = search
        assert (r1, r2) == (search.r1, search.r2)
        # the best r1 of this problem lies on the box's lower edge
        assert r1 == deconvolution.REG_FLOOR
        assert search.at_bound

    def test_identical_record_from_two_calls(self):
        ops = make_ops()
        episodes = self._episodes(ops)
        assert select_regularization(ops, episodes) == \
            select_regularization(ops, episodes)

    def test_verdict_free_of_units(self):
        # BrAC and TAC scaled by 2^k: the search compares scores only, so
        # it walks the same path and every score scales by exactly 4^k
        ops = make_ops()
        base = select_regularization(ops, self._episodes(ops))
        for k in (-7, 7):
            scaled = select_regularization(
                ops, self._episodes(ops, scale=2.0 ** k))
            assert scaled == replace(base, path=tuple(
                (x, y, 4.0 ** k * score) for x, y, score in base.path))

    @pytest.mark.parametrize("target, at_bound", [((-3.3, 0.4), False),
                                                  ((-7.0, -1.2), True)])
    def test_bound_flag_on_a_model_objective(self, monkeypatch, target,
                                             at_bound):
        ops = make_ops()
        ep = self._episodes(ops)[0]

        def bowl(episodes, r1, r2):
            return float((np.log10(r1) - target[0]) ** 2
                         + 2.0 * (np.log10(r2) - target[1]) ** 2)

        monkeypatch.setattr(deconvolution, "_selection_misfit", bowl)
        search = select_regularization(ops, [ep])
        lo, _ = deconvolution._LOG_BOUNDS
        expect = np.array([max(target[0], lo), target[1]])
        assert search.converged and search.at_bound is at_bound
        assert np.allclose(np.log10([search.r1, search.r2]), expect,
                           atol=0.05)


class TestSearchEpisode:
    def test_warm_solves_meet_kkt_on_built_problem(self):
        ops = make_ops()
        u = pulse(121)
        t = np.arange(121, dtype=float)
        ep = build_episode("train", t, u, t, make_tac(ops, u), tau=1.0)
        search = SearchEpisode(ops, ep)
        # a walk over the search box, with r1 and r2 snapped to zero on
        # the way; every solve starts from the previous one
        for r1, r2 in ((1e-1, 1.0), (1e-3, 1e-2), (1e-8, 1e-1), (1e-8, 1e-8),
                       (1e2, 1e-4), (1e-5, 1e2), (3e-2, 3e-3)):
            search.score(r1, r2)
            prob = build_problem(ops, ep.y, r1, r2)
            assert scaled_kkt(stacked(prob), prob.target, search.x) <= 1e-8, \
                (r1, r2)


class TestFitRows:
    """The tq problem fits the TAC at the sensor's measured instants."""

    @staticmethod
    def minute_episode(ops, k=121):
        u = pulse(k)
        t = np.arange(k, dtype=float)
        return build_episode("minute", t, u, t, make_tac(ops, u), tau=1.0)

    @staticmethod
    def sensor_record(seed):
        """A 5-minute sensor record of the tight law, K = 181, noise sd 2e-4."""
        law = make_params()
        cfg = SynthConfig(
            rho_true=law, grid=DiscretizationGrid.from_params(law),
            input_profile=((0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0),
                           (0.0, 0.05, 0.08, 0.06, 0.035, 0.012, 0.0)),
            noise_sigma=2e-4, n_episodes=1, seed=seed, amp_range=(0.8, 1.2),
            dur_range=(1.0, 1.0))
        return generate(cfg)[0]

    def test_every_grid_row_is_the_grid_problem(self):
        # on 1-minute data every row is measured and every weight is 1
        ops = make_ops()
        ep = self.minute_episode(ops)
        assert ep.fit_indices.tolist() == list(range(1, ep.n_grid))
        grid = build_problem(ops, ep.y, 1e-3, 1e-2)
        rows = build_problem(ops, ep.y, 1e-3, 1e-2, rows=ep.fit_indices)
        for name in ("tac", "design", "penalty_sqrt", "sample", "cell_masses"):
            assert np.array_equal(getattr(rows, name), getattr(grid, name)), name
        a, b = nnls(grid, grid.target), nnls(rows, rows.target)
        assert np.array_equal(a.x, b.x) and a.iterations == b.iterations
        assert np.array_equal(grid.mean_curve(a.x), rows.mean_curve(b.x))
        res = deconvolve(ops, ep.y, 1e-3, 1e-2, rows=ep.fit_indices)
        ref = deconvolve(ops, ep.y, 1e-3, 1e-2)
        for name in ("mean_curve", "fitted_tac", "coeffs"):
            assert np.array_equal(getattr(res, name), getattr(ref, name)), name
        assert res.residual == ref.residual and res.tac_rows == ep.n_grid

    def test_search_scores_bit_identical_on_minute_data(self):
        ops = make_ops()
        ep = self.minute_episode(ops)
        measured = SearchEpisode(ops, ep)
        spline = SearchEpisode(ops, ep)
        spline.problem = build_problem(ops, ep.y, 0.0, 0.0)
        for r1, r2 in ((1e-1, 1.0), (1e-3, 1e-2), (1e-8, 1e-1), (1e2, 1e-4)):
            assert measured.score(r1, r2) == spline.score(r1, r2), (r1, r2)
            assert np.array_equal(measured.x, spline.x)

    def test_rows_weighted_by_the_time_since_the_previous_row(self):
        ep = self.sensor_record(1)
        ops = make_ops(m1=2, m2=2)
        grid = build_problem(ops, ep.y, 1e-3, 1e-3)
        prob = build_problem(ops, ep.y, 1e-3, 1e-3, rows=ep.fit_indices)
        keep = np.concatenate([[0], ep.fit_indices])
        gaps = np.diff(keep, prepend=-1)
        assert gaps[0] == 1 and set(gaps[1:-1].tolist()) == {5}
        weight = np.sqrt(gaps)
        assert np.array_equal(prob.tac, weight * grid.tac[keep])
        assert np.array_equal(prob.design, weight[:, None] * grid.design[keep])
        assert np.array_equal(prob.penalty_sqrt, grid.penalty_sqrt)
        # the squared misfit is a right-endpoint sum of (y - y_hat)^2 dt / tau
        x = np.random.default_rng(0).uniform(0.0, 1.0, prob.n_cols)
        resid = (grid.design @ x - grid.tac)[keep]
        assert np.linalg.norm(prob.design @ x - prob.tac) ** 2 == \
            pytest.approx(float(gaps @ resid ** 2), rel=1e-12)

    def test_search_episode_fits_measured_rows(self):
        ep = self.sensor_record(2)
        ops = make_ops(m1=2, m2=2)
        tq = SearchEpisode(ops, ep)
        assert tq.problem.design.shape[0] == 1 + ep.fit_indices.size
        scalar = SearchEpisode(ops, ep, variant="scalar")
        assert scalar.problem.design.shape[0] == ep.n_grid

    def test_measured_rows_keep_the_spline_answer(self):
        # seeded 5-minute records, tq on 8 x 8 cells; measured: relative L2
        # moves by at most 1.2e-4, the curves by at most 0.7% of peak
        ops = make_ops(m1=8, m2=8)
        for seed in range(1, 11):
            ep = self.sensor_record(seed)
            spline = deconvolve(ops, ep.y, 1e-3, 1e-3)
            rows = deconvolve(ops, ep.y, 1e-3, 1e-3, rows=ep.fit_indices)
            assert rows.converged and rows.tac_rows == 1 + ep.fit_indices.size
            assert rows.tac_rows < ep.n_grid // 4
            assert rows.fitted_tac.shape == rows.mean_curve.shape == (ep.n_grid,)
            assert rows.residual == pytest.approx(
                np.linalg.norm(rows.fitted_tac - ep.y), rel=1e-12)
            err = [np.linalg.norm(r.mean_curve - ep.u) / np.linalg.norm(ep.u)
                   for r in (spline, rows)]
            assert abs(err[1] - err[0]) <= 0.005, (seed, err)
            peak = spline.mean_curve.max()
            assert np.max(np.abs(rows.mean_curve - spline.mean_curve)) \
                <= 0.02 * peak, seed

    @pytest.mark.parametrize("rows", [[3, 2], [2, 2], [2, 3, 3], [0, 3],
                                      [3, 61], [-1], [], [[1, 2]], [1.0, 2.0]])
    def test_bad_rows_rejected(self, rows):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        with pytest.raises(ConfigurationError, match="fit rows"):
            build_problem(ops, tac, 0.1, 0.1, rows=np.array(rows))
        with pytest.raises(ConfigurationError, match="fit rows"):
            deconvolve(ops, tac, 0.1, 0.1, rows=np.array(rows))

    def test_last_grid_row_accepted(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        prob = build_problem(ops, tac, 0.1, 0.1, rows=[30, 60])
        assert prob.design.shape[0] == 3
        assert np.array_equal(prob.tac, tac[[0, 30, 60]] * np.sqrt([1, 30, 30]))


class TestResultCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        t = np.arange(5, dtype=float)
        write_result_csv(path, t, t * 0.1, t * 0.05, t * 0.2, t * 0.01,
                         t * 0.012)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("t_minutes,mean_brac,lower_band,upper_band,"
                            "fitted_tac,measured_tac")
        assert len(lines) == 6
        row = [float(v) for v in lines[4].split(",")]
        assert row == pytest.approx([3.0, 0.3, 0.15, 0.6, 0.03, 0.036])

    def test_length_mismatch_rejected(self, tmp_path):
        t = np.arange(5, dtype=float)
        with pytest.raises(ConfigurationError):
            write_result_csv(tmp_path / "bad.csv", t, t, t, t, t[:-1], t)
