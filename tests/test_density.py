import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, owens_t

from tdalc import density
from tdalc.density import (PopulationParams, cell_masses,
                           credible_region_radius, dump_params,
                           gauss_density, load_params, moment_weights,
                           moment_weight_derivatives, parse_params, pdf,
                           sample, save_params)
from tdalc.errors import ConfigurationError, ParameterError
from tdalc.grid_basis import ParamMesh
from tdalc.population_fit import (active_parameter_names, pack_theta,
                                  unpack_theta)


def make_params(sigma12=0.012):
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.04, sigma12), (sigma12, 0.09)))


def law(mu, sd, corr, b=(1.5, 2.0)):
    s12 = corr * sd[0] * sd[1]
    return PopulationParams(a=(0.0, 0.0), b=b, mu=mu,
                            sigma=((sd[0] ** 2, s12), (s12, sd[1] ** 2)))


def _slab(params, x, y0, y1):
    """Marginal density of q1 at x, and the q2 | q1 = x interval mass, mean
    and sd-weighted density difference over [y0, y1]."""
    s11, s12, s22 = params.sigma[0, 0], params.sigma[0, 1], params.sigma[1, 1]
    sd = math.sqrt(s22 - s12 * s12 / s11)
    mean = params.mu[1] + s12 / s11 * (x - params.mu[0])
    lo, hi = (y0 - mean) / sd, (y1 - mean) / sd
    mass = ndtr(-lo) - ndtr(-hi) if lo > 0.0 else ndtr(hi) - ndtr(lo)
    dphi = (math.exp(-0.5 * hi * hi) - math.exp(-0.5 * lo * lo)) / math.sqrt(2.0 * math.pi)
    dens = (math.exp(-0.5 * (x - params.mu[0]) ** 2 / s11)
            / math.sqrt(2.0 * math.pi * s11))
    return dens, mass, mean * mass - sd * dphi


def conditional_reference(params, e1, e2):
    """Unnormalized cell integrals of phi, q1 phi and q2 phi by adaptive
    quadrature in q1 of the closed-form q2 | q1 slab."""
    sd1 = math.sqrt(params.sigma[0, 0])
    out = np.zeros((3, e1.size - 1, e2.size - 1))
    for i in range(e1.size - 1):
        peak = [v for v in params.mu[0] + sd1 * np.array([-8.0, 0.0, 8.0])
                if e1[i] < v < e1[i + 1]] or None
        for j in range(e2.size - 1):
            def integrand(x, k):
                dens, mass, first = _slab(params, x, e2[j], e2[j + 1])
                return dens * (mass, x * mass, first)[k]
            for k in range(3):
                out[k, i, j] = integrate.quad(
                    integrand, e1[i], e1[i + 1], args=(k,), epsabs=0.0,
                    epsrel=1e-13, limit=500, points=peak)[0]
    return out


def assert_conditional_means_inside(w, pm1, pm2):
    i, j = np.nonzero(w.p > 0.0)
    q1, q2 = w.w1[i, j] / w.p[i, j], w.w2[i, j] / w.p[i, j]
    assert np.all((pm1.edges[i] <= q1) & (q1 <= pm1.edges[i + 1]))
    assert np.all((pm2.edges[j] <= q2) & (q2 <= pm2.edges[j + 1]))


def _scaled_errors(values, ref):
    """|values - ref| relative to ref, or to the smallest normal double where
    ref is subnormal or zero."""
    return np.abs(values - ref) / np.maximum(ref, np.finfo(float).tiny)


def _owen_tail_reference(mp, t: float, a: float):
    """T(t, inf) - T(t, a) in mpmath, passed as ``mp``.  For a >= 0, x = a +
    v / t in Owen's integral gives exp(-(t^2 + c^2)/2) / 2pi int_0^inf
    exp(-c v - v^2/2) t / (t^2 + (c + v)^2) dv with c = a t, smooth and
    decaying; a < 0 is Q(t) less the tail at -a, as T is odd in a."""
    t = mp.mpf(t)
    if a < 0.0:
        return mp.ncdf(-t) - _owen_tail_reference(mp, t, -a)
    if t == 0:
        return mp.atan2(1, a) / (2 * mp.pi)
    if a == math.inf:
        return mp.mpf(0)
    c = a * t
    breaks = sorted({k / (c + 1) for k in (0.5, 2, 8, 32)} | {t, 10 * t})
    return mp.exp(-(t * t + c * c) / 2) / (2 * mp.pi) * mp.quad(
        lambda v: mp.exp(-c * v - v * v / 2) * t / (t * t + (c + v) ** 2),
        [0, *breaks, mp.inf])


class TestNormalTails:
    """The numpy Phi and Owen tail against mpmath, each at least as close as
    the same quantity from ``scipy.special`` (``ndtr``, ``owens_t``).  mpmath
    is in the ``test`` extra; without it these two skip."""

    EPS = np.finfo(float).eps

    def test_phi_to_full_relative_accuracy(self):
        mp = pytest.importorskip("mpmath")
        x = np.linspace(-38.0, 38.0, 761)
        with mp.workdps(30):
            ref = np.array([float(mp.ncdf(v)) for v in x])
        port = _scaled_errors(density._ndtr(x), ref)
        assert port.max() <= _scaled_errors(ndtr(x), ref).max()
        assert port.max() <= 4.0 * self.EPS

    def test_owen_tail_over_the_bvn_domain(self):
        # the slopes _bvn_cdf passes, infinite on an axis, at abscissae from
        # the apex out past where the tail underflows; where a t / sqrt 2 >
        # 1.5 both sides sum the tail by the same Gauss-Laguerre rule
        mp = pytest.importorskip("mpmath")
        ts = np.array([0.0, 1e-3, 0.5, 1.5, 3.0, 8.0, 20.0, 37.5, 40.0])
        slopes = [math.inf, 1e3, 3.0, 1.5, 1.0, 0.7, 0.1, 1e-3, 0.0]
        slopes = np.array(slopes + [-v for v in slopes[:-1]])
        t, a = (g.ravel() for g in np.meshgrid(ts, slopes, indexing="ij"))
        with mp.workdps(20):
            ref = np.array([float(_owen_tail_reference(mp, *pair))
                            for pair in zip(t.tolist(), a.tolist())])
        port_values = density._owen_tail(t, a)
        with np.errstate(invalid="ignore"):
            laguerre = a * t / math.sqrt(2.0) > 1.5
        special = np.where(laguerre, port_values, 0.5 * ndtr(-t) - owens_t(t, a))
        port, scipy = _scaled_errors(port_values, ref), _scaled_errors(special, ref)
        assert port.max() <= scipy.max()
        # point by point, within the near form's factor-30 loss where scipy
        # was closer
        assert np.all(port <= np.maximum(scipy, 30.0 * self.EPS))


class TestPopulationParams:
    def test_chol_reconstructs_sigma(self):
        p = make_params()
        assert np.allclose(p.chol @ p.chol.T, p.sigma, atol=1e-14)

    def test_rejects_inverted_support(self):
        with pytest.raises(ParameterError):
            PopulationParams(a=(1.0, 0.0), b=(0.5, 2.0), mu=(0.6, 1.0),
                             sigma=((0.04, 0.0), (0.0, 0.09)))

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ParameterError):
            PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.6, 1.0),
                             sigma=((0.04, 0.2), (0.2, 0.09)))

    @pytest.mark.parametrize("field", ["a", "b", "mu", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite(self, field, value):
        fields = {"a": (0.0, 0.0), "b": (1.5, 2.0), "mu": (0.6, 1.0),
                  "sigma": ((0.04, 0.0), (0.0, 0.09))}
        bad = np.array(fields[field])
        bad.flat[0] = value
        fields[field] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            PopulationParams(**fields)

    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ParameterError):
            PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.6, 1.0),
                             sigma=((0.04, 0.01), (0.02, 0.09)))


class TestPdf:
    def test_normalizes_over_support(self):
        p = make_params()
        val, _ = integrate.dblquad(
            lambda q2, q1: pdf(p, (q1, q2)),
            p.a[0], p.b[0], p.a[1], p.b[1], epsabs=1e-11, epsrel=1e-11)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_zero_outside_box(self):
        p = make_params()
        assert pdf(p, (1.6, 1.0)) == 0.0
        assert pdf(p, (-0.1, 1.0)) == 0.0
        assert pdf(p, (0.6, 2.4)) == 0.0

    def test_box_without_normal_mass_rejected(self):
        # mu far beyond the box: no normal mass is left in double precision
        far = law((60.0, 60.0), (0.1, 0.1), 0.0)
        with pytest.raises(ParameterError, match="no normal mass"):
            pdf(far, (0.6, 1.0))
        with pytest.raises(ParameterError, match="no normal mass"):
            moment_weights(far, ParamMesh(4, 0.0, 1.5), ParamMesh(4, 0.0, 2.0))

    def test_proportional_to_gaussian_inside(self):
        p = make_params()
        qa, qb = np.array([0.5, 0.9]), np.array([0.8, 1.3])
        ratio = pdf(p, qa) / pdf(p, qb)
        gauss = (gauss_density(p, qa[None, :])[0]
                 / gauss_density(p, qb[None, :])[0])
        assert ratio == pytest.approx(gauss, rel=1e-10)


class TestMomentWeights:
    def test_cell_masses_sum_to_one(self):
        p = make_params()
        pm1, pm2 = ParamMesh(4, 0.0, 1.5), ParamMesh(4, 0.0, 2.0)
        masses = cell_masses(p, pm1, pm2)
        assert masses.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(masses >= 0.0)

    def test_single_cell_against_quadrature(self):
        p = make_params()
        pm1, pm2 = ParamMesh(2, 0.0, 1.5), ParamMesh(2, 0.0, 2.0)
        w = moment_weights(p, pm1, pm2)
        ref, _ = integrate.dblquad(
            lambda q2, q1: q1 * pdf(p, (q1, q2)),
            pm1.edges[1], pm1.edges[2], pm2.edges[0], pm2.edges[1],
            epsabs=1e-12, epsrel=1e-12)
        assert w.w1[1, 0] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_first_moments_recover_truncated_means(self):
        p = make_params()
        pm1, pm2 = ParamMesh(6, 0.0, 1.5), ParamMesh(6, 0.0, 2.0)
        w = moment_weights(p, pm1, pm2)
        mean1 = w.w1.sum()
        ref, _ = integrate.dblquad(
            lambda q2, q1: q1 * pdf(p, (q1, q2)),
            0.0, 1.5, 0.0, 2.0, epsabs=1e-11, epsrel=1e-11)
        assert mean1 == pytest.approx(ref, rel=1e-8)

    def test_derivatives_match_finite_differences(self):
        # every fit parameter, the support bounds through a mesh rebound to
        # the moved box, on laws with a = 0 and with a != 0
        rng = np.random.default_rng(42)
        names = active_parameter_names(fit_lower=True)

        def meshes(p):
            return ParamMesh(3, p.a[0], p.b[0]), ParamMesh(3, p.a[1], p.b[1])

        for a in ((0.0, 0.0), (0.0, 0.0), (0.1, 0.25), (0.3, 0.05)):
            mu = rng.uniform((0.4, 0.8), (0.8, 1.2))
            s1, s2 = rng.uniform(0.15, 0.3, size=2)
            corr = rng.uniform(-0.4, 0.4)
            p = PopulationParams(
                a=a, b=(1.5, 2.0), mu=mu,
                sigma=((s1 * s1, corr * s1 * s2), (corr * s1 * s2, s2 * s2)))
            derivs = moment_weight_derivatives(p, *meshes(p),
                                               moment_weights(p, *meshes(p)))
            theta = pack_theta(p, fit_lower=True)
            h = 1e-6
            for j, name in enumerate(names):
                sides = []
                for step in (h, -h):
                    moved = theta.copy()
                    moved[j] += step
                    q = unpack_theta(moved, None, fit_lower=True)
                    sides.append(moment_weights(q, *meshes(q)))
                for field in ("p", "w1", "w2"):
                    fd = (getattr(sides[0], field)
                          - getattr(sides[1], field)) / (2.0 * h)
                    got = derivs[j, ("p", "w1", "w2").index(field)]
                    scale = np.maximum(np.abs(fd).max(), 1e-8)
                    assert np.allclose(got, fd, atol=2e-5 * scale), (name, field)

    # mu on mesh nodes, mu outside the box beside an edge and beyond a corner,
    # and a narrow law whose cells lie up to 40 sd out (past about 37 sd their
    # masses underflow), at |rho| up to 0.95
    EDGE_CASES = {
        "mu on an inner node": ((0.75, 1.0), (0.2, 0.3), 4),
        "mu on the box corner": ((0.0, 0.0), (0.2, 0.3), 4),
        "mu 3 sd beside the box": ((1.8, 1.0), (0.1, 0.3), 4),
        "mu 10 sd beside the box": ((2.5, 1.0), (0.1, 0.3), 4),
        "mu beyond a box corner": ((-0.3, 2.3), (0.1, 0.1), 4),
        "tail cells to 40 sd": ((0.62, 0.9), (0.02, 0.03), 8),
    }

    @pytest.mark.parametrize("corr", [0.0, 0.5, -0.5, 0.95, -0.95])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases_against_conditional_quadrature(self, case, corr):
        mu, sd, cells = self.EDGE_CASES[case]
        p = law(mu, sd, corr)
        pm1, pm2 = ParamMesh(cells, 0.0, 1.5), ParamMesh(cells, 0.0, 2.0)
        w = moment_weights(p, pm1, pm2)
        ref = conditional_reference(p, pm1.edges, pm2.edges)
        assert np.all(w.p >= 0.0)
        assert_conditional_means_inside(w, pm1, pm2)
        # a subnormal cell mass is flushed to zero; every other cell has
        # its mass to 1e-10 relative accuracy
        normal = ref[0] >= 1e3 * np.finfo(float).tiny
        assert np.all(w.p[ref[0] < np.finfo(float).tiny] == 0.0)
        ref_p = ref[0][normal] / ref[0].sum()
        assert np.all(np.abs(w.p[normal] - ref_p) <= 1e-10 * ref_p)
        width = np.array([pm1.width, pm2.width])
        for k, field in ((1, "w1"), (2, "w2")):
            qbar = getattr(w, field)[normal] / w.p[normal]
            assert np.all(np.abs(qbar - ref[k][normal] / ref[0][normal])
                          <= 1e-10 * width[k - 1])
        if case.startswith("tail"):
            # the checked cells reach 35 sd from mu (in marginal sd units),
            # where the masses are near the end of the double range
            gaps = [np.maximum(np.maximum(pm.edges[:-1] - m, m - pm.edges[1:]), 0.0) / s
                    for pm, m, s in ((pm1, mu[0], sd[0]), (pm2, mu[1], sd[1]))]
            dist = np.hypot(gaps[0][:, None], gaps[1][None, :])
            assert dist[normal].max() >= 35.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(anchor=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           offset=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
           log_sd=st.tuples(st.floats(-6.0, 1.0), st.floats(-6.0, 1.0)),
           corr=st.floats(-0.95, 0.95),
           cells=st.tuples(st.integers(1, 8), st.integers(1, 8)))
    def test_masses_form_a_distribution(self, anchor, offset, log_sd, corr, cells):
        # any law, mu inside the box or up to 20 sd outside it: the masses
        # are nonnegative and sum to 1, the conditional means stay in their
        # cells, and only a box with no mass in double precision is refused
        sd = 10.0 ** np.array(log_sd)
        box = np.array([1.5, 2.0])
        p = law(np.array(anchor) * box + np.array(offset) * sd, sd, corr, b=box)
        pm1, pm2 = ParamMesh(cells[0], 0.0, 1.5), ParamMesh(cells[1], 0.0, 2.0)
        try:
            w = moment_weights(p, pm1, pm2)
        except ParameterError:
            mass = conditional_reference(p, np.array([0.0, 1.5]), np.array([0.0, 2.0]))[0, 0, 0]
            assert mass < 1e-290
            assume(False)
        assert np.all(w.p >= 0.0)
        assert abs(w.p.sum() - 1.0) <= 1e-13
        assert_conditional_means_inside(w, pm1, pm2)


class TestSampling:
    def test_samples_stay_in_box(self):
        p = make_params()
        for count in (4000, 0):
            draws = sample(p, count, seed=1)
            assert draws.shape == (count, 2)
            assert np.all(draws >= p.a) and np.all(draws <= p.b)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError, match="nonnegative, got -1"):
            sample(make_params(), -1, seed=1)

    def test_seed_determinism(self):
        p = make_params()
        assert np.array_equal(sample(p, 500, seed=9), sample(p, 500, seed=9))

    def test_mean_matches_quadrature(self):
        p = make_params()
        draws = sample(p, 200_000, seed=3)
        ref1, _ = integrate.dblquad(
            lambda q2, q1: q1 * pdf(p, (q1, q2)),
            0.0, 1.5, 0.0, 2.0, epsabs=1e-10, epsrel=1e-10)
        se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - ref1) < 4.0 * se


class TestCredibleRadius:
    def test_disk_mass_hits_alpha(self):
        p = make_params()
        rad = credible_region_radius(p, 0.75)
        draws = sample(p, 200_000, seed=17)
        frac = np.mean(np.linalg.norm(draws - p.mu, axis=1) <= rad.radius)
        se = np.sqrt(0.75 * 0.25 / draws.shape[0])
        assert abs(frac - 0.75) < max(4.0 * se, 2e-3)

    def test_monotone_in_alpha(self):
        p = make_params()
        r1 = credible_region_radius(p, 0.5).radius
        r2 = credible_region_radius(p, 0.9).radius
        assert r1 < r2

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_alpha_out_of_range(self, alpha):
        # alpha is a run setting, not part of the law
        with pytest.raises(ConfigurationError, match="alpha must lie"):
            credible_region_radius(make_params(), alpha)

    @pytest.mark.parametrize("mu", [(0.62, 0.9), (1.5, 2.0)])
    @pytest.mark.parametrize("sd", [1e-3, 1e-6])
    def test_narrow_law(self, mu, sd):
        # a peak far narrower than the box, inside it or on its corner: the
        # untruncated disk radius sd * sqrt(-2 ln(1 - alpha)) holds
        p = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=mu,
                             sigma=((sd ** 2, 0.0), (0.0, sd ** 2)))
        rad = credible_region_radius(p, 0.75)
        assert rad.radius == pytest.approx(sd * np.sqrt(-2.0 * np.log(0.25)),
                                           rel=1e-4)


def polar_disk_mass(params, radius):
    """Truncated-normal mass of the radius-disk at mu and its derivative in
    the radius, independent of the density module.

    Polar coordinates about mu, as in the acceptance gate's oracle, but
    clipped to the support box: along the unit direction u the raw Gaussian
    falls as exp(-q r^2 / 2), q = u^T Sigma^-1 u, so its radial integral
    between where the ray enters and leaves the box (within the radius) is
    in closed form.  scipy's ``quad`` sums the angles between the integrand's
    kinks: the box corners, the rim's crossings of the box edges and the
    principal axes.  The box mass is the same integral with no radius."""
    mu, a, b = (np.asarray(v, dtype=float) for v in (params.mu, params.a, params.b))
    sinv = np.linalg.inv(params.sigma)

    def chord(theta):
        u = np.array([math.cos(theta), math.sin(theta)])
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = np.sort([(a - mu) / u, (b - mu) / u], axis=0)
        inside = (a <= mu) & (mu <= b)
        ends[:, u == 0.0] = np.where(inside, [[-np.inf], [np.inf]],
                                     [[np.inf], [-np.inf]])[:, u == 0.0]
        return max(ends[0].max(), 0.0), ends[1].min(), u @ sinv @ u

    def mass(theta, reach):
        lo, hi, q = chord(theta)
        hi = min(hi, reach)
        return 0.0 if hi <= lo else (
            math.exp(-0.5 * q * lo * lo) - math.exp(-0.5 * q * hi * hi)) / q

    def rim(theta):
        lo, hi, q = chord(theta)
        return radius * math.exp(-0.5 * q * radius ** 2) if lo < radius < hi else 0.0

    kinks = [0.0, math.pi / 2, -math.pi / 2]
    kinks += [math.atan2(y - mu[1], x - mu[0]) for x in (a[0], b[0])
              for y in (a[1], b[1])]
    for k, edge in ((0, a[0]), (0, b[0]), (1, a[1]), (1, b[1])):
        if abs(edge - mu[k]) < radius:
            turn = math.acos((edge - mu[k]) / radius) if k == 0 else \
                math.asin((edge - mu[k]) / radius)
            for t in ((turn, -turn) if k == 0 else (turn, math.pi - turn)):
                kinks.append(math.atan2(math.sin(t), math.cos(t)))
    for vec in np.linalg.eigh(params.sigma)[1].T:
        kinks += [math.atan2(vec[1], vec[0]), math.atan2(-vec[1], -vec[0])]
    edges = np.unique(np.clip(kinks + [-math.pi, math.pi], -math.pi, math.pi))

    def total(f, *args, box=1.0, epsabs=1e-16):
        return sum(integrate.quad(lambda t: f(t, *args) / box, lo, hi,
                                  epsabs=epsabs, epsrel=1e-13, limit=500)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))

    # the box mass to relative accuracy alone, as it falls below any fixed
    # absolute tolerance past about 8 sd; then the disk's share of it
    box = total(mass, np.inf, epsabs=0.0)
    return total(mass, radius, box=box), total(rim, box=box)


RADIUS_LAWS = {
    "inside": law((0.62, 1.0), (0.2, 0.3), 0.2),
    "clipped wide": PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.3, 0.4),
                                     sigma=((0.2, 0.05), (0.05, 0.3))),
    "mu outside": law((1.7, 1.0), (0.2, 0.3), 0.2),
    "narrow": law((0.62, 0.9), (1e-6, 1e-6), 0.0),
    "anisotropic": law((0.62, 1.0), (1e-4, 0.2), 0.0),
    "correlated": law((0.62, 1.0), (0.2, 0.3), 0.95),
    # mu 7, 8 and 9 sd below the box and their mirror images above
    "mu below": law((0.62, -0.7), (0.2, 0.1), 0.0),
    "mu above": law((0.62, 2.7), (0.2, 0.1), 0.0),
    "mu 8 sd below": law((0.62, -0.8), (0.2, 0.1), 0.0),
    "mu 8 sd above": law((0.62, 2.8), (0.2, 0.1), 0.0),
    "mu 9 sd below": law((0.62, -0.9), (0.2, 0.1), 0.0),
    "mu 9 sd above": law((0.62, 2.9), (0.2, 0.1), 0.0),
}


class TestCredibleRadiusTable:
    @pytest.mark.parametrize("alpha", [1e-7, 0.5, 0.75, 0.99])
    @pytest.mark.parametrize("name", list(RADIUS_LAWS))
    def test_mass_at_radius_matches_oracle(self, name, alpha):
        # the radius is bisected to its last bit; the bound still allows
        # 1e-14 max(1, r_max) in the radius times the mass's slope
        params = RADIUS_LAWS[name]
        rad = density._credible_radius(params, alpha)
        assert rad.alpha == alpha
        mass, slope = polar_disk_mass(params, rad.radius)
        corners = np.array([[x, y] for x in (params.a[0], params.b[0])
                            for y in (params.a[1], params.b[1])])
        r_max = np.max(np.linalg.norm(corners - params.mu, axis=1))
        xtol = 1e-14 * max(1.0, r_max)
        assert abs(mass - alpha) <= 1e-9 * alpha + 2.0 * slope * xtol
        assert abs(rad.mass - mass) <= 1e-9 * alpha + 2.0 * slope * xtol

    def test_narrow_law_to_full_precision(self):
        # at a width of 1e-6 an absolute radius tolerance would cost digits
        params = RADIUS_LAWS["narrow"]
        radius = density._credible_radius(params, 0.5).radius
        assert abs(polar_disk_mass(params, radius)[0] - 0.5) <= 1e-10 * 0.5

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.99])
    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_law_below_box_mirrors_law_above(self, k, alpha):
        # mu k sd below the box holds the slab in the conditional upper tail;
        # past about 8 sd the box mass is below the oracle's absolute
        # tolerance, so the radius is held to its mirror image's
        below = density._credible_radius(law((0.62, -0.1 * k), (0.2, 0.1), 0.0), alpha)
        above = density._credible_radius(law((0.62, 2.0 + 0.1 * k), (0.2, 0.1), 0.0),
                                         alpha)
        assert below.radius == pytest.approx(above.radius, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.99])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_law_left_of_box_mirrors_law_right(self, k, alpha):
        # mu k sd left of the box in q1: a disk short of the box's left edge
        # holds no mass, as one short of the right edge does for the mirror
        left = density._credible_radius(law((-0.1 * k, 1.0), (0.1, 0.2), 0.0), alpha)
        right = density._credible_radius(law((1.5 + 0.1 * k, 1.0), (0.1, 0.2), 0.0),
                                         alpha)
        assert left.radius == pytest.approx(right.radius, rel=1e-13, abs=0.0)

    def test_clipped_wide_law_at_half(self):
        # the rim crosses the box's lower edge inside the integration range:
        # without a break there QUADPACK's sum was 1.6e-12 off in mass
        params = RADIUS_LAWS["clipped wide"]
        radius = density._credible_radius(params, 0.5).radius
        assert abs(polar_disk_mass(params, radius)[0] - 0.5) <= 1e-14


class TestAdaptiveGauss:
    def test_polynomials_exact_to_degree_31(self):
        # the Kronrod sum is exact to degree 31, the embedded Gauss rule to
        # 19, so below that the error estimate is only the rounding floor
        for degree in range(32):
            got, err, pieces = density._adaptive_gauss(
                lambda x: x ** degree, [-1.0, 1.0], epsabs=1.0, epsrel=0.0)
            assert pieces == 1
            assert got == pytest.approx((1.0 + (-1.0) ** degree) / (degree + 1),
                                        abs=1e-15)
            assert degree >= 20 or err <= 1e-13

    def test_meets_tolerance_from_breaks(self):
        got, err, pieces = density._adaptive_gauss(
            lambda x: np.exp(-x * x / 2e-6), [-1.0, 0.0, 1.0],
            epsabs=1e-14, epsrel=1e-12)
        assert abs(got - math.sqrt(2e-6 * math.pi)) <= 1e-14
        assert err <= max(1e-14, 1e-12 * got) and pieces < density._QUAD_LIMIT

    def test_discontinuous_integrand_stops_at_cap(self):
        # a square wave with 600 jumps: no piece count under the cap meets
        # the tolerance, so the rule stops there
        def wave(x):
            return np.floor(600.0 * x) % 2.0

        got, err, pieces = density._adaptive_gauss(
            wave, [0.0, 1.0], epsabs=1e-12, epsrel=1e-10)
        assert pieces == density._QUAD_LIMIT == 200
        assert err > 1e-10 and abs(got - 0.5) < 0.05


class TestCredibleRadiusMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        density._kept_radius.cache_clear()
        yield
        density._kept_radius.cache_clear()

    @staticmethod
    def computed() -> int:
        return density._kept_radius.cache_info().misses

    def test_law_read_back_hits(self):
        p = make_params()
        first = credible_region_radius(p, 0.75)
        again = credible_region_radius(parse_params(dump_params(p)), 0.75)
        assert self.computed() == 1 and again is first
        # bit for bit the computation on the law itself, with no memo
        direct = density._credible_radius(p, 0.75)
        for name in ("radius", "mass"):
            assert np.float64(getattr(direct, name)).tobytes() == \
                np.float64(getattr(first, name)).tobytes()
        assert direct == first

    def test_other_alpha_or_one_ulp_recomputes(self):
        p = make_params()
        base = credible_region_radius(p, 0.75)
        credible_region_radius(p, 0.5)
        assert self.computed() == 2
        for k, name in enumerate(p.as_dict()):
            values = p.as_dict()
            values[name] = np.nextafter(values[name], np.inf)
            credible_region_radius(PopulationParams.from_scalars(**values),
                                   0.75)
            assert self.computed() == 3 + k, name
        assert credible_region_radius(p, 0.75) is base
        assert self.computed() == 11


class TestSerialization:
    def test_text_round_trip(self):
        p = make_params()
        q = parse_params(dump_params(p))
        assert np.allclose(q.a, p.a) and np.allclose(q.b, p.b)
        assert np.allclose(q.mu, p.mu) and np.allclose(q.sigma, p.sigma)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lo=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
           width=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
           pos=st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0)),
           var=st.tuples(st.floats(1e-8, 1e4), st.floats(1e-8, 1e4)),
           corr=st.floats(-0.95, 0.95))
    def test_text_round_trip_bit_equal(self, lo, width, pos, var, corr):
        # random finite boxes, mu inside or outside them, and a
        # positive-definite covariance
        a = np.array(lo)
        b = a + np.array(width)
        s12 = corr * np.sqrt(var[0] * var[1])
        p = PopulationParams(a=a, b=b, mu=a + np.array(pos) * (b - a),
                             sigma=((var[0], s12), (s12, var[1])))
        q = parse_params(dump_params(p))
        for name in ("a", "b", "mu", "sigma"):
            assert getattr(q, name).tobytes() == getattr(p, name).tobytes()

    def test_comments_and_blank_lines_skipped(self):
        p = make_params()
        text = "# fitted law\n\n" + dump_params(p).replace("\n", "\n  # note\n", 1)
        assert parse_params(text).as_dict() == p.as_dict()

    def test_trailing_comments_stripped(self):
        # a law file takes the comments a config file does
        p = make_params()
        text = dump_params(p).replace("\n", "   # fitted\n")
        assert parse_params(text).as_dict() == p.as_dict()

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t + "just words\n", "line 10: expected key=value"),
        (lambda t: t + "s33=1\n", "line 10: unknown key 's33'"),
        (lambda t: t + "mu1=0.5\n", "line 10: duplicate key 'mu1'"),
        (lambda t: t.replace("s22=", "s22=x"), "line 9: value for 's22' is not"),
        (lambda t: t.replace("a2=0\n", ""), "missing keys: a2$"),
    ])
    def test_malformed_text_rejected(self, edit, message):
        with pytest.raises(ParameterError, match=message):
            parse_params(edit(dump_params(make_params())))

    def test_file_round_trip(self, tmp_path):
        p = make_params()
        path = tmp_path / "rho.json"
        save_params(p, path)
        q = load_params(path)
        assert np.array_equal(q.sigma, p.sigma)
