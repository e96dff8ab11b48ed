import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdalc.cli import main
from tdalc.data_io import (_thomas, build_episode, dump_episode,
                           parse_episode, parse_episode_text, resample,
                           write_episode)
from tdalc.density import PopulationParams
from tdalc.errors import ConfigurationError, ParseError
from tdalc.grid_basis import DiscretizationGrid
from tdalc.synth import SynthConfig

SAMPLE = """t_minutes,channel,value
0,brac,0
30,brac,0.05
60,brac,0
0,tac,0
35,tac,0.02
70,tac,0.01
"""


class TestParse:
    def test_channels_split(self):
        ep = parse_episode_text(SAMPLE, "demo", tau=1.0)
        assert ep.ident == "demo"
        assert ep.brac_times.tolist() == [0.0, 30.0, 60.0]
        assert ep.brac_values.tolist() == [0.0, 0.05, 0.0]
        assert ep.tac_times.tolist() == [0.0, 35.0, 70.0]
        assert ep.tac_values.tolist() == [0.0, 0.02, 0.01]
        assert ep.has_brac

    def test_grid_covers_shared_span(self):
        # grid stops at the last instant both channels cover
        ep = parse_episode_text(SAMPLE, "demo", tau=1.0)
        assert ep.n_grid == 61
        assert ep.times[-1] == 60.0
        assert ep.u.shape == ep.y.shape == ep.times.shape

    def test_blank_lines_skipped(self):
        text = SAMPLE.replace("0,tac,0\n", "0,tac,0\n\n")
        ep = parse_episode_text(text, "demo")
        assert ep.tac_times.size == 3

    def test_tac_only(self):
        text = "t_minutes,channel,value\n0,tac,0\n30,tac,0.03\n60,tac,0.01\n"
        ep = parse_episode_text(text, "bare")
        assert not ep.has_brac
        assert ep.u is None
        assert ep.y.size == 61

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError, match="empty episode file"):
            parse_episode_text("", "x")

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse_episode_text("time,kind,val\n0,tac,0\n", "x")

    def test_duplicate_timestamp_names_line(self):
        text = ("t_minutes,channel,value\n0,tac,0\n30,tac,0.05\n"
                "30,tac,0.06\n60,tac,0\n")
        with pytest.raises(ParseError, match="line 4"):
            parse_episode_text(text, "x")

    def test_nonmonotone_rejected(self):
        text = "t_minutes,channel,value\n0,tac,0\n30,tac,0.05\n20,tac,0.06\n"
        with pytest.raises(ParseError, match="time not after the previous one"):
            parse_episode_text(text, "x")

    def test_negative_value_rejected(self):
        text = "t_minutes,channel,value\n0,tac,0\n30,tac,-0.05\n"
        with pytest.raises(ParseError, match="negative value"):
            parse_episode_text(text, "x")

    def test_negative_time_rejected(self):
        text = "t_minutes,channel,value\n-5,tac,0\n30,tac,0.05\n"
        with pytest.raises(ParseError, match="negative time"):
            parse_episode_text(text, "x")

    def test_unknown_channel_rejected(self):
        text = "t_minutes,channel,value\n0,ibac,0\n"
        with pytest.raises(ParseError, match="unknown channel"):
            parse_episode_text(text, "x")

    def test_non_numeric_rejected(self):
        text = "t_minutes,channel,value\n0,tac,zero\n"
        with pytest.raises(ParseError, match="non-numeric"):
            parse_episode_text(text, "x")

    def test_first_bad_sample_named(self):
        # a NaN time at index 4 comes after a negative value at index 1
        times = [0.0, 30.0, 60.0, 90.0, np.nan, 150.0]
        values = [0.0, -0.01, 0.02, 0.01, 0.005, 0.0]
        text = "t_minutes,channel,value\n" + "".join(
            f"{t},tac,{v}\n" for t, v in zip(times, values))
        want = "episode 'x' tac: negative value -0.01 at index 1"
        with pytest.raises(ConfigurationError) as built:
            build_episode("x", [], [], times, values)
        assert str(built.value) == want
        with pytest.raises(ParseError) as parsed:
            parse_episode_text(text, "x")
        assert str(parsed.value) == f"line 3: {want}"

    @pytest.mark.parametrize("rows, line, message", [
        # a bad value before the first unreadable row is reported
        (["0,tac,0", "30,brac,0", "20,brac,0", "10,tac,-1", "5,tac,zz"], 4,
         "brac: time not after the previous one 20.0 at index 1"),
        # reading stops at the unreadable row: the bad value after it waits
        (["0,tac,0", "5,tac,zz", "30,brac,0", "20,brac,0"], 3,
         "non-numeric field"),
    ])
    def test_first_bad_line_in_file_order(self, rows, line, message):
        text = "t_minutes,channel,value\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match=message) as err:
            parse_episode_text(text, "x")
        assert err.value.line == line

    def test_no_tac_rejected(self):
        text = "t_minutes,channel,value\n0,brac,0\n30,brac,0.05\n"
        with pytest.raises(ParseError, match="no tac"):
            parse_episode_text(text, "x")


class TestRoundTrip:
    def test_parse_dump_parse_identity(self):
        ep = parse_episode_text(SAMPLE, "demo")
        text = dump_episode(ep)
        again = parse_episode_text(text, "demo")
        assert np.array_equal(ep.brac_times, again.brac_times)
        assert np.array_equal(ep.brac_values, again.brac_values)
        assert np.array_equal(ep.tac_times, again.tac_times)
        assert np.array_equal(ep.tac_values, again.tac_values)
        assert np.array_equal(ep.u, again.u)
        assert np.array_equal(ep.y, again.y)

    def test_file_round_trip(self, tmp_path):
        ep = parse_episode_text(SAMPLE, "demo")
        path = tmp_path / "demo.csv"
        write_episode(ep, path)
        again = parse_episode(path)
        assert again.ident == "demo"
        assert np.array_equal(ep.y, again.y)

    def test_full_precision(self, tmp_path):
        t = np.array([0.0, 1.0 / 3.0, 2.0])
        v = np.array([0.0, 0.0123456789012345678, 0.01])
        ep = build_episode("p", t, v, t, v, tau=0.5)
        again = parse_episode_text(dump_episode(ep), "p", tau=0.5)
        assert np.array_equal(ep.brac_times, again.brac_times)
        assert np.array_equal(ep.brac_values, again.brac_values)


@st.composite
def episode_files(draw):
    """An episode file's lines (the channels interleaved in order, blank
    lines between) with its TAC and BrAC series; BrAC is None for a
    TAC-only file.  Times run from 0 past one grid step."""
    def series():
        steps = draw(st.lists(st.floats(1e-3, 30.0), max_size=8))
        times = np.concatenate([[0.0], 1.0 + np.cumsum([0.0] + steps)])
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=times.size,
                               max_size=times.size))
        return times, np.array(values)

    tac = series()
    brac = series() if draw(st.booleans()) else None
    rows = [[f"{t:.17g},{name},{v:.17g}" for t, v in zip(*ser)]
            for name, ser in (("tac", tac), (" BrAC ", brac)) if ser is not None]
    lines = ["t_minutes, channel ,value"]
    while any(rows):
        pick = [r for r in rows if r]
        lines.append(pick[draw(st.integers(0, len(pick) - 1))].pop(0))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    return lines, tac, brac


class TestParseProperties:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(episode_files())
    def test_valid_files_parse_to_their_values(self, drawn):
        lines, tac, brac = drawn
        ep = parse_episode_text("\n".join(lines) + "\n", "gen")
        assert np.array_equal(ep.tac_times, tac[0])
        assert np.array_equal(ep.tac_values, tac[1])
        if brac is None:
            assert not ep.has_brac
        else:
            assert np.array_equal(ep.brac_times, brac[0])
            assert np.array_equal(ep.brac_values, brac[1])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(drawn=episode_files(), where=st.integers(1, 40),
           bad=st.sampled_from(["1,tac", "1,tac,0.5,2", "x,tac,0.5",
                                "1,tac,zero", "1,blood,0.5", "1,tac,-0.5",
                                "-1,tac,0.5", "1,tac,nan", "inf,brac,0.1"]))
    def test_malformed_line_names_its_line(self, drawn, where, bad):
        lines = drawn[0]
        at = min(where, len(lines))
        lines.insert(at, bad)
        with pytest.raises(ParseError) as err:
            parse_episode_text("\n".join(lines) + "\n", "gen")
        assert err.value.line == at + 1
        assert str(err.value).startswith(f"line {at + 1}: ")


TRUTH = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                         sigma=((0.01, 0.002), (0.002, 0.03)))
GRID = DiscretizationGrid.from_params(TRUTH)

# one fault per kind: the sample at index i, given its series so far
FAULTS = {
    "nan time": lambda t, v, i: t.__setitem__(i, np.nan),
    "inf time": lambda t, v, i: t.__setitem__(i, np.inf),
    "nan value": lambda t, v, i: v.__setitem__(i, np.nan),
    "inf value": lambda t, v, i: v.__setitem__(i, np.inf),
    "negative time": lambda t, v, i: t.__setitem__(i, -1.0 - t[i]),
    "repeated time": lambda t, v, i: t.__setitem__(i, t[i - 1] if i else -1.0),
    "negative value": lambda t, v, i: v.__setitem__(i, -0.5 - v[i]),
}


def faulty_series(n, data, min_faults):
    """A uniform-step series of n samples with faults at min_faults to four
    drawn indices, applied in index order: each makes its own sample bad
    and leaves every earlier one as it was.  Returns times, values and the
    sorted fault indices."""
    where = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                     min_size=min_faults, max_size=min(n, 4))))
    times = np.arange(n) * 15.0
    values = np.array(data.draw(st.lists(st.floats(0.0, 0.1), min_size=n,
                                         max_size=n)))
    for i in where:
        FAULTS[data.draw(st.sampled_from(sorted(FAULTS)))](times, values, i)
    return times, values, where


class TestRawSeriesRules:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(3, 12), data=st.data())
    def test_array_and_text_name_the_earliest_fault(self, n, data):
        times, values, where = faulty_series(n, data, 2)
        with pytest.raises(ConfigurationError) as built:
            build_episode("f", [], [], times, values)
        text = "t_minutes,channel,value\n" + "".join(
            f"{t:.17g},tac,{v:.17g}\n" for t, v in zip(times, values))
        with pytest.raises(ParseError) as parsed:
            parse_episode_text(text, "f")
        assert str(built.value).endswith(f" at index {where[0]}")
        assert parsed.value.line == where[0] + 2
        assert str(parsed.value) == f"line {where[0] + 2}: {built.value}"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(3, 12), data=st.data())
    def test_every_reader_names_the_same_fault(self, n, data):
        # an episode channel, a `tdalc stats` curve and a synthetic BrAC
        # template all go through one check: the same rule, value and index
        times, values, where = faulty_series(n, data, 1)
        with pytest.raises(ConfigurationError) as built:
            build_episode("f", [], [], times, values)
        fault = str(built.value).split(": ", 1)[1]
        assert fault.endswith(f" at index {where[0]}")
        with tempfile.TemporaryDirectory() as tmp:
            curve = Path(tmp) / "c.csv"
            curve.write_text("t_minutes,brac\n" + "".join(
                f"{t:.17g},{v:.17g}\n" for t, v in zip(times, values)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["stats", str(curve)]) == 2
        assert err.getvalue() == (f"error: {curve}:{where[0] + 2}: "
                                  f"curve: {fault}\n")
        with pytest.raises(ConfigurationError) as template:
            SynthConfig(rho_true=TRUTH, grid=GRID,
                        input_profile=(times, values))
        assert str(template.value) == f"input_profile: {fault}"


class TestResample:
    def test_reproduces_knots(self):
        t = np.array([0.0, 10.0, 25.0, 40.0])
        v = np.array([0.0, 0.05, 0.02, 0.0])
        out = resample(t, v, t)
        assert np.allclose(out, v, atol=1e-12)

    def test_two_points_linear(self):
        out = resample(np.array([0.0, 10.0]), np.array([0.0, 0.04]),
                       np.array([0.0, 2.5, 5.0, 10.0]))
        assert np.allclose(out, [0.0, 0.01, 0.02, 0.04], atol=1e-10)

    def test_clamped_at_zero(self):
        # a natural spline through this tent dips negative between knots
        t = np.array([0.0, 10.0, 20.0, 30.0])
        v = np.array([0.0, 0.05, 0.0, 0.0])
        grid = np.linspace(0.0, 30.0, 301)
        out = resample(t, v, grid)
        assert np.all(out >= 0.0)

    def test_single_point_constant(self):
        out = resample(np.array([5.0]), np.array([0.03]), np.arange(4.0))
        assert np.allclose(out, 0.03)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            resample(np.array([]), np.array([]), np.arange(3.0))

    @pytest.mark.parametrize("n", [3, 4, 50])
    def test_matches_scipy_natural_spline(self, n):
        # non-uniform knots, and a grid one end gap past either end, where
        # both splines extrapolate with their end pieces
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(n)
        for _ in range(20):
            t = np.cumsum(np.concatenate([[rng.uniform(0.0, 5.0)],
                                          rng.uniform(1.0, 4.0, n - 1)]))
            v = rng.uniform(0.0, 0.1, n)
            grid = np.linspace(2.0 * t[0] - t[1], 2.0 * t[-1] - t[-2], 301)
            want = np.maximum(CubicSpline(t, v, bc_type="natural")(grid), 0.0)
            assert np.max(np.abs(resample(t, v, grid) - want)) \
                <= 1e-13 * np.max(np.abs(v))
            # a knot on the grid returns its datum exactly
            assert np.array_equal(resample(t, v, t[1:-1]), v[1:-1])


class TestThomas:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
    def test_matches_lapack_banded_solve(self, n):
        # diagonally dominant like the spline's system: the elimination
        # needs no row interchange, so it is LAPACK's own arithmetic
        from scipy.linalg import solve_banded

        rng = np.random.default_rng(n)
        for _ in range(10):
            off = rng.uniform(0.01, 5.0, n - 1)
            diag = 2.0 * (np.r_[0.0, off] + np.r_[off, 0.0]) + rng.uniform(0.0, 1.0, n)
            rhs = rng.standard_normal(n)
            bands = np.zeros((3, n))
            bands[0, 1:], bands[1], bands[2, :-1] = off, diag, off
            want = solve_banded((1, 1), bands, rhs)
            got = _thomas(off, diag, rhs)
            assert np.max(np.abs(got - want)) <= 4e-16 * np.max(np.abs(want))


class TestBuildEpisode:
    def test_grid_count(self):
        t = np.array([0.0, 100.0])
        v = np.array([0.0, 0.01])
        for tau, expect in ((1.0, 101), (5.0, 21), (7.0, 15), (30.0, 4)):
            ep = build_episode("g", t, v, t, v, tau=tau)
            assert ep.n_grid == expect, tau

    def test_fit_indices_snap_and_exclude_origin(self):
        t = np.array([0.0, 29.8, 60.2, 90.0])
        v = np.array([0.0, 0.02, 0.03, 0.0])
        ep = build_episode("f", t, v, t, v, tau=30.0)
        assert ep.fit_indices.tolist() == [1, 2, 3]

    def test_requires_two_tac_samples(self):
        with pytest.raises(ConfigurationError):
            build_episode("s", [], [], [10.0], [0.02], tau=1.0)

    def test_requires_positive_tau(self):
        t = np.array([0.0, 60.0])
        with pytest.raises(ConfigurationError):
            build_episode("s", t, t, t, t, tau=-1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_requires_finite_tau(self, tau):
        t = np.array([0.0, 60.0])
        with pytest.raises(ConfigurationError, match="finite"):
            build_episode("s", t, t, t, t, tau=tau)

    def test_too_short_span_rejected(self):
        with pytest.raises(ConfigurationError):
            build_episode("s", [], [], [0.0, 0.4], [0.0, 0.01], tau=1.0)

    # one bad TAC series per case: (times, values, message, offending index)
    BAD_SERIES = {
        "two-dimensional": ([[0.0, 30.0, 60.0]], [[0.0, 0.02, 0.01]],
                            "1-d of one length", None),
        "lengths differ": ([0.0, 30.0, 60.0], [0.0, 0.02], "1-d of one length",
                           None),
        "nan value": ([0.0, 30.0, 60.0], [0.0, np.nan, 0.01], "non-finite value",
                      1),
        "infinite time": ([0.0, np.inf, 60.0], [0.0, 0.02, 0.01],
                          "non-finite time", 1),
        "negative time": ([-5.0, 30.0, 60.0], [0.0, 0.02, 0.01], "negative time",
                          0),
        "unsorted times": ([0.0, 60.0, 30.0], [0.0, 0.02, 0.01],
                           "not after the previous", 2),
        "duplicate times": ([0.0, 30.0, 30.0, 60.0], [0.0, 0.02, 0.02, 0.01],
                            "not after the previous", 2),
        "negative value": ([0.0, 30.0, 60.0], [0.0, -0.02, 0.01],
                           "negative value", 1),
    }

    @pytest.mark.parametrize("case", BAD_SERIES)
    def test_bad_series_rejected(self, case):
        times, values, what, index = self.BAD_SERIES[case]
        brac_t = np.array([0.0, 30.0, 60.0])
        brac_v = np.array([0.0, 0.05, 0.0])
        with pytest.raises(ConfigurationError, match=what) as info:
            build_episode("bad", brac_t, brac_v, times, values, tau=1.0)
        message = str(info.value)
        assert "episode 'bad' tac" in message
        if index is not None:
            assert message.endswith(f"at index {index}")
        # the BrAC channel gets the same checks under its own name
        with pytest.raises(ConfigurationError, match="episode 'bad' brac"):
            build_episode("bad", times, values, brac_t, brac_v, tau=1.0)
