"""The cycling scalar objective and its four-phase trajectory."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aaprox.anderson import AAConfig, AndersonEngine
from aaprox.counterexample import (
    BASIN,
    CURVATURE_INNER,
    CURVATURE_OUTER,
    CYCLE_POINT,
    SPIRAL_POINT,
    STEP,
    PiecewiseLoss,
    closed_form_step,
    grad_f,
    run_counterexample,
    value_f,
)


def test_constants():
    assert CURVATURE_INNER == 25.0
    assert CURVATURE_OUTER == 0.1
    assert STEP == 0.04
    assert CYCLE_POINT == 249.0
    assert_allclose(SPIRAL_POINT, 249.0 * (math.sqrt(5.0) - 2.0), rtol=0)


class TestPiecewiseObjective:
    def test_gradient_branch_values(self):
        assert grad_f(0.0) == 0.0
        assert grad_f(0.5) == 12.5
        assert grad_f(2.1) == pytest.approx(25.11, rel=1e-15)
        assert grad_f(-249.0) == pytest.approx(-49.8, rel=1e-15)
        assert grad_f(249.0) == pytest.approx(49.8, rel=1e-15)

    def test_gradient_continuous_at_the_kinks(self):
        for kink in (1.0, -1.0):
            inner = CURVATURE_INNER * kink
            outer = CURVATURE_OUTER * kink + math.copysign(24.9, kink)
            assert inner == pytest.approx(outer, rel=1e-15)
            assert grad_f(kink) == pytest.approx(inner, rel=1e-15)

    def test_value_branch_examples(self):
        assert value_f(0.0) == 0.0
        assert value_f(1.0) == 12.5
        assert value_f(-1.0) == 12.5
        assert value_f(2.0) == pytest.approx(37.55, rel=1e-15)
        assert value_f(-249.0) == pytest.approx(9287.7, rel=1e-14)

    def test_value_continuous_at_the_kinks(self):
        eps = 1e-9
        for kink in (1.0, -1.0):
            gap = value_f(kink * (1 + eps)) - value_f(kink * (1 - eps))
            assert abs(gap) < 1e-7

    def test_gradient_is_the_derivative_of_the_value(self):
        h = 1e-6
        for x in (-300.0, -5.0, -0.5, 0.3, 0.99, 3.0, 250.0):
            fd = (value_f(x + h) - value_f(x - h)) / (2 * h)
            assert grad_f(x) == pytest.approx(fd, abs=1e-5)

    def test_vectorized_and_scalar_forms(self):
        xs = np.array([-2.0, 0.0, 0.5, 3.0])
        assert isinstance(grad_f(0.5), float)
        assert isinstance(value_f(0.5), float)
        assert_allclose(grad_f(xs), [grad_f(float(v)) for v in xs], rtol=0)
        assert_allclose(value_f(xs), [value_f(float(v)) for v in xs], rtol=0)

    def test_strong_convexity_of_the_gradient(self):
        xs = np.linspace(-300, 300, 4001)
        gs = grad_f(xs)
        slopes = np.diff(gs) / np.diff(xs)
        assert np.all(slopes >= CURVATURE_OUTER - 1e-12)
        assert np.all(slopes <= CURVATURE_INNER + 1e-12)


class TestClosedFormStep:
    def test_gradient_parts_cancel(self):
        # both points outside the band: (b x_k - a x_{k-1}) / (b - a)
        got = closed_form_step(-249.0, 2.1)
        assert got == pytest.approx(249.0 * (2.1 - 249.0) / (2.1 + 747.0),
                                    rel=1e-15)

    def test_matches_explicit_mixing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xc, xp = rng.uniform(-260, 260, 2)
            a, b = grad_f(float(xc)), grad_f(float(xp))
            if a == b:
                continue
            wa, wb = b / (b - a), -a / (b - a)
            mixed = (wa * (xc - STEP * a) + wb * (xp - STEP * b))
            assert closed_form_step(float(xc), float(xp)) == pytest.approx(
                mixed, rel=1e-10)

    def test_equal_gradients_take_the_plain_step(self):
        assert closed_form_step(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert closed_form_step(10.0, 10.0) == pytest.approx(
            10.0 - STEP * grad_f(10.0), rel=1e-15)


class TestRunCounterexample:
    def test_trajectory_shape_and_start(self):
        rep = run_counterexample(2.1, n_cycles=50)
        assert len(rep.iterates) == 4 * 50 + 7
        assert rep.iterates[0] == 2.1
        assert rep.iterates[1] == pytest.approx(2.1 - STEP * 25.11, rel=1e-15)
        assert rep.cycles.shape == (51, 4)

    def test_two_phases_pin_the_cycle_points(self):
        rep = run_counterexample(2.1, n_cycles=50)
        assert_allclose(rep.phase(4), np.full(51, CYCLE_POINT), rtol=1e-9)
        assert_allclose(rep.phase(6), np.full(51, -CYCLE_POINT), rtol=1e-9)

    def test_two_phases_spiral_onto_the_fixed_points(self):
        rep = run_counterexample(2.1, n_cycles=50)
        assert rep.phase(3)[-1] == pytest.approx(-SPIRAL_POINT, abs=1e-6)
        assert rep.phase(5)[-1] == pytest.approx(SPIRAL_POINT, abs=1e-6)
        # the spiral contracts: gaps shrink strictly until they hit the
        # rounding floor near 1e-12
        gaps = np.abs(rep.phase(5) - SPIRAL_POINT)
        above_floor = gaps[gaps > 1e-10]
        assert len(above_floor) >= 10
        assert np.all(np.diff(above_floor) < 0)
        assert gaps[-1] <= 1e-9

    def test_limit_points_summary(self):
        rep = run_counterexample(2.1)
        assert rep.limit_points[4] == pytest.approx(CYCLE_POINT, rel=1e-12)
        assert rep.limit_points[6] == pytest.approx(-CYCLE_POINT, rel=1e-12)
        assert rep.limit_points[3] == pytest.approx(-SPIRAL_POINT, abs=1e-9)
        assert rep.limit_points[5] == pytest.approx(SPIRAL_POINT, abs=1e-9)

    def test_phase_offset_validation(self):
        rep = run_counterexample(2.1, n_cycles=2)
        with pytest.raises(ValueError):
            rep.phase(2)
        with pytest.raises(ValueError):
            rep.phase(7)

    @pytest.mark.parametrize("x0", [2.1, 10.0, 100.0, 246.0])
    def test_engine_agrees_with_the_closed_form(self, x0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_counterexample(x0)
        assert rep.max_closed_form_gap <= 1e-8
        assert_allclose(rep.iterates, rep.closed_form, atol=1e-8)

    @pytest.mark.parametrize("n_cycles", [0, 3, 50])
    @pytest.mark.parametrize("x0", [2.01, 2.1, 50.0, 246.0, 0.5, 300.0])
    def test_the_prox_loop_takes_the_same_path(self, x0, n_cycles):
        # the reference is the depth-1 extrapolated gradient iteration
        # written on the engine itself: push g(x), move to the proposal,
        # and stop at a zero residual from the second one on; x0 = 0.5
        # stops there after two iterates
        if BASIN[0] <= x0 <= BASIN[1]:
            iterates = run_counterexample(x0, n_cycles).iterates
        else:
            with pytest.warns(UserWarning, match="outside"):
                iterates = run_counterexample(x0, n_cycles).iterates
        loss = PiecewiseLoss()
        engine = AndersonEngine(1, AAConfig(m=1, reg_scale=0.0))
        x = np.array([x0])
        want = [x0]
        for k in range(4 * n_cycles + 6):
            g = x - STEP * loss.grad(x)
            residual = engine.push(g, x)
            if k and np.linalg.norm(residual) == 0.0:
                break
            x = engine.extrapolate()[0]
            want.append(x[0])
        assert np.array_equal(iterates, want)

    @pytest.mark.parametrize("x0", [1.0, 0.0, 250.0, -5.0])
    def test_warns_outside_the_basin(self, x0):
        with pytest.warns(UserWarning) as record:
            run_counterexample(x0, n_cycles=2)
        messages = [str(w.message) for w in record]
        assert "outside" in messages[0]
        # past the upper end the engine also drifts from the closed form
        # (by about 5.5e-8 at 250), which run_counterexample reports too
        diverged = ["diverged" in m for m in messages[1:]]
        assert diverged == ([True] if x0 > BASIN[1] else [])

    @pytest.mark.parametrize("x0, n_cycles, fragment", [
        (float("nan"), 2, "x0 must be finite"),
        (float("inf"), 2, "x0 must be finite"),
        (2.1, -3, "n_cycles must be nonnegative"),
        (2.1, 2.5, "n_cycles must be an integer, got 2.5"),
        (2.1, True, "n_cycles must be an integer, got True")],
        ids=["nan", "inf", "neg", "fractional", "bool"])
    def test_bad_inputs_are_rejected(self, x0, n_cycles, fragment):
        with pytest.raises(ValueError, match=fragment):
            run_counterexample(x0, n_cycles)

    def test_a_numpy_integer_cycle_count_is_accepted(self):
        rep = run_counterexample(2.1, np.int64(3))
        assert np.array_equal(rep.iterates, run_counterexample(2.1, 3).iterates)

    def test_basin_interval(self):
        lo, hi = BASIN
        assert lo == 2.01 and hi == 246.98

    def test_deterministic(self):
        a = run_counterexample(10.0, n_cycles=5)
        b = run_counterexample(10.0, n_cycles=5)
        assert np.array_equal(a.iterates, b.iterates)

    def test_objective_cycles_rather_than_descending(self):
        rep = run_counterexample(2.1, n_cycles=50)
        vals = value_f(rep.iterates)
        # the last full cycle still visits the high-objective points
        assert vals[-40:].max() > value_f(CYCLE_POINT) * 0.999
        assert vals.min() >= 0.0
