import pytest
from hypothesis import given
from hypothesis import strategies as st

from muown.errors import ConfigError
from muown.schedule import ScheduleSpec, eta_at

WSD = ScheduleSpec(warmup_frac=0.02, decay_frac=0.20)
# every positive finite float
PEAKS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestWarmupStableDecay:
    def test_piecewise_shape(self):
        total, peak = 1000, 0.5
        w = round(0.02 * total)  # 20
        d = round(0.20 * total)  # 200
        assert eta_at(WSD, 0, total, peak) == pytest.approx(peak / w)
        assert eta_at(WSD, w - 1, total, peak) == peak
        assert eta_at(WSD, 500, total, peak) == peak
        assert eta_at(WSD, total - d, total, peak) == peak
        assert eta_at(WSD, total - 1, total, peak) == pytest.approx(peak / d)

    def test_continuity_at_breakpoints(self):
        total, peak = 1000, 0.3
        w = round(0.02 * total)
        d = round(0.20 * total)
        eps = 1e-9
        # warmup joins the plateau
        left = eta_at(WSD, w - 1 - eps, total, peak)
        right = eta_at(WSD, w - 1 + eps, total, peak)
        assert abs(left - right) <= peak * 1e-8
        assert abs(eta_at(WSD, w - 1, total, peak) - peak) <= 1e-15
        # plateau joins the decay
        left = eta_at(WSD, total - d - eps, total, peak)
        right = eta_at(WSD, total - d + eps, total, peak)
        assert abs(left - right) <= peak * 1e-8
        assert abs(eta_at(WSD, total - d, total, peak) - peak) <= 1e-15

    def test_decay_ends_at_zero_without_floor(self):
        assert eta_at(WSD, 1000, 1000, 0.7) == 0.0

    def test_floor_respected(self):
        spec = ScheduleSpec(warmup_frac=0.02, decay_frac=0.20, floor=1e-4)
        assert eta_at(spec, 1000, 1000, 0.7) == 1e-4

    def test_every_training_step_positive(self):
        for t in range(200):
            assert eta_at(WSD, t, 200, 0.1) > 0.0

    def test_constant(self):
        spec = ScheduleSpec()
        assert eta_at(spec, 0, 10, 0.2) == 0.2
        assert eta_at(spec, 9, 10, 0.2) == 0.2

    @given(peak=PEAKS, total=st.integers(1, 10 ** 6), data=st.data())
    def test_zero_fractions_keep_every_rate_at_the_peak(self, peak, total, data):
        t = data.draw(st.integers(0, total - 1))
        assert eta_at(ScheduleSpec(), t, total, peak) == peak

    def test_a_floor_above_the_peak_is_capped_at_the_peak(self):
        for fracs in ((0.0, 0.0), (0.02, 0.20)):
            spec = ScheduleSpec(*fracs, floor=1.0)
            assert [eta_at(spec, t, 100, 0.02) for t in (0, 50, 99)] == [0.02] * 3

    @given(warmup=st.just(0.0) | st.floats(0.0, 1.0),
           decay=st.just(0.0) | st.floats(0.0, 1.0),
           floor=st.floats(min_value=0.0, allow_infinity=False),
           peak=PEAKS, total=st.integers(1, 10 ** 6), data=st.data())
    def test_every_training_rate_lies_in_zero_to_peak(self, warmup, decay, floor,
                                                      peak, total, data):
        try:
            spec = ScheduleSpec(warmup, decay, floor)
        except ConfigError:  # warmup + decay > 1
            return
        t = data.draw(st.integers(0, total - 1))
        rate = eta_at(spec, t, total, peak)
        assert 0.0 <= rate <= peak
        # the shape rises, then falls: no rate lies below both ends
        assert rate >= min(eta_at(spec, 0, total, peak), eta_at(spec, total - 1, total, peak))


class TestValidation:
    def test_fractions_must_fit(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(warmup_frac=0.6, decay_frac=0.6)

    def test_negative_floor(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(floor=-1.0)

    @pytest.mark.parametrize("floor", [float("inf"), float("nan")])
    def test_non_finite_floor(self, floor):
        # a floor must be finite, as every float of a config must
        with pytest.raises(ConfigError, match="^floor "):
            ScheduleSpec(floor=floor)
