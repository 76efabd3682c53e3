import math

import pytest

from convexkit.kernel.support import DEFAULT_SAMPLES, SupportBody, support_body_metrics


def test_disc_metrics():
    body = SupportBody.disc(2.0)
    m = support_body_metrics(body)
    assert m["area"] == pytest.approx(math.pi, abs=1e-6)
    assert m["perimeter"] == pytest.approx(2 * math.pi, abs=1e-9)
    assert m["mean_width"] == pytest.approx(2.0, abs=1e-9)
    assert m["diameter"] == pytest.approx(2.0, abs=1e-12)


def test_mean_width_is_perimeter_over_pi_by_definition():
    # h + h'' >= 0 needs the cos(3t) amplitude at most 1/8
    body = SupportBody.from_function(lambda t: 1.0 + 0.05 * math.cos(3 * t), 3600)
    m = support_body_metrics(body)
    assert m["mean_width"] == m["perimeter"] / math.pi


def test_grid_must_be_even_and_large_enough():
    with pytest.raises(ValueError):
        SupportBody.from_function(lambda t: 1.0, 7)
    with pytest.raises(ValueError):
        SupportBody.from_function(lambda t: 1.0, 4)


def test_nan_samples_are_rejected():
    with pytest.raises(ValueError, match="nonpositive width"):
        SupportBody([1.0] * 7 + [math.nan])


def test_widths_of_offset_disc_are_constant():
    # translation shifts h by <c, u>; widths are translation-invariant
    cx, cy = 0.3, -0.7
    body = SupportBody.from_function(
        lambda t: 1.0 + cx * math.cos(t) + cy * math.sin(t), 3600
    )
    w = body.widths()
    assert max(w) - min(w) < 1e-12
    assert w[0] == pytest.approx(2.0, abs=1e-12)


def test_combine_interpolates_support_values():
    a = SupportBody.disc(2.0, 720)
    b = SupportBody.disc(4.0, 720)
    mid = a.combine(b, 0.5)
    assert mid.samples == pytest.approx((1.5,) * 720)


def test_combine_needs_matching_grids():
    a = SupportBody.disc(2.0, 720)
    b = SupportBody.disc(2.0, 1440)
    with pytest.raises(ValueError):
        a.combine(b, 0.5)


def test_boundary_points_lie_on_the_disc():
    body = SupportBody.disc(2.0, 720)
    pts = body.boundary_points()
    assert max(abs(math.hypot(x, y) - 1.0) for x, y in pts) < 1e-9


def test_default_grid_size():
    assert DEFAULT_SAMPLES == 3600
    assert len(SupportBody.disc(1.0)) == 3600


@pytest.mark.parametrize("scale", [1e100, 1.0, 1e-6, 1e-9, 1e-12, 1e-100])
def test_convexity_check_does_not_depend_on_the_scale(scale):
    # h + h'' = 1 - 2.4 cos(3t) < 0 near t = 0: no convex body has this h,
    # at any size; a slack floored at 1e-9 let the small copies through
    with pytest.raises(ValueError, match="convexity"):
        SupportBody.from_function(lambda t: scale * (1.0 + 0.3 * math.cos(3 * t)), 64)
    SupportBody.from_function(lambda t: scale * (1.0 + 0.05 * math.cos(3 * t)), 64)
