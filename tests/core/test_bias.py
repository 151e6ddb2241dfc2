"""Tests for bias-mode management (SIV-B)."""

from __future__ import annotations

import pytest

from repro.core.bias import BiasController
from repro.core.requests import BiasMode
from repro.errors import DeviceError
from repro.mem.address import AddressMap, Region
from repro.units import kib


def make_controller():
    regions = AddressMap()
    regions.add(Region("r0", 0, kib(4), kind="cxl"))
    regions.add(Region("r1", kib(4), kib(4), kind="cxl"))
    return BiasController(regions)


def test_defaults_to_host_bias():
    ctl = make_controller()
    assert ctl.mode_of_region("r0") is BiasMode.HOST
    assert ctl.mode_of_addr(0) is BiasMode.HOST


def test_regions_switch_independently():
    ctl = make_controller()
    ctl.force_device_bias("r0")
    assert ctl.mode_of_region("r0") is BiasMode.DEVICE
    assert ctl.mode_of_region("r1") is BiasMode.HOST


def test_mode_of_span_needs_one_region():
    ctl = make_controller()
    ctl.force_device_bias("r1")
    assert ctl.mode_of_span(0, kib(4) - 64) is BiasMode.HOST
    assert ctl.mode_of_span(kib(4), kib(8) - 64) is BiasMode.DEVICE
    assert ctl.mode_of_span(0, kib(4)) is None           # crosses r0 -> r1
    assert ctl.mode_of_span(kib(8), kib(8) + 64) is None  # outside both


def test_unknown_region_rejected():
    ctl = make_controller()
    with pytest.raises(DeviceError):
        ctl.mode_of_region("nope")
    with pytest.raises(DeviceError):
        ctl.mode_of_addr(1 << 30)


def test_h2d_touch_falls_back_to_host_bias():
    ctl = make_controller()
    ctl.force_device_bias("r0")
    ctl.h2d_touch(100)
    assert ctl.mode_of_region("r0") is BiasMode.HOST
    assert ctl.switches_to_host == 1
    # Touching a host-bias region is a no-op.
    ctl.h2d_touch(100)
    assert ctl.switches_to_host == 1


def test_enter_device_bias_flushes_host_cache(platform):
    """The timed switch must CLFLUSH the whole region first (SIV-B)."""
    from repro.mem.coherence import LineState
    region = platform.t2.carve_region("scratch", kib(4))
    for line in region.lines():
        platform.home.preload_llc(line, LineState.MODIFIED)
    t0 = platform.sim.now
    platform.sim.run_process(platform.t2.bias.enter_device_bias(
        "scratch", platform.core, platform.home))
    elapsed = platform.sim.now - t0
    assert platform.t2.bias.mode_of_region("scratch") is BiasMode.DEVICE
    for line in region.lines():
        assert platform.home.llc_state(line) is LineState.INVALID
    # 64 lines x CLFLUSH_NS: the preparation cost is real
    assert elapsed >= 64 * 50.0
