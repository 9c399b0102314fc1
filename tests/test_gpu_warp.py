"""Tests for the warp shuffle primitives (CUDA semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpu.warp import (
    Warp,
    ballot,
    lane_ids,
    lane_shift,
    shfl_down,
    shfl_idx,
    shfl_up,
    shfl_xor,
    warp_ids,
)


@pytest.fixture
def lanes():
    return np.arange(32, dtype=np.float32)


@pytest.mark.parametrize("delta", [0, 1, 2, 5, 31])
def test_shfl_up_semantics(lanes, delta):
    result = shfl_up(lanes, delta)
    # lanes below delta keep their own value (CUDA semantics)
    np.testing.assert_array_equal(result[:delta], lanes[:delta])
    np.testing.assert_array_equal(result[delta:], lanes[: 32 - delta])


@pytest.mark.parametrize("delta", [0, 1, 3, 16, 31])
def test_shfl_down_semantics(lanes, delta):
    result = shfl_down(lanes, delta)
    np.testing.assert_array_equal(result[: 32 - delta], lanes[delta:])
    if delta:
        np.testing.assert_array_equal(result[32 - delta:], lanes[32 - delta:])


@pytest.mark.parametrize("src", [0, 7, 31])
def test_shfl_idx_broadcast(lanes, src):
    np.testing.assert_array_equal(shfl_idx(lanes, src), np.full(32, lanes[src]))


@pytest.mark.parametrize("mask", [1, 2, 16, 31])
def test_shfl_xor_is_involution(lanes, mask):
    once = shfl_xor(lanes, mask)
    twice = shfl_xor(once, mask)
    np.testing.assert_array_equal(twice, lanes)


def test_shfl_up_multiple_warps():
    values = np.arange(64, dtype=np.float64)
    result = shfl_up(values, 1)
    # warp boundaries are respected: lane 32 keeps its own value
    assert result[32] == values[32]
    assert result[33] == values[32]
    assert result[0] == values[0]
    assert result[1] == values[0]


def test_shfl_rejects_bad_arguments(lanes):
    with pytest.raises(SimulationError):
        shfl_up(lanes, -1)
    with pytest.raises(SimulationError):
        shfl_idx(lanes, 32)
    with pytest.raises(SimulationError):
        shfl_xor(lanes, 99)
    with pytest.raises(SimulationError):
        shfl_up(np.arange(33, dtype=np.float32), 1)


def test_ballot_packs_bits():
    predicate = np.zeros(32, dtype=bool)
    predicate[[0, 3, 31]] = True
    packed = ballot(predicate)
    assert packed[0] == (1 | (1 << 3) | (1 << 31))


def test_lane_and_warp_ids():
    np.testing.assert_array_equal(lane_ids(66)[:34], list(range(32)) + [0, 1])
    np.testing.assert_array_equal(warp_ids(66)[[0, 31, 32, 65]], [0, 0, 1, 2])


def test_warp_register_storage():
    warp = Warp()
    warp.set_register("x", np.arange(32))
    np.testing.assert_array_equal(warp.get_register("x"), np.arange(32, dtype=np.float32))
    shifted = warp.shfl_up("x", 2)
    assert shifted[2] == 0.0 and shifted[31] == 29.0
    with pytest.raises(SimulationError):
        warp.get_register("missing")
    with pytest.raises(SimulationError):
        warp.set_register("bad", np.arange(31))


@settings(max_examples=50, deadline=None)
@given(delta=st.integers(min_value=0, max_value=31),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_shfl_up_then_down_identity_on_interior(delta, seed):
    """Property: up then down restores every lane that stayed in range."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(32).astype(np.float32)
    round_trip = shfl_down(shfl_up(values, delta), delta)
    if delta == 0:
        np.testing.assert_array_equal(round_trip, values)
    else:
        np.testing.assert_array_equal(round_trip[:32 - delta], values[:32 - delta])


@settings(max_examples=50, deadline=None)
@given(delta=st.integers(min_value=1, max_value=31))
def test_shfl_up_preserves_multiset_except_tail(delta):
    """Property: shuffling moves values, it never invents new ones."""
    values = np.arange(32, dtype=np.float32)
    result = shfl_up(values, delta)
    assert set(result).issubset(set(values))


# ------------------------------------------------------------ lane shift

WS = 32
#: source layouts: C-contiguous; one row broadcast to every block (stride 0
#: along the blocks); one value per block, a ``(B, 1)`` column the helper
#: broadcasts itself (stride 0 along the lanes)
LAYOUTS = ("contiguous", "row-broadcast", "column")
UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _source(rng, blocks, threads, dtype, layout):
    """Values spread over many binades (signed zeros included), so adds
    round and any change of operand or order shows in the bits."""
    def draw(shape):
        values = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 30,
                                                                  shape)
        values[rng.random(shape) < 0.05] = -0.0
        return values.astype(dtype)
    if layout == "contiguous":
        return draw((blocks, threads))
    if layout == "row-broadcast":
        return np.broadcast_to(draw((1, threads)), (blocks, threads))
    return draw((blocks, 1))


def _lane_loop(source, amount, direction, out, add):
    """Reference: every lane of every warp, one at a time."""
    grouped = np.broadcast_to(source, out.shape).reshape(-1, WS)
    base = out.reshape(-1, WS)
    want = base.copy()
    for lane in range(WS):
        other = lane - amount if direction == "up" else lane + amount
        from_lane = other if 0 <= other < WS else lane
        received = grouped[:, from_lane]
        want[:, lane] = base[:, lane] + received if add else received
    return want.reshape(out.shape)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("blocks", [1, 3, 196])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("add", [False, True], ids=["copy", "add"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_lane_shift_matches_a_per_lane_loop(add, dtype, blocks, layout,
                                            seed):
    """Property: for every amount in 0..2*WS and both directions, the flat
    shift with its wrapped-lane fix-up is bit-identical to moving each
    lane on its own."""
    rng = np.random.default_rng(seed)
    threads = 4 * WS
    source = _source(rng, blocks, threads, dtype, layout)
    start = _source(rng, blocks, threads, dtype, "contiguous")
    view = UINT[np.dtype(dtype)]
    for direction in ("up", "down"):
        for amount in range(2 * WS + 1):
            out = start.copy()
            got = lane_shift(source, amount, direction, WS, out, add=add)
            assert got is out
            want = _lane_loop(source, amount, direction, start, add)
            np.testing.assert_array_equal(got.view(view), want.view(view))
