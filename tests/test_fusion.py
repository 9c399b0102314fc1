"""Stage fusion: the two-pass blur chain as one software-pipelined launch.

The fused blur pipeline runs as a *single* launch (zero ``Kernel.launch``
dispatches — the launch loop interleaves the stages' replay chunks itself)
and moves strictly less DRAM traffic than the two-pass chain, while
producing bit-identical output and identical instruction counts.  A fused
launch shares the single launch's machinery: an untraceable stage is
logged and sends the whole pipeline to the batched engine, fused programs
reach the trace capture (and so the static verifier), and a warm fused
launch takes its counters from the programs' counter memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.scenario import analyze_scenario
from repro.convolution.spec import ConvolutionSpec
from repro.errors import LaunchError
from repro.gpu.counters import merge_counters
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.kernels.conv2d_ssam import CONV2D_SSAM_KERNEL, ssam_convolve2d_chain
from repro.trace import replay as replay_mod
from repro.trace.fusion import FusedStage, fused_launch
from repro.trace.replay import capture_traces, fallback_log


@pytest.fixture
def image():
    return np.random.default_rng(7).random((96, 160), dtype=np.float32)


@pytest.fixture
def spec():
    return ConvolutionSpec.gaussian(9)


def test_fused_blur_is_one_launch(image, spec, monkeypatch):
    """The fused pipeline never goes through the per-kernel launch path."""
    calls = []
    original = Kernel.launch

    def counting_launch(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Kernel, "launch", counting_launch)

    chain = ssam_convolve2d_chain(image, spec, fused=False)
    assert len(calls) == 2  # the unfused chain: one launch per pass

    calls.clear()
    fused = ssam_convolve2d_chain(image, spec, fused=True)
    assert calls == []  # fused: zero kernel dispatches, one fused launch
    assert fused.launch.kernel_name == "ssam_conv2d+ssam_conv2d"
    # both stages' blocks ran inside the single fused launch
    assert fused.launch.blocks_executed == 2 * chain.launch.blocks_executed / 2


def test_fused_blur_bit_identical_with_less_dram(image, spec):
    chain = ssam_convolve2d_chain(image, spec, fused=False)
    fused = ssam_convolve2d_chain(image, spec, fused=True)

    # bit-identical output: fusion only reorders whole blocks across stages
    np.testing.assert_array_equal(fused.output, chain.output)

    c, f = chain.launch.counters, fused.launch.counters
    # identical work: every instruction counter matches exactly
    for field in ("fma", "add", "mul", "shfl", "gmem_load", "gmem_store",
                  "smem_broadcast", "gmem_load_transactions",
                  "gmem_store_transactions", "blocks_executed"):
        assert getattr(f, field) == getattr(c, field), field

    # strictly less DRAM traffic: the intermediate stays on chip, so its
    # write-out and read-back both disappear
    assert f.dram_write_bytes < c.dram_write_bytes
    assert f.dram_read_bytes < c.dram_read_bytes
    assert f.dram_bytes < c.dram_bytes
    # the intermediate is exactly one image: its write is half the chain's
    assert f.dram_write_bytes == pytest.approx(c.dram_write_bytes / 2)


def test_fused_blur_warm_path_stable(image, spec):
    """A second fused run (warm trace cache) is bit-identical to the first."""
    first = ssam_convolve2d_chain(image, spec, fused=True)
    second = ssam_convolve2d_chain(image, spec, fused=True)
    np.testing.assert_array_equal(first.output, second.output)
    assert second.launch.counters.as_dict() == first.launch.counters.as_dict()


def test_three_pass_chain_fuses(image, spec):
    chain = ssam_convolve2d_chain(image, spec, passes=3, fused=False)
    fused = ssam_convolve2d_chain(image, spec, passes=3, fused=True)
    np.testing.assert_array_equal(fused.output, chain.output)
    c, f = chain.launch.counters, fused.launch.counters
    assert f.fma == c.fma
    # two intermediates stay on chip: write traffic drops to one third
    assert f.dram_write_bytes == pytest.approx(c.dram_write_bytes / 3)


def test_fused_launch_rejects_mismatched_plans(image, spec):
    from repro.core.plan import plan_convolution
    from repro.gpu.architecture import get_architecture
    from repro.gpu.memory import GlobalMemory
    from repro.dtypes import resolve_precision

    arch = get_architecture("p100")
    prec = resolve_precision("float32")
    plan_a = plan_convolution(spec, arch, prec, 4, 128)
    plan_b = plan_convolution(spec, arch, prec, 4, 256)
    height, width = image.shape
    config_a = plan_a.launch_config(width, height)
    config_b = plan_b.launch_config(width, height)

    memory = GlobalMemory()
    src = memory.to_device(image, name="src")
    weights = memory.to_device(spec.weights.astype(np.float32),
                               name="weights", cached=True)
    tmp = memory.allocate((height, width), prec, name="tmp")
    dst = memory.allocate((height, width), prec, name="dst")
    ax, ay = spec.anchor

    def args(a, b, plan):
        return (a, b, weights, width, height, spec.filter_width,
                spec.filter_height, plan.outputs_per_thread, ax, ay)

    with pytest.raises(LaunchError, match="share one blocking plan"):
        fused_launch([
            FusedStage(CONV2D_SSAM_KERNEL, config_a, args(src, tmp, plan_a)),
            FusedStage(CONV2D_SSAM_KERNEL, config_b, args(tmp, dst, plan_b)),
        ])


def test_fused_launch_needs_two_stages(image, spec):
    with pytest.raises(LaunchError, match="at least two stages"):
        fused_launch([])
    with pytest.raises(Exception):
        ssam_convolve2d_chain(image, spec, passes=1)


# ------------------------------------------------------- one launch loop

def _scale_stage(ctx, src, dst, n):
    gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    ctx.store_global(dst, gidx, ctx.mul(ctx.load_global(src, gidx),
                                        ctx.full(2.0)))


def _arch_stage(ctx, src, dst, n):
    gidx = ctx.block_idx_x * ctx.block_threads + ctx.thread_idx_x
    # reading the architecture makes the body untraceable
    offset = 1.0 if ctx.architecture.warp_size == 32 else 0.0
    ctx.store_global(dst, gidx, ctx.add(ctx.load_global(src, gidx),
                                        ctx.full(offset)))


def _pipeline_buffers():
    memory = GlobalMemory()
    data = np.random.default_rng(21).random(8 * 64).astype(np.float32)
    return (memory.to_device(data, name="src"),
            memory.allocate((8 * 64,), "float32", name="mid", cached=True),
            memory.allocate((8 * 64,), "float32", name="dst"))


def test_untraceable_fused_stage_falls_back_once_with_the_pipeline_name():
    producer = Kernel(_scale_stage, name="a")
    consumer = Kernel(_arch_stage, name="b")
    config = LaunchConfig(grid_dim=(8, 1, 1), block_threads=64)
    src, mid, dst = _pipeline_buffers()
    stages = [FusedStage(producer, config, (src, mid, 8 * 64)),
              FusedStage(consumer, config, (mid, dst, 8 * 64))]
    before = len(fallback_log())
    fused = fused_launch(stages, architecture="p100", lead_blocks=2)
    assert fallback_log()[before:] == [
        {"kernel": "b", "reason": "kernel body reads the architecture"}]
    assert fused.kernel_name == "a+b"

    b_src, b_mid, b_dst = _pipeline_buffers()
    first = producer.launch(config, (b_src, b_mid, 8 * 64), batch_size="auto")
    second = consumer.launch(config, (b_mid, b_dst, 8 * 64), batch_size="auto")
    np.testing.assert_array_equal(mid.to_host(), b_mid.to_host())
    np.testing.assert_array_equal(dst.to_host(), b_dst.to_host())
    assert fused.counters.as_dict() == \
        merge_counters([first.counters, second.counters]).as_dict()
    assert fused.blocks_executed == first.blocks_executed \
        + second.blocks_executed

    # the untraceable key is cached: a repeat launch records nothing
    before = len(fallback_log())
    again = fused_launch(stages, architecture="p100", lead_blocks=2)
    assert fallback_log()[before:] == [
        {"kernel": "b", "reason": "known untraceable (cached)"}]
    assert again.counters.as_dict() == fused.counters.as_dict()


def test_fused_programs_reach_the_trace_capture(image, spec):
    with capture_traces() as capture:
        ssam_convolve2d_chain(image, spec, fused=True)
    assert [r.kernel_name for r in capture.records] == ["ssam_conv2d"] * 2
    assert capture.fallbacks == []


def test_fused_pipeline_scenario_verifies_clean():
    analysis = analyze_scenario("conv2d-pipeline", size="fused")
    assert analysis.reports
    assert all(report.ok for report in analysis.reports)
    assert analysis.fallbacks == []
    assert analysis.ok


def test_warm_fused_launch_takes_its_counters_from_the_memo(monkeypatch):
    image = np.random.default_rng(49).random((37, 49), dtype=np.float32)
    spec = ConvolutionSpec.gaussian(3)
    CONV2D_SSAM_KERNEL._trace_cache.clear()
    cold = ssam_convolve2d_chain(image, spec, fused=True)
    calls = []
    predict = replay_mod.predict_counters

    def counting_predict(*args, **kwargs):
        calls.append(1)
        return predict(*args, **kwargs)

    monkeypatch.setattr(replay_mod, "predict_counters", counting_predict)
    warm = ssam_convolve2d_chain(image, spec, fused=True)
    assert calls == []
    np.testing.assert_array_equal(warm.output, cold.output)
    assert warm.launch.counters.as_dict() == cold.launch.counters.as_dict()
