"""Tests for the GPU architecture presets and Table 1 data."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.gpu.architecture import (
    A100,
    ARCHITECTURES,
    H100,
    MODERN_ARCHITECTURES,
    TESLA_K40,
    TESLA_M40,
    TESLA_P100,
    TESLA_V100,
    get_architecture,
    table1_rows,
    warp_sectors,
)


@pytest.mark.parametrize("name, sms", [("k40", 15), ("m40", 24), ("p100", 56), ("v100", 80),
                                       ("a100", 108), ("h100", 132)])
def test_table1_sm_counts(name, sms):
    assert get_architecture(name).sm_count == sms


@pytest.mark.parametrize("name", list(ARCHITECTURES))
def test_register_file_size_is_256kib(name):
    arch = get_architecture(name)
    assert arch.registers_per_sm == 65536
    assert arch.registers_per_sm_bytes == 256 * 1024


@pytest.mark.parametrize("arch, kib", [(TESLA_K40, 48), (TESLA_M40, 96), (TESLA_P100, 64),
                                       (TESLA_V100, 96), (A100, 164), (H100, 228)])
def test_table1_shared_memory(arch, kib):
    assert arch.shared_memory_per_sm == kib * 1024


def test_register_to_shared_ratio_exceeds_paper_claim():
    # Section 2: register file is more than 2.7x larger than shared memory
    assert TESLA_P100.register_to_shared_ratio > 2.7
    assert TESLA_V100.register_to_shared_ratio > 2.6


def test_get_architecture_accepts_aliases():
    assert get_architecture("Tesla P100") is TESLA_P100
    assert get_architecture("V100") is TESLA_V100
    assert get_architecture(TESLA_P100) is TESLA_P100


def test_get_architecture_rejects_unknown():
    with pytest.raises(ConfigurationError) as excinfo:
        get_architecture("b200")
    # the error must name the valid presets so CLIs/HTTP callers can recover
    for name in ARCHITECTURES:
        assert name in str(excinfo.value)
    with pytest.raises(ConfigurationError):
        get_architecture(123)


def test_table1_rows_complete():
    rows = table1_rows()
    assert [row["gpu"] for row in rows] == ["Tesla K40", "Tesla M40", "Tesla P100", "Tesla V100"]
    assert all(row["registers_per_sm"] == 65536 for row in rows)


def test_volta_has_two_register_banks_pascal_four():
    # Section 7.1 (iii)
    assert TESLA_V100.register_banks == 2
    assert TESLA_P100.register_banks == 4
    assert TESLA_K40.register_banks == 4


def test_volta_caches_larger_than_pascal():
    # Section 7.1 (i)-(ii)
    assert TESLA_V100.l1_cache_bytes > 4 * TESLA_P100.l1_cache_bytes
    assert TESLA_V100.l2_cache_bytes == TESLA_P100.l2_cache_bytes * 3 // 2


def test_peak_flops_sane():
    assert 9e12 < TESLA_P100.peak_fp32_flops < 11e12
    assert 14e12 < TESLA_V100.peak_fp32_flops < 17e12
    assert TESLA_P100.peak_fp64_flops == pytest.approx(TESLA_P100.peak_fp32_flops / 2)


def test_cycles_seconds_roundtrip():
    cycles = 1.0e6
    assert TESLA_P100.seconds_to_cycles(TESLA_P100.cycles_to_seconds(cycles)) == pytest.approx(cycles)


def test_shared_memory_carveout():
    smaller = TESLA_V100.with_shared_memory_carveout(64 * 1024)
    assert smaller.shared_memory_per_sm == 64 * 1024
    assert smaller.shared_memory_per_block <= 64 * 1024
    with pytest.raises(ConfigurationError):
        TESLA_V100.with_shared_memory_carveout(0)


def test_summary_keys():
    summary = TESLA_P100.summary()
    assert summary["name"] == "Tesla P100"
    assert summary["sm_count"] == 56
    assert summary["register_to_shared_ratio"] == pytest.approx(4.0, rel=0.01)


def test_modern_architectures_listed():
    assert MODERN_ARCHITECTURES == (A100, H100)
    assert get_architecture("A100") is A100
    assert get_architecture("H100") is H100


@pytest.mark.parametrize("arch", [TESLA_K40, TESLA_M40, TESLA_P100, TESLA_V100])
def test_paper_parts_have_no_async_copy(arch):
    assert not arch.supports_async_copy
    assert arch.latencies.gmem_to_smem == 0.0


@pytest.mark.parametrize("arch", list(MODERN_ARCHITECTURES))
def test_modern_parts_have_async_copy(arch):
    assert arch.supports_async_copy
    assert arch.latencies.gmem_to_smem > 0.0


def test_modern_memory_hierarchy_grows():
    # each generation's capacities are monotone over its predecessor
    assert A100.shared_memory_per_sm > TESLA_V100.shared_memory_per_sm
    assert H100.shared_memory_per_sm > A100.shared_memory_per_sm
    assert A100.l2_cache_bytes > TESLA_V100.l2_cache_bytes
    assert H100.l2_cache_bytes > A100.l2_cache_bytes
    assert A100.memory_bandwidth_bytes > TESLA_V100.memory_bandwidth_bytes
    assert H100.memory_bandwidth_bytes > A100.memory_bandwidth_bytes


def test_modern_peak_flops_sane():
    # whitepaper figures: A100 ~19.5 TF FP32, H100 SXM ~60+ TF (vector FP32)
    assert 18e12 < A100.peak_fp32_flops < 21e12
    assert 55e12 < H100.peak_fp32_flops < 70e12
    assert H100.peak_fp64_flops == pytest.approx(H100.peak_fp32_flops / 2)


def test_h100_carveout_accepted_at_maximum():
    # with_shared_memory_carveout must admit Hopper's full 228 KB
    full = H100.with_shared_memory_carveout(228 * 1024)
    assert full.shared_memory_per_sm == 228 * 1024


@pytest.mark.parametrize("field", ["warp_allocation_granularity",
                                   "register_allocation_granularity",
                                   "shared_allocation_granularity"])
@pytest.mark.parametrize("bad", [0, -1])
def test_occupancy_rejects_invalid_granularities(field, bad):
    """A non-positive granularity must raise, not silently skip rounding."""
    from dataclasses import replace

    from repro.gpu.occupancy import compute_occupancy

    broken = replace(TESLA_P100, **{field: bad})
    with pytest.raises(ConfigurationError, match=field):
        compute_occupancy(broken, 128, 32, 1024)
    # the pristine preset still computes
    result = compute_occupancy(TESLA_P100, 128, 32, 1024)
    assert result.active_blocks_per_sm > 0


def _closed_form_entries():
    """Every closed-form cost entry, as ``entry(arch) -> KernelRunResult``."""
    from repro import baselines
    from repro.convolution.spec import ConvolutionSpec
    from repro.core import performance_model as pm
    from repro.kernels import conv2d_ssam, stencil2d_ssam, stencil3d_ssam
    from repro.stencils.catalog import get_stencil

    conv, st2, st3 = ConvolutionSpec.gaussian(5), get_stencil("2d9pt"), get_stencil("3d7pt")
    return {
        "ssam_conv2d": lambda a: conv2d_ssam.analytic_launch(conv, 512, 256, a),
        "ssam_stencil2d": lambda a: stencil2d_ssam.analytic_launch(st2, 512, 256, 1, a),
        "ssam_stencil3d": lambda a: stencil3d_ssam.analytic_launch(st3, 64, 64, 64, 1, a),
        "npp": lambda a: baselines.npp_like_convolve2d_analytic(conv, 512, 256, a),
        "arrayfire": lambda a: baselines.arrayfire_like_convolve2d_analytic(
            conv, 512, 256, a),
        "original2d": lambda a: baselines.original_stencil2d_analytic(st2, 512, 256, 1, a),
        "ppcg2d": lambda a: baselines.ppcg_like_stencil2d_analytic(st2, 512, 256, 1, a),
        "reordered": lambda a: baselines.reordered_stencil2d(st2, 512, 256, 1, a),
        "original3d": lambda a: baselines.original_stencil3d_analytic(
            st3, 64, 64, 64, 1, a),
        "shared3d": lambda a: baselines.shared_stencil3d(st3, 64, 64, 64, 1, a),
        "stencilgen": lambda a: baselines.stencilgen_like_stencil(st2, 512, 256, architecture=a),
        "ssam_temporal": lambda a: baselines.ssam_temporal_stencil(
            st2, 512, 256, architecture=a),
        "model_stencil2d": lambda a: pm.model_stencil2d(st2, 512, 256, 1, a),
        "model_stencil3d": lambda a: pm.model_stencil3d(st3, 64, 64, 64, 1, a),
    }


def test_warp_sectors_follow_the_part():
    assert warp_sectors(TESLA_P100, 4) == 1
    assert warp_sectors(TESLA_P100, 8) == 2
    narrow = replace(TESLA_P100, name="64-byte line test part", cache_line_bytes=64)
    assert warp_sectors(narrow, 4) == 2
    # every shipped part has the same (warp, line) geometry
    assert {(a.warp_size, a.cache_line_bytes) for a in ARCHITECTURES.values()} == {(32, 128)}


@pytest.mark.parametrize("entry", sorted(_closed_form_entries()))
def test_closed_form_transactions_follow_the_cache_line(entry):
    evaluate = _closed_form_entries()[entry]
    narrow = replace(TESLA_P100, name="64-byte line test part", cache_line_bytes=64)
    wide = evaluate(TESLA_P100).launch.counters
    halved = evaluate(narrow).launch.counters
    # a float32 warp access spans two 64-byte lines instead of one 128-byte line
    assert wide.gmem_store_transactions > 0
    assert halved.gmem_store_transactions == 2 * wide.gmem_store_transactions
    assert halved.gmem_load_transactions > wide.gmem_load_transactions
