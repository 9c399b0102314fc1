"""Exact IR counts of the five SSAM kernels vs the Section 5 ``model_*``.

Each kernel runs once under the replay engine at a small size; the static
prediction (:func:`repro.analysis.lint.predict_counters`) over the full
recorded grid gives the exact counters of the traced implementation, and
the hand-written model evaluators are called at the same size.

* **Exact** on the warp-instruction fields :data:`EXACT_FIELDS`: a formula
  drifting from the kernel (or vice versa) fails with the field named.
* **Lower bound** (``model <= exact``) on ``gmem_load_transactions`` and
  ``gmem_store_transactions``: the model charges every warp access the
  sectors of one line-aligned row, while the kernels' halo-shifted rows
  straddle a line boundary (conv2d at 192x160: 6960 exact, 4080 modelled).
* **Not compared:**

  - ``gmem_store``: the model issues every output store in every warp,
    while warps whose lanes all fall past the domain edge issue none
    (stencil2d and conv1d edge blocks);
  - the byte fields (``cache_read_bytes``, ``dram_write_bytes``,
    ``smem_read_bytes``, ``smem_write_bytes``): the model fills only
    those its bandwidth floor uses, per idealised full warp;
  - ``dram_read_bytes``: the model charges the Section 5.3 halo
    redundancy in closed form, not each block's unique lines;
  - ``misc``: an engine-side modelling knob, not kernel structure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.concrete import evaluate_data_free
from repro.analysis.lint import predict_counters
from repro.convolution.spec import ConvolutionSpec
from repro.core.performance_model import (
    model_convolution1d,
    model_convolution2d,
    model_scan,
    model_stencil2d,
    model_stencil3d,
)
from repro.gpu.counters import KernelCounters
from repro.gpu.kernel import block_schedule
from repro.kernels.conv1d_ssam import ssam_convolve1d
from repro.kernels.conv2d_ssam import ssam_convolve2d
from repro.kernels.scan_ssam import ssam_scan
from repro.kernels.stencil2d_ssam import ssam_stencil2d
from repro.kernels.stencil3d_ssam import ssam_stencil3d
from repro.stencils.catalog import get_stencil
from repro.trace.replay import capture_traces

#: warp-instruction fields the model must count exactly
EXACT_FIELDS = ("fma", "add", "mul", "shfl", "sync", "gmem_load",
                "smem_load", "smem_store", "smem_broadcast")
#: fields where the model's line-aligned rows give a lower bound
LOWER_BOUND_FIELDS = ("gmem_load_transactions", "gmem_store_transactions")

_RNG = np.random.default_rng(0)
_IMAGE = _RNG.random((160, 192), dtype=np.float32)
_GRID3D = _RNG.random((24, 40, 64), dtype=np.float32)
_TAPS = _RNG.random(7).astype(np.float32)
_SEQUENCE = _RNG.random(4096, dtype=np.float32)

#: kernel -> (replay run, model evaluated at the same size)
CASES = {
    "convolution2d": (
        lambda: ssam_convolve2d(_IMAGE, ConvolutionSpec.gaussian(9),
                                batch_size="replay"),
        lambda: model_convolution2d(ConvolutionSpec.gaussian(9), 192, 160)),
    "stencil2d": (
        lambda: ssam_stencil2d(_IMAGE, get_stencil("2d9pt"),
                               batch_size="replay"),
        lambda: model_stencil2d(get_stencil("2d9pt"), 192, 160)),
    "stencil3d": (
        lambda: ssam_stencil3d(_GRID3D, get_stencil("3d7pt"),
                               batch_size="replay"),
        lambda: model_stencil3d(get_stencil("3d7pt"), 64, 40, 24)),
    "convolution1d": (
        lambda: ssam_convolve1d(_SEQUENCE, _TAPS, batch_size="replay"),
        lambda: model_convolution1d(7, 4096)),
    "scan": (
        lambda: ssam_scan(_SEQUENCE, batch_size="replay"),
        lambda: model_scan(4096)),
}


def exact_counts(run):
    """Static counters of the kernel ``run`` launches, over its full grid."""
    with capture_traces() as capture:
        run()
    (record,) = capture.unique_records()
    blocks = block_schedule(record.config.grid_dim)
    prediction = predict_counters(record.trace,
                                  evaluate_data_free(record.trace, blocks),
                                  blocks.shape[0], record.architecture)
    assert not prediction.unpredicted
    return KernelCounters.from_dict(prediction.counters).as_dict()


@pytest.fixture(scope="module", params=sorted(CASES))
def counts(request):
    run, model = CASES[request.param]
    return exact_counts(run), model().launch.counters.as_dict()


def test_warp_instructions_match_model_exactly(counts):
    exact, model = counts
    mismatched = {field: (exact[field], model[field])
                  for field in EXACT_FIELDS if exact[field] != model[field]}
    assert not mismatched, f"(exact, model) mismatch: {mismatched}"
    assert exact["fma"] + exact["add"] > 0


def test_modelled_transactions_are_a_lower_bound(counts):
    exact, model = counts
    for field in LOWER_BOUND_FIELDS:
        assert 0 < model[field] <= exact[field], field


def test_exact_counts_cover_the_whole_grid(counts):
    exact, model = counts
    assert exact["blocks_executed"] == model["blocks_executed"]
    assert exact["warps_executed"] == model["warps_executed"]
