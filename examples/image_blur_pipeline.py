#!/usr/bin/env python
"""Image-processing pipeline: compare SSAM against the library baselines.

Applies a sharpening filter and a large Gaussian blur to an image and
compares the SSAM kernel with the NPP-like, ArrayFire-like and cuFFT-like
baselines — the Figure 4 experiment at a workstation-friendly size, with
functional outputs cross-checked against each other.

The second half runs the two-pass Gaussian blur *pipeline* both ways:
as the conventional chain of two kernel launches (the intermediate image
round-tripping through DRAM) and as one fused launch on the trace-replay
engine, where producer blocks stay a halo ahead of consumer blocks and
the intermediate never leaves the cache hierarchy.  The outputs are
bit-identical; only the DRAM traffic differs.
"""

import numpy as np

from repro import ConvolutionSpec
from repro.baselines import cufft_like_convolve2d, direct
from repro.kernels.conv2d_ssam import ssam_convolve2d, ssam_convolve2d_chain
from repro.workloads import gradient_image


def run_filter(name: str, spec: ConvolutionSpec, image: np.ndarray) -> None:
    print(f"\n--- {name} ({spec.filter_width}x{spec.filter_height}) ---")
    reference = spec.reference(image)
    implementations = {
        "ssam": ssam_convolve2d(image, spec, "p100"),
        "npp_like": direct.run(direct.BASELINES["conv2d-npp"], image, spec,
                               architecture="p100"),
        "arrayfire_like": direct.run(direct.BASELINES["conv2d-arrayfire"], image,
                                     spec, architecture="p100"),
        "cufft_like": cufft_like_convolve2d(image, spec, "p100"),
    }
    for label, result in implementations.items():
        error = float(np.max(np.abs(result.output - reference))) if result.output is not None else float("nan")
        interior_note = " (interior only)" if label == "cufft_like" else ""
        print(f"{label:15s} estimated {result.milliseconds:8.3f} ms   "
              f"max|err|={error:.2e}{interior_note}")


def run_blur_pipeline(spec: ConvolutionSpec, image: np.ndarray) -> None:
    print(f"\n--- two-pass blur pipeline ({spec.filter_width}x{spec.filter_height}, applied twice) ---")
    chain = ssam_convolve2d_chain(image, spec, passes=2, fused=False)
    fused = ssam_convolve2d_chain(image, spec, passes=2, fused=True)
    np.testing.assert_array_equal(fused.output, chain.output)
    for label, result in (("chained (2 launches)", chain),
                          ("fused (1 launch)", fused)):
        counters = result.launch.counters
        dram = counters.dram_read_bytes + counters.dram_write_bytes
        print(f"{label:22s} dram={dram / 1024:10.1f} KiB   "
              f"(read {counters.dram_read_bytes / 1024:.1f}, "
              f"write {counters.dram_write_bytes / 1024:.1f})")
    saved = (chain.launch.counters.dram_write_bytes
             - fused.launch.counters.dram_write_bytes)
    print(f"fusion keeps the intermediate on chip: "
          f"{saved / 1024:.1f} KiB of DRAM writes eliminated, "
          f"outputs bit-identical")


def main() -> None:
    image = gradient_image(384, 256) + 0.05 * np.random.default_rng(0).standard_normal((256, 384)).astype(np.float32)
    run_filter("sharpen", ConvolutionSpec.sharpen(), image)
    run_filter("gaussian blur", ConvolutionSpec.gaussian(9), image)
    run_blur_pipeline(ConvolutionSpec.gaussian(9), image)


if __name__ == "__main__":
    main()
