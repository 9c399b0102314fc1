#!/usr/bin/env python
"""3-D heat diffusion with the SSAM 7-point stencil (Section 4.9).

Runs several Jacobi iterations of the 3-D diffusion stencil on a grid with a
hot cube in the centre, validates against the CPU reference, and reports the
throughput the same configuration would reach at the paper's 512^3 scale.
"""

import numpy as np

from repro.kernels.stencil3d_ssam import analytic_launch, launch_geometry, ssam_stencil3d
from repro.stencils.catalog import get_benchmark
from repro.workloads import hotspot_grid


def main() -> None:
    benchmark = get_benchmark("3d7pt")
    spec = benchmark.spec
    iterations = 4

    grid = hotspot_grid(48, 40, depth=24, peak=100.0)
    result = ssam_stencil3d(grid, spec, iterations=iterations, architecture="p100")
    reference = spec.reference(grid, iterations=iterations)
    print(f"grid {grid.shape}, {iterations} Jacobi iterations of {spec.name}")
    print(f"max |error| vs reference     : {np.max(np.abs(result.output - reference)):.2e}")
    print(f"centre temperature (t0 -> tN): {grid[12, 20, 24]:.1f} -> {result.output[12, 20, 24]:.2f}")
    print(f"estimated kernel time        : {result.milliseconds:.3f} ms "
          f"({result.launch.timing.bottleneck}-bound)")

    # paper-scale projection (512^3, one iteration) on both GPUs
    for arch in ("p100", "v100"):
        projected = analytic_launch(launch_geometry(spec, 512, 512, 512, arch), 1)
        gcells = projected.gcells_per_second(benchmark.cells, 1)
        print(f"projected 512^3 throughput on {arch.upper():5s}: {gcells:6.1f} GCells/s")


if __name__ == "__main__":
    main()
