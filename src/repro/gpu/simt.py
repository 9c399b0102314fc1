"""SIMT predication helpers and warp-divergence accounting.

The overlapped blocking scheme of Section 4.5 exists precisely to avoid
warp divergence; these helpers let kernels and tests measure how divergent a
given predicate actually is, so the "no branching" property of the SSAM
kernels can be asserted rather than assumed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def grouped_warp_counts(lane_mask: np.ndarray, warp_size: int = 32) -> Tuple[int, int]:
    """``(active_warps, divergent_warps)`` for a batch of blocks at once.

    ``lane_mask`` has the lane axis last (e.g. shape ``(blocks, threads)``)
    and its last axis must be a multiple of the warp size; the counts are
    summed over every warp of every leading index.  A warp is active when
    at least one of its lanes is, and divergent when its lanes disagree.
    """
    mask = np.asarray(lane_mask, dtype=bool)
    if mask.size == 0:
        return 0, 0
    grouped = mask.reshape(-1, warp_size)
    any_arr = grouped.any(axis=1)
    all_arr = grouped.all(axis=1)
    return int(any_arr.sum()), int((any_arr & ~all_arr).sum())
