"""Page size generation (§4.1).

Sizes follow the log-normal model of Barford & Crovella (SIGMETRICS
1998) with the parameters the paper quotes in footnote 1:

    p(x) = 1 / (x·σ·√(2π)) · exp(−(ln x − µ)² / 2σ²),
    µ = 9.357, σ = 1.318

giving a median of ~11.6 KB and a mean of ~27.5 KB per page.  Sizes
are clipped to configurable bounds to keep the far tail from producing
pages larger than a whole cache at small scales.
"""

from __future__ import annotations

import numpy as np

from repro.workload.config import WorkloadConfig


def generate_sizes(config: WorkloadConfig, rng: np.random.Generator) -> np.ndarray:
    """Sizes (bytes, int64) for every distinct page."""
    raw = rng.lognormal(
        mean=config.size_mu, sigma=config.size_sigma, size=config.distinct_pages
    )
    clipped = np.clip(raw, config.min_page_size, config.max_page_size)
    return np.maximum(1, np.rint(clipped)).astype(np.int64)
