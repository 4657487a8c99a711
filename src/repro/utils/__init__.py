"""Small shared utilities: deterministic RNG streams and stats."""

from repro.utils.rng import SeedSequence, derive_seed
from repro.utils.stats import mean, percentile, summarize

__all__ = ["SeedSequence", "derive_seed", "mean", "percentile", "summarize"]
