"""The process-wide parameters of the sampled engine.

:mod:`repro.mem.sampled` estimates from a spatial sample. This module
holds only what a run reads to decide whether to sample at all: the
:class:`SamplingConfig`, its environment variables and the
configure/use helpers. So an exact run under ``auto`` learns that no
rate is set without importing the sampled engine. :mod:`repro.mem.sampled`
re-exports every public name.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Jackknife strata per estimate. Each stratum costs one extra miniature
#: simulation over ~(K-1)/K of the sampled references, so the whole
#: envelope costs about K times the point estimate — still ~K*R of the
#: exact run's work.
DEFAULT_STRATA = 8

#: Hash-space modulus for the inclusion threshold (power of two so the
#: threshold test is a mask-and-compare). rate is quantized to 1/2^24.
_SAMPLE_MODULUS = 1 << 24


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    """Process-wide spatial-sampling parameters.

    *rate* is the target inclusion probability per block (quantized to
    1/2^24 — see :attr:`effective_rate`); *seed* decorrelates the block
    hash between runs; *strata* sets the jackknife replicate count.
    """

    rate: float
    seed: int = 0
    strata: int = DEFAULT_STRATA

    def __post_init__(self) -> None:
        if not (0.0 < self.rate <= 1.0) or math.isnan(self.rate):
            raise ConfigurationError(
                f"sample rate must be in (0, 1], got {self.rate!r}"
            )
        if self.strata < 2:
            raise ConfigurationError(
                f"jackknife needs at least 2 strata, got {self.strata}"
            )

    @property
    def threshold(self) -> int:
        """Inclusion threshold in hash space (at least one slot)."""
        return max(1, round(self.rate * _SAMPLE_MODULUS))

    @property
    def effective_rate(self) -> float:
        """The exact rate implied by the quantized threshold."""
        return self.threshold / _SAMPLE_MODULUS


def _env_seed() -> int:
    raw_seed = os.environ.get("REPRO_SAMPLE_SEED", "0")
    try:
        return int(raw_seed)
    except ValueError as exc:
        raise ConfigurationError(
            f"REPRO_SAMPLE_SEED is not an integer: {raw_seed!r}"
        ) from exc


def _env_sampling() -> SamplingConfig | None:
    """``$REPRO_SAMPLE_RATE``/``$REPRO_SAMPLE_SEED``, or None without a
    rate: a seed alone configures nothing."""
    raw = os.environ.get("REPRO_SAMPLE_RATE")
    if not raw:
        return None
    try:
        rate = float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"REPRO_SAMPLE_RATE is not a number: {raw!r}"
        ) from exc
    return SamplingConfig(rate=rate, seed=_env_seed())


#: Marks the process-wide parameters as not yet read from the
#: environment (``None`` is a read, unconfigured state).
_UNREAD = object()

#: The process-wide parameters; ``_UNREAD`` until first resolved, when
#: ``$REPRO_SAMPLE_RATE``/``$REPRO_SAMPLE_SEED`` are read and validated.
#: Importing this module never fails on a bad value: only a run that
#: resolves sampling does.
_sampling: SamplingConfig | None | object = _UNREAD


def configure_sampling(config: SamplingConfig | None) -> None:
    """Set (or clear, with None) the process-wide sampling parameters."""
    global _sampling
    _sampling = config


def current_sampling() -> SamplingConfig | None:
    """The process-wide sampling parameters, or None when unconfigured."""
    global _sampling
    if _sampling is _UNREAD:
        _sampling = _env_sampling()
    return _sampling


@contextmanager
def use_sampling(config: SamplingConfig | None):
    """Temporarily install sampling parameters; ``None`` is a no-op."""
    global _sampling
    if config is None:
        yield
        return
    previous = _sampling
    configure_sampling(config)
    try:
        yield
    finally:
        _sampling = previous


def may_sample(selection: str) -> bool:
    """Whether a run under engine *selection* can sample at all: always
    under ``sampled``, and under ``auto`` only with a configured rate.
    A False answer needs no import of the sampled engine."""
    return selection == "sampled" or (
        selection == "auto" and current_sampling() is not None
    )
