"""Design diversity: N-version redundancy vs. common-mode flaws (paper §3.2.2).

"The Boeing 777 ... signals are controlled by a redundant system
consisting of three computers ... based on different hardware and
software developed by independent vendors.  If these three computers
share the same design, a design flaw would make all the computers fail
at the same time."

Model: a channel fails either *independently* (its own hardware fault)
or through a *design flaw* shared by every channel built from the same
design.  A design-diverse triplex only shares flaws within a design, so
the common-mode term shrinks from p_design to p_design^(number of
independent designs reaching consensus).

A subtlety worth knowing: diversity is guaranteed to help only when
design flaws dominate independent faults.  Under a 2-of-3 quorum with
*high* independent failure rates, the identical triplex's perfectly
correlated failures lose quorum less often than three independent
coin flips — decorrelating failures is not free.  The paper's Boeing
argument lives in the flaw-dominated regime, where diversity wins by
orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._arrays import sorted_distinct
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng

__all__ = ["RedundantComputer", "system_failure_probability",
           "simulate_failures"]


@dataclass(frozen=True)
class RedundantComputer:
    """An N-channel voting computer with a design assignment per channel.

    ``designs[i]`` labels the design channel i is built from; channels of
    the same design fail together when that design's flaw is triggered.
    ``quorum`` is how many channels must work (2-of-3 voting by default).
    """

    designs: tuple[int, ...]
    p_independent: float
    p_design_flaw: float
    quorum: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        if len(self.designs) < 1:
            raise ConfigurationError("need at least one channel")
        if not 0.0 <= self.p_independent <= 1.0:
            raise ConfigurationError(
                f"p_independent must be in [0, 1], got {self.p_independent}"
            )
        if not 0.0 <= self.p_design_flaw <= 1.0:
            raise ConfigurationError(
                f"p_design_flaw must be in [0, 1], got {self.p_design_flaw}"
            )
        if not 1 <= self.quorum <= len(self.designs):
            raise ConfigurationError(
                f"quorum must be in [1, {len(self.designs)}], got {self.quorum}"
            )

    @classmethod
    def identical_triplex(cls, p_independent: float,
                          p_design_flaw: float) -> "RedundantComputer":
        """Three channels sharing one design (the flawed architecture)."""
        return cls((0, 0, 0), p_independent, p_design_flaw)

    @classmethod
    def diverse_triplex(cls, p_independent: float,
                        p_design_flaw: float) -> "RedundantComputer":
        """The Boeing-777 shape: three independently designed channels."""
        return cls((0, 1, 2), p_independent, p_design_flaw)

    @property
    def n_channels(self) -> int:
        """Number of voting channels."""
        return len(self.designs)


def simulate_failures(
    computer: RedundantComputer, trials: int = 100_000, seed: SeedLike = None
) -> float:
    """Monte-Carlo probability that fewer than ``quorum`` channels work.

    Per trial each distinct design's flaw triggers with p_design_flaw
    (failing all its channels) and each channel additionally fails
    independently with p_independent.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rng = make_rng(seed)
    designs = np.asarray(computer.designs)
    unique = sorted_distinct(designs)
    failures = 0
    for _ in range(trials):
        flawed = {
            int(d) for d in unique if rng.random() < computer.p_design_flaw
        }
        working = 0
        for d in designs:
            if int(d) in flawed:
                continue
            if rng.random() < computer.p_independent:
                continue
            working += 1
        if working < computer.quorum:
            failures += 1
    return failures / trials


def system_failure_probability(computer: RedundantComputer) -> float:
    """Exact system-failure probability by enumerating design-flaw patterns.

    Sums over the 2^D flaw patterns of the distinct designs, then the
    binomial survival of the remaining channels.
    """
    from itertools import product as iproduct

    from scipy.stats import binom

    designs = list(computer.designs)
    unique = sorted(set(designs))
    pd = computer.p_design_flaw
    pi = computer.p_independent
    total = 0.0
    for pattern in iproduct([False, True], repeat=len(unique)):
        flawed = {d for d, bad in zip(unique, pattern) if bad}
        p_pattern = 1.0
        for bad in pattern:
            p_pattern *= pd if bad else (1.0 - pd)
        healthy_channels = sum(1 for d in designs if d not in flawed)
        # fail when working channels < quorum
        need = computer.quorum
        if healthy_channels < need:
            p_fail = 1.0
        else:
            # working ~ Binomial(healthy, 1 - pi); fail if working < need
            p_fail = float(binom.cdf(need - 1, healthy_channels, 1.0 - pi))
        total += p_pattern * p_fail
    return total
