"""Continuous-time replicator dynamics.

The paper states the discrete replicator equation (§3.2.4); its
continuous limit

    dx_i/dt = x_i (f_i(x) − φ(x)),   φ(x) = Σ_j x_j f_j(x)

over population *shares* x is the standard evolutionary-dynamics form.
Provided for cross-checking the discrete implementation (small steps of
the discrete map converge to the flow) and for payoff-matrix games,
where fitness is frequency-dependent: f = A x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = ["ContinuousReplicator", "ReplicatorFlow"]

FitnessFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ReplicatorFlow:
    """An integrated share trajectory."""

    times: np.ndarray  # (T,)
    shares: np.ndarray  # (T, N), rows on the simplex

    @property
    def final(self) -> np.ndarray:
        """Shares at the last integration time."""
        return self.shares[-1]

    def dominant_share(self) -> np.ndarray:
        """Largest share at each sample."""
        return self.shares.max(axis=1)


class ContinuousReplicator:
    """dx/dt = x ∘ (f(x) − x·f(x)) on the probability simplex.

    ``fitness`` maps shares to per-type fitness; pass a constant vector
    for the paper's fixed-fitness case or ``lambda x: A @ x`` for a
    matrix game.
    """

    def __init__(self, fitness: FitnessFn | np.ndarray, n_types: int):
        if n_types < 1:
            raise ConfigurationError(f"n_types must be >= 1, got {n_types}")
        if isinstance(fitness, np.ndarray) or isinstance(fitness, (list, tuple)):
            vector = np.asarray(fitness, dtype=float)
            if vector.shape != (n_types,):
                raise ConfigurationError(
                    f"constant fitness must have shape ({n_types},)"
                )
            self._fitness: FitnessFn = lambda x: vector
        else:
            self._fitness = fitness
        self.n_types = n_types

    def _rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.clip(x, 0.0, None)
        f = np.asarray(self._fitness(x), dtype=float)
        if f.shape != (self.n_types,):
            raise ConfigurationError(
                f"fitness returned shape {f.shape}, expected ({self.n_types},)"
            )
        mean = float(x @ f)
        return x * (f - mean)

    def integrate(
        self,
        initial_shares: np.ndarray | list[float],
        t_end: float,
        n_samples: int = 200,
    ) -> ReplicatorFlow:
        """Integrate from ``initial_shares`` (must lie on the simplex)."""
        x0 = np.asarray(initial_shares, dtype=float)
        if x0.shape != (self.n_types,):
            raise ConfigurationError(
                f"initial shares must have shape ({self.n_types},)"
            )
        if np.any(x0 < 0) or abs(x0.sum() - 1.0) > 1e-9:
            raise ConfigurationError(
                "initial shares must be non-negative and sum to 1"
            )
        if t_end <= 0:
            raise ConfigurationError(f"t_end must be > 0, got {t_end}")
        if n_samples < 2:
            raise ConfigurationError(
                f"n_samples must be >= 2, got {n_samples}"
            )
        from scipy.integrate import solve_ivp

        times = np.linspace(0.0, t_end, n_samples)
        solution = solve_ivp(
            self._rhs, (0.0, t_end), x0, t_eval=times,
            rtol=1e-8, atol=1e-10, method="RK45",
        )
        if not solution.success:  # pragma: no cover - solver failure
            raise ConfigurationError(
                f"integration failed: {solution.message}"
            )
        shares = solution.y.T
        # renormalize tiny drift off the simplex
        shares = np.clip(shares, 0.0, None)
        shares = shares / shares.sum(axis=1, keepdims=True)
        return ReplicatorFlow(times=times, shares=shares)
