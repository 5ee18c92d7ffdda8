"""Binomial Options: CRR American-option pricing (Table I row 2).

Iteratively prices a portfolio of American stock options on a
Cox-Ross-Rubinstein binomial lattice [Podlozhnyuk 2007].  Vectorized
across the portfolio: the time-step recursion runs once while every
option's lattice column updates simultaneously — the NumPy analogue of
the CUDA option-per-block kernel.

QoI: the computed price per option.  Metric: RMSE (Table I).
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_options", "price_american", "PARAM_NAMES"]

#: Column layout of an options matrix: spot, strike, expiry (years),
#: risk-free rate, volatility.
PARAM_NAMES = ("S", "K", "T", "r", "sigma")


def generate_options(n_options: int, seed: int = 0,
                     call: bool = True) -> np.ndarray:
    """Synthesize a portfolio with realistic parameter ranges.

    Stands in for the paper's 16M-option dataset (README.md §
    Substitutions): spot 5-30, strike 1-100, expiry 0.25-10y, rate
    2-10 %, vol 10-60 % — the classic ranges of the CUDA SDK sample
    this benchmark derives from.
    """
    rng = np.random.default_rng(seed)
    s = rng.uniform(5.0, 30.0, n_options)
    k = rng.uniform(1.0, 100.0, n_options)
    t = rng.uniform(0.25, 10.0, n_options)
    r = rng.uniform(0.02, 0.10, n_options)
    sigma = rng.uniform(0.10, 0.60, n_options)
    return np.stack([s, k, t, r, sigma], axis=1)


def price_american(options: np.ndarray, n_steps: int = 256,
                   call: bool = True) -> np.ndarray:
    """Price American options on an ``n_steps`` CRR lattice.

    ``options`` has shape ``(N, 5)`` per :data:`PARAM_NAMES`.  Returns
    prices of shape ``(N,)``.  Backward induction compares continuation
    and immediate-exercise value at every lattice node — the "multiple
    time points before expiration" structure Table I describes.
    """
    options = np.asarray(options, dtype=np.float64)
    s, k, t, r, sigma = (options[:, i] for i in range(5))
    dt = t / n_steps                                   # (N,)
    u = np.exp(sigma * np.sqrt(dt))
    d = 1.0 / u
    disc = np.exp(-r * dt)
    p = (np.exp(r * dt) - d) / (u - d)
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p

    # Terminal prices at every lattice node: S * u^j * d^(n-j).
    j = np.arange(n_steps + 1)                         # (M,)
    log_ud = np.log(u)[:, None] * j + np.log(d)[:, None] * (n_steps - j)
    asset = s[:, None] * np.exp(log_ud)                # (N, M)
    if call:
        values = np.maximum(asset - k[:, None], 0.0)
    else:
        values = np.maximum(k[:, None] - asset, 0.0)

    for step in range(n_steps - 1, -1, -1):
        cont = disc[:, None] * (p[:, None] * values[:, 1:step + 2]
                                + q[:, None] * values[:, 0:step + 1])
        log_ud = np.log(u)[:, None] * j[:step + 1] \
            + np.log(d)[:, None] * (step - j[:step + 1])
        asset = s[:, None] * np.exp(log_ud)
        if call:
            exercise = np.maximum(asset - k[:, None], 0.0)
        else:
            exercise = np.maximum(k[:, None] - asset, 0.0)
        values[:, 0:step + 1] = np.maximum(cont, exercise)
    return values[:, 0].copy()
