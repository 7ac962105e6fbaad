"""Seeded random source for measurement noise and the simulated serial bus.

A SplitMix64 stream feeds a rational inverse-normal-CDF approximation
(max relative error ~1.15e-9, Acklam's coefficients), so a given seed
produces the same byte-identical telemetry everywhere: no dependence on
numpy's generator internals, and the only libm call is log() in the tails.
``normals`` draws a block of the same Gaussians in numpy, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Acklam's inverse normal CDF: for _P_LOW <= p <= _P_HIGH a ratio of
# polynomials in r = (p - 0.5)^2, in each tail one in
# q = sqrt(-2 log(min(p, 1 - p))). Both use only + - * /, which numpy rounds
# as Python does, so each runs on a float or elementwise on a float64 array.
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def _central(q):
    """The central ratio at q = p - 0.5."""
    r = q * q
    return ((((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r
                - 2.759285104469687e+02) * r + 1.383577518672690e+02) * r
              - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q
            / (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r
                  - 1.556989798598866e+02) * r + 6.680131188771972e+01) * r
                - 1.328068155288572e+01) * r + 1.0))


def _tail(q):
    """The lower tail's ratio at q = sqrt(-2 log p); the upper tail's is its negation."""
    return ((((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
              + 4.374664141464968e+00) * q + 2.938163982698783e+00)
            / ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
                 + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0))


class DeterministicRng:
    """SplitMix64-backed stream with uniform and Gaussian draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def _next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in (0, 1), never exactly 0 or 1."""
        return ((self._next_u64() >> 11) + 0.5) * 2.0 ** -53

    def normal(self, sigma: float = 1.0) -> float:
        """Zero-mean Gaussian with standard deviation ``sigma``.

        The inverse normal CDF of one ``random()`` draw, scaled by ``sigma``.
        """
        p = self.random()
        if p < _P_LOW:
            return _tail(math.sqrt(-2.0 * math.log(p))) * sigma
        if p > _P_HIGH:
            return -_tail(math.sqrt(-2.0 * math.log(1.0 - p))) * sigma
        return _central(p - 0.5) * sigma

    def normals(self, n: int) -> np.ndarray:
        """n standard Gaussians: bit for bit n calls of ``normal(1.0)``, same state after.

        The SplitMix64 steps run elementwise over uint64 arrays and
        ``_central`` over float64 ones. The draws that land in a tail, about
        5 %, are finished with scalar ``math.log``, whose results ``np.log``
        does not always match.
        """
        if n < 0:
            raise DomainError(f"n must be >= 0, got {n}")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = steps * np.uint64(_GOLDEN) + np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        p = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        out = _central(p - 0.5)
        tails = np.flatnonzero((p < _P_LOW) | (p > _P_HIGH))
        for i, p_tail in zip(tails.tolist(), p[tails].tolist()):
            low = p_tail < _P_LOW
            x = _tail(math.sqrt(-2.0 * math.log(p_tail if low else 1.0 - p_tail)))
            out[i] = x if low else -x
        return out

    def spawn(self, key: int) -> "DeterministicRng":
        """Independent child stream; same (seed, key) always gives the same child."""
        child = DeterministicRng((self._state ^ (int(key) & _MASK64)) * 0x2545F4914F6CDD1D & _MASK64)
        child._next_u64()
        return child
