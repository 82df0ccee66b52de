"""Extended BIC scoring, the four-point gamma grid, and gamma presets.

EBIC_gamma(s) = -2 loglik + |s| ln n + 2 gamma ln C(p, |s|), gamma >= 0.
The intercept is always fitted but never counted in |s| or in the prior
penalty, so penalties stay comparable across models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .errors import InvalidArgs
from .glm import FitResult, ModelIndex


def log_choose(p: int, k: int) -> float:
    """ln C(p, k) via log-gamma."""
    if k < 0 or p < 0 or k > p:
        raise InvalidArgs(f"log_choose needs 0 <= k <= p, got p={p}, k={k}")
    if k == 0 or k == p:
        return 0.0
    return float(gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1))


@dataclass(frozen=True)
class ModelScore:
    model: ModelIndex
    log_lik: float
    size_penalty: float
    prior_penalty: float
    ebic: float
    gamma: float


def _check_gamma(gamma: float) -> float:
    """``gamma`` itself, if EBIC is defined for it: finite and >= 0."""
    if not math.isfinite(gamma) or gamma < 0:
        raise InvalidArgs(f"gamma must be finite and >= 0, got {gamma}")
    return gamma


def ebic_penalties(n: int, p: int, size: int, gamma: float) -> tuple:
    """EBIC_gamma's penalties (|s| ln n, 2 gamma ln C(p, |s|)) at |s| = size."""
    return size * math.log(n), 2.0 * gamma * log_choose(p, size)


def ebic_score(fit: FitResult, model: ModelIndex, n: int, p: int, gamma: float) -> ModelScore:
    _check_gamma(gamma)
    size_pen, prior_pen = ebic_penalties(n, p, model.size, gamma)
    return ModelScore(
        model=model,
        log_lik=fit.log_lik,
        size_penalty=size_pen,
        prior_penalty=prior_pen,
        ebic=-2.0 * fit.log_lik + size_pen + prior_pen,
        gamma=gamma,
    )


@dataclass(frozen=True)
class GammaGrid:
    """The four comparison points plus the consistency boundary.

    gamma2 sits halfway between 0 and the boundary 1 - ln n / (2 ln p);
    gamma3 halfway between the boundary and 1.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    boundary: float

    def values(self):
        return (self.gamma1, self.gamma2, self.gamma3, self.gamma4)


def gamma_grid(n: int, p: int) -> GammaGrid:
    if p <= 1 or n <= 1:
        raise InvalidArgs(f"gamma_grid needs n > 1 and p > 1, got n={n}, p={p}")
    r = math.log(n) / (2.0 * math.log(p))
    return GammaGrid(
        gamma1=0.0,
        gamma2=max(0.0, 0.5 * (1.0 - r)),
        gamma3=max(0.0, 1.0 - 0.5 * r),
        gamma4=1.0,
        boundary=max(0.0, 1.0 - r),
    )


def paper_final_gamma(n: int, p: int) -> float:
    """The real-data preset 1 - ln n / (3 ln p), slightly above the boundary."""
    if p <= 1 or n <= 1:
        raise InvalidArgs(f"needs n > 1 and p > 1, got n={n}, p={p}")
    return max(0.0, 1.0 - math.log(n) / (3.0 * math.log(p)))


# each preset's value for (n, p)
_PRESET_VALUES = {
    "bic": lambda n, p: 0.0,
    "gamma1": lambda n, p: 0.0,
    "gamma2": lambda n, p: gamma_grid(n, p).gamma2,
    "gamma3": lambda n, p: gamma_grid(n, p).gamma3,
    "gamma4": lambda n, p: 1.0,
    "mbic": lambda n, p: 1.0,
    "paper-final": paper_final_gamma,
    "boundary": lambda n, p: gamma_grid(n, p).boundary,
}
GAMMA_PRESETS = tuple(_PRESET_VALUES)


def resolve_gamma(spec, n: int, p: int) -> float:
    """Map a CLI gamma spec (number or preset name) to a value for (n, p)."""
    if isinstance(spec, (int, float)):
        return _check_gamma(float(spec))
    name = str(spec).strip().lower()
    if name in _PRESET_VALUES:
        return _PRESET_VALUES[name](n, p)
    try:
        value = float(name)
    except ValueError:
        raise InvalidArgs(
            f"unknown gamma spec {spec!r}; use a number or one of {GAMMA_PRESETS}"
        ) from None
    return _check_gamma(value)
