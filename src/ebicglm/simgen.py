"""Generators for the three simulation designs.

Dimensions follow the divergent pattern (n, pn, p0n) =
(n, floor(40 exp(n^0.2)), floor(5 n^0.1)). Covariates come in four blocks
(settings 1 and 2) or a normal block plus constructed correlated columns
(setting 3); responses are binary through the complementary log-log inverse
link. Randomness is counter-based (Philox keyed by seed and replicate id) so
replicates generate identically in any order or process layout.

``numpy.random`` is imported with this module: numpy loads it lazily, and
each pool worker forked before its first use would import it on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (see the module docstring)

from .errors import InvalidArgs, InvalidDesign, InvalidRho
from .glm import Dataset

SETTINGS = ("S1", "S2", "S3")

# largest design matrix n * pn a design may ask for: a replicate holds its
# n x pn float64 matrix in memory, and each worker process holds one, so this
# keeps that matrix within 512 MiB; the paper's largest design (n = 500,
# pn = 1279) has 639,500 cells
MAX_DESIGN_CELLS = 2**26


@dataclass(frozen=True)
class SimDesign:
    setting: str
    n: int
    pn: int
    p0n: int
    rho: float
    L: int
    q: int

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise InvalidArgs(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if not (0.0 <= self.rho < 1.0):
            raise InvalidRho(f"rho must be in [0, 1), got {self.rho}")
        if self.setting == "S3" and self.rho != 0.0:
            # setting 3's covariates have no equicorrelated block
            raise InvalidRho(f"setting 3 has no rho: it must be 0, got {self.rho}")
        if self.setting in ("S1", "S2"):
            if self.q >= self.pn // 3:
                raise InvalidDesign(
                    f"block layout needs q < pn/3, got q={self.q}, pn={self.pn}"
                )
        else:
            if self.L * self.p0n > self.pn - self.q:
                raise InvalidDesign(
                    f"setting 3 needs L*p0n <= pn - q, got L*p0n={self.L * self.p0n}, "
                    f"pn - q={self.pn - self.q}"
                )
        if self.L * self.p0n > self.pn:
            raise InvalidDesign("true support does not fit inside pn columns")
        if self.n * self.pn > MAX_DESIGN_CELLS:
            raise InvalidDesign(
                f"n * pn = {self.n * self.pn} cells exceeds the limit of {MAX_DESIGN_CELLS}"
            )

    @property
    def support(self) -> tuple:
        """The true support {L*t : t = 1..p0n}, as 0-based column indices."""
        return tuple(self.L * t - 1 for t in range(1, self.p0n + 1))


@dataclass(frozen=True)
class TrueModel:
    """Support {L*t : t = 1..p0n} (0-based internally) with the 1 / 1.3 pattern."""

    support: tuple
    beta: np.ndarray

    @classmethod
    def from_design(cls, design: SimDesign) -> "TrueModel":
        beta = np.zeros(design.pn)
        for t, j in enumerate(design.support, start=1):
            beta[j] = 1.0 if t % 2 == 1 else 1.3
        beta.setflags(write=False)
        return cls(support=design.support, beta=beta)


@dataclass(frozen=True)
class SimReplicate:
    dataset: Dataset
    true_model: TrueModel
    seed: int
    replicate_id: int


def divergent_pattern(n: int) -> tuple:
    """(pn, p0n) = (floor(40 e^(n^0.2)), floor(5 n^0.1))."""
    if n < 2:
        raise InvalidArgs(f"n must be >= 2, got {n}")
    if n > MAX_DESIGN_CELLS:
        # pn >= 40, so n * pn is over the limit anyway; refused here before
        # exp(n^0.2) can overflow
        raise InvalidDesign(f"n = {n} exceeds the design limit of {MAX_DESIGN_CELLS} cells")
    pn = int(math.floor(40.0 * math.exp(n ** 0.2)))
    p0n = int(math.floor(5.0 * n ** 0.1))
    return pn, p0n


def design_for(setting, n: int, rho: float = 0.0) -> SimDesign:
    """Build the paper pattern design for a setting given n and rho."""
    key = str(setting).upper()
    if key in ("1", "2", "3"):
        key = "S" + key
    pn, p0n = divergent_pattern(n)
    if key == "S1":
        return SimDesign("S1", n, pn, p0n, rho, L=10, q=15)
    if key == "S2":
        return SimDesign("S2", n, pn, p0n, rho, L=5, q=15)
    if key == "S3":
        return SimDesign("S3", n, pn, p0n, rho, L=10, q=50)
    raise InvalidArgs(f"unknown setting {setting!r}")


def _rng_for(seed: int, replicate_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(replicate_id)])
    return np.random.Generator(np.random.Philox(key=key))


def _laplace_inverse_cdf(u: np.ndarray) -> np.ndarray:
    # location 0, scale 1 (variance 2); u in [0, 1)
    u = np.maximum(u, 1e-300)
    return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * np.maximum(1.0 - u, 1e-300)))


def _blocks_s12(design: SimDesign, rng: np.random.Generator) -> np.ndarray:
    n, pn, q, rho = design.n, design.pn, design.q, design.rho
    b1 = pn // 3
    b2 = (2 * pn) // 3
    X = np.empty((n, pn))
    # equicorrelated block: sqrt(rho) W + sqrt(1 - rho) Z is exactly N(0, Sigma_rho)
    w = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, q))
    X[:, :q] = math.sqrt(rho) * w + math.sqrt(1.0 - rho) * z
    X[:, q:b1] = rng.standard_normal((n, b1 - q))
    X[:, b1:b2] = _laplace_inverse_cdf(rng.random((n, b2 - b1)))
    m = pn - b2
    pick = rng.random((n, m)) < 0.5
    z4 = rng.standard_normal((n, m))
    # the N(1, .) mixture component has variance 0.5
    X[:, b2:] = np.where(pick, -1.0 + z4, 1.0 + math.sqrt(0.5) * z4)
    return X


def _blocks_s3(design: SimDesign, rng: np.random.Generator) -> np.ndarray:
    n, pn, q, p0n = design.n, design.pn, design.q, design.p0n
    if 25 - p0n < 0:
        raise InvalidDesign(f"setting 3 construction needs p0n <= 25, got {p0n}")
    X = np.empty((n, pn))
    X[:, : pn - q] = rng.standard_normal((n, pn - q))
    signs = np.array([1.0 if t % 2 == 1 else -1.0 for t in range(1, p0n + 1)])
    common = X[:, list(design.support)] @ signs
    xi = rng.standard_normal((n, q))
    X[:, pn - q :] = (common[:, None] + math.sqrt(25.0 - p0n) * xi) / 5.0
    return X


def cloglog_response(eta, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws with P(y=1) = 1 - exp(-exp(eta))."""
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise InvalidArgs("eta must be finite")
    with np.errstate(over="ignore"):
        prob = -np.expm1(-np.exp(eta))
    return (rng.random(eta.shape) < prob).astype(float)


def generate_replicate(design: SimDesign, seed: int, replicate_id: int = 0) -> SimReplicate:
    """One dataset drawn under the design; identical (seed, id) means an
    identical replicate regardless of process or call order."""
    rng = _rng_for(seed, replicate_id)
    if design.setting in ("S1", "S2"):
        X = _blocks_s12(design, rng)
    else:
        X = _blocks_s3(design, rng)
    truth = TrueModel.from_design(design)
    eta = X @ truth.beta
    y = cloglog_response(eta, rng)
    return SimReplicate(
        dataset=Dataset(y, X),
        true_model=truth,
        seed=int(seed),
        replicate_id=int(replicate_id),
    )
