"""Seeded input generators for the benchmark workloads.

Both generators live here, not in the package, so a change to
``ebicglm.simgen`` can change neither the inputs nor the set-up time. The
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# distinct stream keys keep the two generators independent for one seed
_GOLUB_STREAM = 0x601
_S1_STREAM = 0x51


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Generated:
    y: np.ndarray
    X: np.ndarray
    support: tuple  # 0-based informative columns


def golub_like(seed: int, n: int = 72, p: int = 7129, n_pos: int = 25,
               n_informative: int = 36) -> Generated:
    """A Golub-shaped binary dataset: n_pos of n rows in class 1.

    Columns are standardised-scale "expression" values with per-column
    location and log-normal spread. The informative columns shift with the
    class by 0.8-2 within-class SDs and share two latent programmes, so a few
    of them nearly separate the classes, as in the leukemia data.
    """
    rng = _rng(seed, _GOLUB_STREAM)
    y = np.zeros(n)
    y[rng.permutation(n)[:n_pos]] = 1.0
    loc = rng.normal(0.0, 1.0, p)
    scale = np.exp(rng.normal(0.0, 0.3, p))
    Z = rng.standard_normal((n, p))
    support = np.sort(rng.choice(p, size=n_informative, replace=False))
    factors = rng.standard_normal((n, 2))
    loading = rng.integers(0, 2, n_informative)
    delta = rng.uniform(0.8, 2.0, n_informative) * rng.choice([-1.0, 1.0], n_informative)
    centred = y - y.mean()
    Z[:, support] = (
        0.8 * Z[:, support]
        + 0.6 * factors[:, loading]
        + delta * centred[:, None]
    )
    X = loc + scale * Z
    return Generated(y=y, X=X, support=tuple(int(j) for j in support))


def _laplace(u: np.ndarray) -> np.ndarray:
    u = np.maximum(u, 1e-300)
    return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * np.maximum(1.0 - u, 1e-300)))


def s1_replicate(seed: int, n: int = 500, replicate: int = 0) -> Generated:
    """Setting 1 with rho = 0: four covariate blocks and a cloglog response.

    Dimensions follow the divergent pattern pn = floor(40 exp(n^0.2)),
    p0n = floor(5 n^0.1); the support is every tenth column with
    coefficients alternating 1 and 1.3, and there is no intercept. Each
    ``replicate`` of one seed is an independent draw.
    """
    rng = _rng(seed, _S1_STREAM | (replicate << 32))
    pn = int(math.floor(40.0 * math.exp(n ** 0.2)))
    p0n = int(math.floor(5.0 * n ** 0.1))
    b1, b2 = pn // 3, (2 * pn) // 3
    X = np.empty((n, pn))
    X[:, :b1] = rng.standard_normal((n, b1))
    X[:, b1:b2] = _laplace(rng.random((n, b2 - b1)))
    m = pn - b2
    pick = rng.random((n, m)) < 0.5
    z = rng.standard_normal((n, m))
    X[:, b2:] = np.where(pick, -1.0 + z, 1.0 + math.sqrt(0.5) * z)
    support = tuple(10 * t - 1 for t in range(1, p0n + 1))
    beta = np.zeros(pn)
    for t, j in enumerate(support, start=1):
        beta[j] = 1.0 if t % 2 == 1 else 1.3
    prob = -np.expm1(-np.exp(X @ beta))
    y = (rng.random(n) < prob).astype(float)
    return Generated(y=y, X=X, support=support)


def write_csv(path, gen: Generated) -> int:
    """Write ``y,x1..xp`` with round-trip float text; returns the byte count."""
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(gen.X.shape[1])])
    rows = np.column_stack([gen.y, gen.X])
    body = "\n".join(",".join(map(repr, row)) for row in rows.tolist())
    text = header + "\n" + body + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)
