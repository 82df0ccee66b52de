"""Exponential-family and link-function pairs.

Each supported pair is composed into a ``LinkFamily`` that exposes the map
theta = h(eta) from linear predictor to natural parameter together with its
first two derivatives, all coded analytically. Canonical pairs degenerate to
h(eta) = eta with h' = 1 and h'' = 0 exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DataError, DomainError, UnsupportedPair

_LOG1E12 = math.log(1e12)
_LOG_MU_FLOOR = math.log(1e-12)


def column_sums(a: np.ndarray) -> np.ndarray:
    """Per-column sums of an n x C array, without BLAS.

    Each column is copied into a contiguous row and summed pairwise, so its
    arithmetic depends only on its own n values: duplicated columns get
    bit-equal sums wherever they sit. (A BLAS product rounds by lane
    position, and numpy's axis-0 sum adds row by row, whose rounding noise
    of order n * eps can outgrow a Newton step's gain in log-likelihood.)
    """
    return np.ascontiguousarray(a.T).sum(axis=1)


# ---------------------------------------------------------------------------
# Families: unit-dispersion density exp{theta * y - b(theta)}.
# ---------------------------------------------------------------------------

class Family:
    """Base class for unit-dispersion exponential families."""

    name = ""
    # natural-parameter box used when clamping before likelihood evaluation
    theta_clip = (-np.inf, np.inf)
    mean_domain = (-np.inf, np.inf)

    def b(self, theta):
        raise NotImplementedError

    def b_prime(self, theta):
        """Mean function mu(theta)."""
        raise NotImplementedError

    def b_double_prime(self, theta):
        """Variance function sigma^2(theta)."""
        raise NotImplementedError

    def validate_y(self, y):
        """Raise DataError (with row index) if a response value is not coded
        correctly for this family. Implemented per family."""
        raise NotImplementedError

    def __repr__(self):
        return f"{self.__class__.__name__}()"


class Bernoulli(Family):
    name = "bernoulli"
    # mu limited to [1e-12, 1 - 1e-12]
    theta_clip = (special.logit(1e-12), special.logit(1 - 1e-12))
    mean_domain = (0.0, 1.0)

    def b(self, theta):
        return np.logaddexp(0.0, theta)

    def b_prime(self, theta):
        return special.expit(theta)

    def b_double_prime(self, theta):
        t = np.asarray(theta)
        return special.expit(t) * special.expit(-t)

    def validate_y(self, y):
        bad = np.nonzero((y != 0.0) & (y != 1.0))[0]
        if bad.size:
            i = int(bad[0])
            raise DataError(
                f"Bernoulli response must be 0/1; row {i + 1} has y={y[i]!r}"
            )


class Poisson(Family):
    name = "poisson"
    theta_clip = (-_LOG1E12, _LOG1E12)
    mean_domain = (0.0, np.inf)

    def b(self, theta):
        return np.exp(theta)

    def b_prime(self, theta):
        return np.exp(theta)

    def b_double_prime(self, theta):
        return np.exp(theta)

    def validate_y(self, y):
        bad = np.nonzero(y < 0)[0]
        if bad.size:
            i = int(bad[0])
            raise DataError(
                f"Poisson response must be nonnegative; row {i + 1} has y={y[i]!r}"
            )


class Gamma(Family):
    """Gamma family with shape 1 (the exponential distribution).

    The natural parameter is negative: theta = -1 / mu.
    """

    name = "gamma"
    theta_clip = (-1e12, -1e-12)
    mean_domain = (0.0, np.inf)

    def b(self, theta):
        return -np.log(-np.asarray(theta, dtype=float))

    def b_prime(self, theta):
        return -1.0 / np.asarray(theta, dtype=float)

    def b_double_prime(self, theta):
        t = np.asarray(theta, dtype=float)
        return 1.0 / (t * t)

    def validate_y(self, y):
        bad = np.nonzero(y <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise DataError(
                f"Gamma response must be positive; row {i + 1} has y={y[i]!r}"
            )


# ---------------------------------------------------------------------------
# Links: eta = g(mu), mu = g^{-1}(eta).
# ---------------------------------------------------------------------------

class Link:
    name = ""

    def g(self, mu):
        raise NotImplementedError

    def g_inverse(self, eta):
        raise NotImplementedError

    def __repr__(self):
        return f"{self.__class__.__name__}()"


class Logit(Link):
    name = "logit"

    def g(self, mu):
        return special.logit(mu)

    def g_inverse(self, eta):
        return special.expit(eta)


class Probit(Link):
    name = "probit"

    def g(self, mu):
        return special.ndtri(mu)

    def g_inverse(self, eta):
        return special.ndtr(eta)

    # pieces used by the composite h and its derivatives
    def log_cdf(self, eta):
        return special.log_ndtr(eta)

    def log_sf(self, eta):
        return special.log_ndtr(-np.asarray(eta, dtype=float))

    def log_pdf(self, eta):
        e = np.asarray(eta, dtype=float)
        return -0.5 * e * e - 0.5 * math.log(2.0 * math.pi)

    def dlog_pdf(self, eta):
        return -np.asarray(eta, dtype=float)

    def cdf_minus_sf(self, eta):
        e = np.asarray(eta, dtype=float)
        return special.ndtr(e) - special.ndtr(-e)


class Cauchit(Link):
    name = "cauchit"

    def g(self, mu):
        return np.tan(np.pi * (np.asarray(mu, dtype=float) - 0.5))

    def g_inverse(self, eta):
        return self._cdf(eta)

    @staticmethod
    def _cdf(eta):
        # branch keeps the small tail relative, avoiding 0.5 - arctan cancellation
        e = np.asarray(eta, dtype=float)
        with np.errstate(divide="ignore"):
            tail = np.arctan(-1.0 / np.where(e < 0, e, -1.0)) / np.pi
        return np.where(e < 0, tail, 0.5 + np.arctan(np.maximum(e, 0.0)) / np.pi)

    def log_cdf(self, eta):
        return np.log(self._cdf(eta))

    def log_sf(self, eta):
        return np.log(self._cdf(-np.asarray(eta, dtype=float)))

    def log_pdf(self, eta):
        e = np.asarray(eta, dtype=float)
        return -math.log(math.pi) - np.log1p(e * e)

    def dlog_pdf(self, eta):
        e = np.asarray(eta, dtype=float)
        return -2.0 * e / (1.0 + e * e)

    def cdf_minus_sf(self, eta):
        e = np.asarray(eta, dtype=float)
        return self._cdf(e) - self._cdf(-e)


class Cloglog(Link):
    name = "cloglog"

    def g(self, mu):
        with np.errstate(divide="ignore"):
            return np.log(-np.log1p(-np.asarray(mu, dtype=float)))

    def g_inverse(self, eta):
        with np.errstate(over="ignore"):
            return -np.expm1(-np.exp(np.asarray(eta, dtype=float)))


class Log(Link):
    name = "log"

    def g(self, mu):
        return np.log(mu)

    def g_inverse(self, eta):
        return np.exp(eta)


class Identity(Link):
    name = "identity"

    def g(self, mu):
        return np.asarray(mu, dtype=float)

    def g_inverse(self, eta):
        return np.asarray(eta, dtype=float)


class Arcsin(Link):
    """Angular link for binary means: eta = arcsin(sqrt(mu)), eta in (0, pi/2)."""

    name = "arcsin"

    def g(self, mu):
        return np.arcsin(np.sqrt(np.asarray(mu, dtype=float)))

    def g_inverse(self, eta):
        s = np.sin(np.asarray(eta, dtype=float))
        return s * s


class InversePower(Link):
    """Inverse power link eta = mu^(-k) for nonzero exponent k.

    k = 1 is the reciprocal link; negative k gives the direct power family
    (e.g. k = -2 means eta = mu^2), covering the Poisson power links.
    """

    name = "invpower"

    def __init__(self, exponent: float):
        if exponent == 0:
            raise DomainError("InversePower exponent must be nonzero")
        self.exponent = float(exponent)

    def g(self, mu):
        return np.asarray(mu, dtype=float) ** (-self.exponent)

    def g_inverse(self, eta):
        return np.asarray(eta, dtype=float) ** (-1.0 / self.exponent)

    def __repr__(self):
        return f"InversePower({self.exponent})"


# ---------------------------------------------------------------------------
# Composites theta = h(eta) = (b')^{-1}(g^{-1}(eta)).
# ---------------------------------------------------------------------------

class LinkFamily:
    """Immutable family/link pair with analytic h, h', h''."""

    #: open interval of admissible linear predictors
    eta_domain = (-np.inf, np.inf)
    #: True only for the canonical pairs where h is the identity
    is_canonical = False
    #: True whenever h'' is identically zero (implies H_0 vanishes downstream)
    h_curvature_zero = False

    def __init__(self, family: Family, link: Link):
        self.family = family
        self.link = link

    @property
    def name(self) -> str:
        return f"{self.family.name}-{self.link.name}"

    def h(self, eta):
        raise NotImplementedError

    def h_prime(self, eta):
        raise NotImplementedError

    def h_double_prime(self, eta):
        raise NotImplementedError

    def newton_terms(self, eta):
        """(mu, sigma2, h', h'') at eta; h'' is None when identically zero.

        Subclasses override this to share subexpressions on the fitting hot
        path; results must match the h / h_prime / h_double_prime route.
        """
        th = self.h(eta)
        mu = self.family.b_prime(th)
        sigma2 = self.family.b_double_prime(th)
        hpp = None if self.h_curvature_zero else self.h_double_prime(eta)
        return mu, sigma2, self.h_prime(eta), hpp

    def log_lik(self, eta, y):
        """sum_i [y_i theta_i - b(theta_i)] with the family's theta clamp.

        ``eta`` must already be inside the admissible domain. A 1-D ``eta``
        gives a float; an n x C array of C linear predictors gives one value
        per column, summed by ``column_sums``.
        """
        th = self.h(eta)
        lo, hi = self.family.theta_clip
        th = np.minimum(hi, np.maximum(lo, th))
        if th.ndim == 1:
            return float(y @ th - self.family.b(th).sum())
        return column_sums(y[:, None] * th) - column_sums(self.family.b(th))

    def validate_eta(self, eta) -> None:
        lo, hi = self.eta_domain
        e = np.asarray(eta, dtype=float)
        if not np.all((e > lo) & (e < hi)):
            raise DomainError(
                f"eta outside admissible range ({lo}, {hi}) for {self.name}"
            )

    def clip_eta(self, eta):
        """Clamp eta into the interior of the admissible range, 1e-10 inside
        each finite end."""
        lo, hi = self.eta_domain
        if lo == -np.inf and hi == np.inf:
            return np.asarray(eta, dtype=float)
        lo = lo + 1e-10 if lo > -np.inf else lo
        hi = hi - 1e-10 if hi < np.inf else hi
        return np.clip(eta, lo, hi)

    def __repr__(self):
        return f"LinkFamily({self.family!r}, {self.link!r})"


class _CanonicalLF(LinkFamily):
    is_canonical = True
    h_curvature_zero = True

    def h(self, eta):
        return np.asarray(eta, dtype=float)

    def h_prime(self, eta):
        return np.ones_like(np.asarray(eta, dtype=float))

    def h_double_prime(self, eta):
        return np.zeros_like(np.asarray(eta, dtype=float))


class _BinaryCdfLF(LinkFamily):
    """Bernoulli with a smooth CDF link G: h = logit(G(eta)).

    Uses log-CDF / log-survival forms so both tails stay accurate:
        h   = log G - log(1 - G)
        h'  = exp(log g - log G - log(1 - G))        (g = G')
        h'' = h' * (g'/g + h' * (G - (1 - G)))
    """

    def h(self, eta):
        return self.link.log_cdf(eta) - self.link.log_sf(eta)

    def h_prime(self, eta):
        return np.exp(
            self.link.log_pdf(eta) - self.link.log_cdf(eta) - self.link.log_sf(eta)
        )

    def h_double_prime(self, eta):
        hp = self.h_prime(eta)
        return hp * (self.link.dlog_pdf(eta) + hp * self.link.cdf_minus_sf(eta))

    def newton_terms(self, eta):
        lcdf = self.link.log_cdf(eta)
        lsf = self.link.log_sf(eta)
        mu = np.exp(lcdf)
        sigma2 = np.exp(lcdf + lsf)  # mu * (1 - mu)
        hp = np.exp(self.link.log_pdf(eta) - lcdf - lsf)
        hpp = hp * (self.link.dlog_pdf(eta) + hp * (mu - np.exp(lsf)))
        return mu, sigma2, hp, hpp

    def log_lik(self, eta, y):
        # y log G + (1 - y) log(1 - G), clamped at log(1e-12) on both sides
        floor = _LOG_MU_FLOOR
        lcdf = np.maximum(self.link.log_cdf(eta), floor)
        lsf = np.maximum(self.link.log_sf(eta), floor)
        if lsf.ndim == 1:
            return float(y @ (lcdf - lsf) + lsf.sum())
        return column_sums(y[:, None] * (lcdf - lsf)) + column_sums(lsf)


class _BernoulliCloglogLF(LinkFamily):
    """Bernoulli + cloglog: h(eta) = log(exp(exp(eta)) - 1).

    Everything routes through u = exp(eta) and a = 1 - exp(-u), for which
        h = u + log(a),  h' = u / a,  h'' = u (a - u (1 - a)) / a^2,
        mu = a,          sigma^2 = a (1 - a).
    These forms stay accurate from the u -> 0 tail up to u ~ 1e300; the
    h'' difference needs its series u/2 only below u = 1e-8.
    """

    @staticmethod
    def _u_a(eta):
        u = np.exp(np.asarray(eta, dtype=float))
        return u, -np.expm1(-u)

    def h(self, eta):
        with np.errstate(over="ignore", divide="ignore"):
            u, a = self._u_a(eta)
            return u + np.log(a)

    def h_prime(self, eta):
        with np.errstate(over="ignore", invalid="ignore"):
            u, a = self._u_a(eta)
            return np.where(u == 0.0, 1.0, u / np.where(u == 0.0, 1.0, a))

    def h_double_prime(self, eta):
        with np.errstate(over="ignore", invalid="ignore"):
            u, a = self._u_a(eta)
            return self._hpp(u, a, np.exp(-u))

    @staticmethod
    def _hpp(u, a, emu):
        tiny = u < 1e-8
        safe_a = np.where(tiny, 1.0, a)
        direct = u * (a - u * emu) / (safe_a * safe_a)
        return np.where(tiny, 0.5 * u, direct)

    def newton_terms(self, eta):
        # runs under the fitter's errstate blanket
        u, a = self._u_a(eta)
        emu = np.exp(-u)  # exact 1 - mu, keeps the upper tail of sigma^2
        safe = np.where(a == 0.0, 1.0, a)
        hp = np.where(u == 0.0, 1.0, u / safe)
        return a, a * emu, hp, self._hpp(u, a, emu)

    def log_lik(self, eta, y):
        # y log mu + (1 - y) log(1 - mu) with log(1 - mu) = -u exactly
        u, a = self._u_a(eta)
        log_mu = np.maximum(np.log(a), _LOG_MU_FLOOR)
        log_1m = np.maximum(-u, _LOG_MU_FLOOR)
        if u.ndim == 1:
            return float(y @ log_mu - y @ log_1m + log_1m.sum())
        yc = y[:, None]
        return (column_sums(yc * log_mu) - column_sums(yc * log_1m)
                + column_sums(log_1m))


class _BernoulliIdentityLF(LinkFamily):
    eta_domain = (0.0, 1.0)

    def h(self, eta):
        return special.logit(eta)

    def h_prime(self, eta):
        e = np.asarray(eta, dtype=float)
        return 1.0 / (e * (1.0 - e))

    def h_double_prime(self, eta):
        e = np.asarray(eta, dtype=float)
        d = e * (1.0 - e)
        return (2.0 * e - 1.0) / (d * d)


class _BernoulliArcsinLF(LinkFamily):
    eta_domain = (0.0, np.pi / 2.0)

    def h(self, eta):
        return 2.0 * np.log(np.tan(np.asarray(eta, dtype=float)))

    def h_prime(self, eta):
        return 4.0 / np.sin(2.0 * np.asarray(eta, dtype=float))

    def h_double_prime(self, eta):
        s = np.sin(2.0 * np.asarray(eta, dtype=float))
        return -8.0 * np.cos(2.0 * np.asarray(eta, dtype=float)) / (s * s)


class _GammaLogLF(LinkFamily):
    def h(self, eta):
        return -np.exp(-np.asarray(eta, dtype=float))

    def h_prime(self, eta):
        return np.exp(-np.asarray(eta, dtype=float))

    def h_double_prime(self, eta):
        return -np.exp(-np.asarray(eta, dtype=float))


class _PoissonPowerLF(LinkFamily):
    eta_domain = (0.0, np.inf)

    def h(self, eta):
        k = self.link.exponent
        return -np.log(np.asarray(eta, dtype=float)) / k

    def h_prime(self, eta):
        k = self.link.exponent
        return -1.0 / (k * np.asarray(eta, dtype=float))

    def h_double_prime(self, eta):
        k = self.link.exponent
        e = np.asarray(eta, dtype=float)
        return 1.0 / (k * e * e)


class _GammaPowerLF(LinkFamily):
    eta_domain = (0.0, np.inf)

    def __init__(self, family, link):
        super().__init__(family, link)
        self._r = 1.0 / link.exponent
        self.h_curvature_zero = self._r == 1.0

    def h(self, eta):
        return -(np.asarray(eta, dtype=float) ** self._r)

    def h_prime(self, eta):
        r = self._r
        return -r * np.asarray(eta, dtype=float) ** (r - 1.0)

    def h_double_prime(self, eta):
        r = self._r
        if self.h_curvature_zero:
            return np.zeros_like(np.asarray(eta, dtype=float))
        return -r * (r - 1.0) * np.asarray(eta, dtype=float) ** (r - 2.0)


_COMPOSITES = {
    ("bernoulli", "logit"): _CanonicalLF,
    ("bernoulli", "probit"): _BinaryCdfLF,
    ("bernoulli", "cauchit"): _BinaryCdfLF,
    ("bernoulli", "cloglog"): _BernoulliCloglogLF,
    ("bernoulli", "identity"): _BernoulliIdentityLF,
    ("bernoulli", "arcsin"): _BernoulliArcsinLF,
    ("poisson", "log"): _CanonicalLF,
    ("poisson", "invpower"): _PoissonPowerLF,
    ("gamma", "log"): _GammaLogLF,
    ("gamma", "invpower"): _GammaPowerLF,
}


def compose_link_family(family: Family, link: Link) -> LinkFamily:
    """Return the LinkFamily for a supported pair, or raise UnsupportedPair."""
    cls = _COMPOSITES.get((family.name, link.name))
    if cls is None:
        raise UnsupportedPair(
            f"no composite coded for family '{family.name}' with link '{link.name}'"
        )
    return cls(family, link)


def eval_mean(lf: LinkFamily, eta) -> np.ndarray:
    """Mean mu = b'(h(eta)); raises DomainError for inadmissible eta."""
    lf.validate_eta(eta)
    return lf.family.b_prime(lf.h(eta))


# ---------------------------------------------------------------------------
# Name parsing (CLI / config surface).
# ---------------------------------------------------------------------------

_FAMILY_NAMES = {"bernoulli": Bernoulli, "poisson": Poisson, "gamma": Gamma}

_SIMPLE_LINKS = {
    "logit": Logit,
    "probit": Probit,
    "cauchit": Cauchit,
    "cloglog": Cloglog,
    "log": Log,
    "identity": Identity,
    "arcsin": Arcsin,
}

#: single-link shorthand: the family each bare link name implies on the CLI
DEFAULT_FAMILY_FOR_LINK = {
    "logit": "bernoulli",
    "probit": "bernoulli",
    "cauchit": "bernoulli",
    "cloglog": "bernoulli",
    "identity": "bernoulli",
    "arcsin": "bernoulli",
    "log": "poisson",
    "invpower": "gamma",
}


def parse_family(name: str) -> Family:
    cls = _FAMILY_NAMES.get(name.strip().lower())
    if cls is None:
        raise UnsupportedPair(f"unknown family '{name}'")
    return cls()


def parse_link(name: str) -> Link:
    key = name.strip().lower()
    if key.startswith("invpower:"):
        try:
            return InversePower(float(key.split(":", 1)[1]))
        except ValueError:
            raise UnsupportedPair(f"bad inverse-power exponent in '{name}'") from None
    cls = _SIMPLE_LINKS.get(key)
    if cls is None:
        raise UnsupportedPair(f"unknown link '{name}'")
    return cls()


def parse_link_family(link_name: str, family_name: str | None = None) -> LinkFamily:
    """Build a LinkFamily from lowercase names, defaulting the family."""
    link = parse_link(link_name)
    if family_name is None:
        family_name = DEFAULT_FAMILY_FOR_LINK[link.name]
    return compose_link_family(parse_family(family_name), link)
