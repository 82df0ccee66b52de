"""Exponential-family and link-function pairs.

Each supported pair is composed into a ``LinkFamily`` that states the map
theta = h(eta) from linear predictor to natural parameter and one
``newton_terms``, which gives the mean, the variance and the first two
derivatives h' and h'', all coded analytically. The fitter, ``score``,
``hessian_parts`` and the diagnostics all read h' and h'' from it. Canonical
pairs degenerate to h(eta) = eta with h' = 1 and h'' = 0 exactly.
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

    def saturated_log_lik(self, y):
        """sup over theta of sum_i [y_i theta_i - b(theta_i)]: no fit's
        ``log_lik`` on y exceeds it."""
        raise NotImplementedError

    #: what every response value must be, for the message of ``validate_y``
    y_rule = ""

    def y_invalid(self, y):
        """Mask of the response values this family cannot model."""
        raise NotImplementedError

    def validate_y(self, y):
        """Raise DataError naming the first row whose response is not coded
        correctly for this family."""
        bad = np.nonzero(self.y_invalid(y))[0]
        if bad.size:
            i = int(bad[0])
            raise DataError(
                f"{self.__class__.__name__} response {self.y_rule}; "
                f"row {i + 1} has y={float(y[i])}"
            )

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

    def saturated_log_lik(self, y):
        return 0.0

    y_rule = "must be 0/1"

    def y_invalid(self, y):
        return (y != 0.0) & (y != 1.0)


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

    def saturated_log_lik(self, y):
        return float(np.sum(special.xlogy(y, y) - y))

    y_rule = "must be nonnegative"

    def y_invalid(self, y):
        return y < 0


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

    def saturated_log_lik(self, y):
        return float(np.sum(-1.0 - np.log(y)))

    y_rule = "must be positive"

    def y_invalid(self, y):
        return y <= 0


# ---------------------------------------------------------------------------
# Links: eta = g(mu), mu = g^{-1}(eta).
# ---------------------------------------------------------------------------

class Link:
    name = ""
    #: the family a bare link name implies on the CLI
    default_family = "bernoulli"

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
    default_family = "poisson"

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
    default_family = "gamma"

    def __init__(self, exponent: float):
        if exponent == 0:
            raise DomainError("InversePower exponent must be nonzero")
        if not math.isfinite(exponent):
            raise DomainError(f"InversePower exponent must be finite, got {exponent}")
        # 2^-|k| == 1.0 exactly when mu^(-k) rounds to 1.0 at both mu = 1/2
        # and mu = 2, so the link cannot tell any two means apart
        if 2.0 ** -abs(exponent) == 1.0:
            raise DomainError(
                f"InversePower exponent {exponent} is too close to 0: mu^(-k) "
                "cannot tell mu = 1/2 from mu = 2 in double precision"
            )
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
    """Immutable family/link pair with analytic h, h', h''.

    Each pair states h and one ``newton_terms``; that is the only place its
    h' and h'' are written, and ``h_prime``/``h_double_prime`` read them
    from it.
    """

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

    def newton_terms(self, eta):
        """(mu, sigma2, h', h'') at eta; h'' is None when identically zero."""
        raise NotImplementedError

    def _terms_from_h(self, eta, hp, hpp):
        """(b'(h(eta)), b''(h(eta)), hp, hpp): ``newton_terms`` for the pairs
        whose mean and variance come straight from the family."""
        th = self.h(eta)
        return self.family.b_prime(th), self.family.b_double_prime(th), hp, hpp

    def h_prime(self, eta):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self.newton_terms(eta)[2]

    def h_double_prime(self, eta):
        """h'' at eta, zeros where it is identically zero."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _, _, hp, hpp = self.newton_terms(eta)
        return np.zeros_like(hp) if hpp is None else hpp

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

    def newton_terms(self, eta):
        return self._terms_from_h(eta, np.ones_like(np.asarray(eta, dtype=float)), None)


class _BinaryCdfLF(LinkFamily):
    """Bernoulli with a smooth CDF link G: h = logit(G(eta)).

    Uses log-CDF / log-survival forms so both tails stay accurate:
        h   = log G - log(1 - G)
        h'  = exp(log g - log G - log(1 - G))        (g = G')
        h'' = h' * (g'/g + h' * (G - (1 - G)))
    """

    def h(self, eta):
        return self.link.log_cdf(eta) - self.link.log_sf(eta)

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
    h'' difference needs its series u/2 only below u = 1e-8. Overflow of u
    is expected: callers run ``newton_terms`` under an errstate that
    ignores it.
    """

    @staticmethod
    def _u_a(eta):
        u = np.exp(np.asarray(eta, dtype=float))
        return u, -np.expm1(-u)

    def h(self, eta):
        with np.errstate(over="ignore", divide="ignore"):
            u, a = self._u_a(eta)
            return u + np.log(a)

    def newton_terms(self, eta):
        u, a = self._u_a(eta)
        emu = np.exp(-u)  # exact 1 - mu, keeps the upper tail of sigma^2
        safe = np.where(a == 0.0, 1.0, a)
        hp = np.where(u == 0.0, 1.0, u / safe)
        tiny = u < 1e-8
        safe_a = np.where(tiny, 1.0, a)
        hpp = np.where(tiny, 0.5 * u, u * (a - u * emu) / (safe_a * safe_a))
        return a, a * emu, hp, hpp

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

    def newton_terms(self, eta):
        e = np.asarray(eta, dtype=float)
        d = e * (1.0 - e)
        return self._terms_from_h(e, 1.0 / d, (2.0 * e - 1.0) / (d * d))


class _BernoulliArcsinLF(LinkFamily):
    eta_domain = (0.0, np.pi / 2.0)

    def h(self, eta):
        return 2.0 * np.log(np.tan(np.asarray(eta, dtype=float)))

    def newton_terms(self, eta):
        e2 = 2.0 * np.asarray(eta, dtype=float)
        s = np.sin(e2)
        return self._terms_from_h(eta, 4.0 / s, -8.0 * np.cos(e2) / (s * s))


class _GammaLogLF(LinkFamily):
    def h(self, eta):
        return -np.exp(-np.asarray(eta, dtype=float))

    def newton_terms(self, eta):
        w = np.exp(-np.asarray(eta, dtype=float))
        return self._terms_from_h(eta, w, -w)


class _PoissonPowerLF(LinkFamily):
    eta_domain = (0.0, np.inf)

    def h(self, eta):
        k = self.link.exponent
        return -np.log(np.asarray(eta, dtype=float)) / k

    def newton_terms(self, eta):
        k = self.link.exponent
        e = np.asarray(eta, dtype=float)
        return self._terms_from_h(e, -1.0 / (k * e), 1.0 / (k * e * e))


class _GammaPowerLF(LinkFamily):
    eta_domain = (0.0, np.inf)

    def __init__(self, family, link):
        super().__init__(family, link)
        self._r = 1.0 / link.exponent
        self.h_curvature_zero = self._r == 1.0

    def h(self, eta):
        return -(np.asarray(eta, dtype=float) ** self._r)

    def newton_terms(self, eta):
        r = self._r
        e = np.asarray(eta, dtype=float)
        hpp = None if self.h_curvature_zero else -r * (r - 1.0) * e ** (r - 2.0)
        return self._terms_from_h(e, -r * e ** (r - 1.0), hpp)


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
    cls.name: cls for cls in (Logit, Probit, Cauchit, Cloglog, Log, Identity, Arcsin)
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
        family_name = link.default_family
    return compose_link_family(parse_family(family_name), link)
