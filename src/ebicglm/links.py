"""Exponential-family and link-function pairs.

Each supported pair is composed into a ``LinkFamily`` that states the map
theta = h(eta) from linear predictor to natural parameter and one
``newton_terms``, which gives the mean, the variance and the first two
derivatives h' and h'', all coded analytically. The fitter, ``score``,
``hessian_parts`` and the diagnostics all read h' and h'' from it. Canonical
pairs degenerate to h(eta) = eta with h' = 1 and h'' = 0 exactly.

``log_lik`` and ``newton_terms`` start from the same link quantities at eta
(theta itself, or cloglog's exp(eta), or a CDF link's log-CDF and
log-survival). ``log_lik(..., keep_state=True)`` hands them over, so the
fitter evaluates the link once at each accepted eta.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DataError, DomainError, UnsupportedPair

_LOG1E12 = math.log(1e12)
_LOG_MU_FLOOR = math.log(1e-12)


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

    def mean_and_variance(self, theta):
        """(b'(theta), b''(theta)), the mean and variance functions: each
        family's one statement of both, so that they can share work."""
        raise NotImplementedError

    def b_prime(self, theta):
        """Mean function mu(theta)."""
        return self.mean_and_variance(theta)[0]

    def b_double_prime(self, theta):
        """Variance function sigma^2(theta)."""
        return self.mean_and_variance(theta)[1]

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

    def mean_and_variance(self, theta):
        t = np.asarray(theta)
        mu = special.expit(t)
        return mu, mu * special.expit(-t)

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

    def mean_and_variance(self, theta):
        mu = np.exp(theta)
        return mu, mu

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

    def mean_and_variance(self, theta):
        t = np.asarray(theta, dtype=float)
        return -1.0 / t, 1.0 / (t * t)

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

    Each pair states h and ``_terms``, its Newton terms computed from its
    link quantities at eta (``_state``: theta = h(eta) unless the pair has
    better ones). ``_terms`` is the only place its h' and h'' are written;
    every pair shares ``newton_terms`` and ``log_lik``, and ``h_prime`` and
    ``h_double_prime`` read ``newton_terms``.
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

    def _state(self, eta):
        """The link quantities at eta that ``log_lik`` and ``newton_terms``
        both start from, as a tuple of arrays shaped like eta: (h(eta),)
        unless the pair has better ones."""
        return (self.h(eta),)

    def _terms(self, eta, state):
        """``newton_terms`` at eta from the pair's ``_state`` there."""
        raise NotImplementedError

    def newton_terms(self, eta, state=None):
        """(mu, sigma2, h', h'') at eta; h'' is None when identically zero.

        ``state`` is what ``log_lik(eta, y, keep_state=True)`` returned at
        this same eta; the terms are then bit-equal to those computed
        without it, and the link is not evaluated again.
        """
        return self._terms(eta, self._state(eta) if state is None else state)

    def _terms_from_h(self, th, hp, hpp):
        """(b'(th), b''(th), hp, hpp) at th = h(eta): ``_terms`` for the
        pairs whose mean and variance come straight from the family."""
        return (*self.family.mean_and_variance(th), hp, hpp)

    def h_prime(self, eta):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self.newton_terms(eta)[2]

    def h_double_prime(self, eta):
        """h'' at eta, zeros where it is identically zero."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _, _, hp, hpp = self.newton_terms(eta)
        return np.zeros_like(hp) if hpp is None else hpp

    def log_lik(self, eta, y, keep_state=False):
        """sum_i [y_i theta_i - b(theta_i)] with the family's theta clamp.

        ``eta`` must already be inside the admissible domain. A C x n array
        of C linear predictors gives one value per row, each summed over its
        own n values alone (pairwise, for contiguous rows), so equal rows get
        bit-equal values wherever they sit. A 1-D ``eta`` is summed as one
        such row and gives a float. With ``keep_state`` the result is
        (value, state), and state lets ``newton_terms`` at the same eta skip
        the link.
        """
        state = self._state(eta)
        value = self._log_lik(y, state)
        if value.ndim == 0:
            value = float(value)
        return (value, state) if keep_state else value

    def _log_lik(self, y, state):
        lo, hi = self.family.theta_clip
        th = np.minimum(hi, np.maximum(lo, state[0]))
        return (y * th).sum(axis=-1) - self.family.b(th).sum(axis=-1)

    def clip_eta(self, eta):
        """Clamp eta into the interior of the admissible range, 1e-10 inside
        each finite end."""
        lo, hi = self.eta_domain
        if lo == -np.inf and hi == np.inf:
            return np.asarray(eta, dtype=float)
        return np.clip(eta, lo + 1e-10, hi - 1e-10)

    def __repr__(self):
        return f"LinkFamily({self.family!r}, {self.link!r})"


class _CanonicalLF(LinkFamily):
    is_canonical = True
    h_curvature_zero = True

    def h(self, eta):
        return np.asarray(eta, dtype=float)

    def _terms(self, eta, state):
        th = state[0]
        return self._terms_from_h(th, np.ones_like(th), None)


class _BinaryCdfLF(LinkFamily):
    """Bernoulli with a smooth CDF link G: h = logit(G(eta)).

    Uses log-CDF / log-survival forms so both tails stay accurate:
        h   = log G - log(1 - G)
        h'  = exp(log g - log G - log(1 - G))        (g = G')
        h'' = h' * (g'/g + h' * (G - (1 - G)))
    """

    def h(self, eta):
        return self.link.log_cdf(eta) - self.link.log_sf(eta)

    def _state(self, eta):
        return self.link.log_cdf(eta), self.link.log_sf(eta)

    def _terms(self, eta, state):
        lcdf, lsf = state
        mu = np.exp(lcdf)
        sigma2 = np.exp(lcdf + lsf)  # mu * (1 - mu)
        hp = np.exp(self.link.log_pdf(eta) - lcdf - lsf)
        hpp = hp * (self.link.dlog_pdf(eta) + hp * (mu - np.exp(lsf)))
        return mu, sigma2, hp, hpp

    def _log_lik(self, y, state):
        # y log G + (1 - y) log(1 - G), clamped at log(1e-12) on both sides
        floor = _LOG_MU_FLOOR
        lcdf = np.maximum(state[0], floor)
        lsf = np.maximum(state[1], floor)
        return (y * (lcdf - lsf)).sum(axis=-1) + lsf.sum(axis=-1)


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

    def _state(self, eta):
        u = np.exp(np.asarray(eta, dtype=float))
        return u, -np.expm1(-u)

    def h(self, eta):
        with np.errstate(over="ignore", divide="ignore"):
            u, a = self._state(eta)
            return u + np.log(a)

    def _terms(self, eta, state):
        u, a = state
        emu = np.exp(-u)  # exact 1 - mu, keeps the upper tail of sigma^2
        with np.errstate(divide="ignore", invalid="ignore"):
            hp = np.asarray(u / a)
            hpp = np.asarray(u * (a - u * emu) / (a * a))
        # below u = 1e-8 the h'' formula cancels, so take its series u / 2
        # there, and h' = 1 where u (and so a) underflowed to 0
        tiny = u < 1e-8
        if tiny.any():
            hp[u == 0.0] = 1.0
            hpp[tiny] = 0.5 * u[tiny]
        return a, a * emu, hp, hpp

    def _log_lik(self, y, state):
        # y log mu + (1 - y) log(1 - mu) with log(1 - mu) = -u exactly
        u, a = state
        log_mu = np.maximum(np.log(a), _LOG_MU_FLOOR)
        log_1m = np.maximum(-u, _LOG_MU_FLOOR)
        return ((y * log_mu).sum(axis=-1) - (y * log_1m).sum(axis=-1)
                + log_1m.sum(axis=-1))


class _BernoulliIdentityLF(LinkFamily):
    eta_domain = (0.0, 1.0)

    def h(self, eta):
        return special.logit(eta)

    def _terms(self, eta, state):
        e = np.asarray(eta, dtype=float)
        d = e * (1.0 - e)
        return self._terms_from_h(state[0], 1.0 / d, (2.0 * e - 1.0) / (d * d))


class _BernoulliArcsinLF(LinkFamily):
    eta_domain = (0.0, np.pi / 2.0)

    def h(self, eta):
        return 2.0 * np.log(np.tan(np.asarray(eta, dtype=float)))

    def _terms(self, eta, state):
        e2 = 2.0 * np.asarray(eta, dtype=float)
        s = np.sin(e2)
        return self._terms_from_h(state[0], 4.0 / s, -8.0 * np.cos(e2) / (s * s))


class _GammaLogLF(LinkFamily):
    def h(self, eta):
        return -np.exp(-np.asarray(eta, dtype=float))

    def _terms(self, eta, state):
        th = state[0]  # -exp(-eta), so h' = exp(-eta) = -th and h'' = th
        return self._terms_from_h(th, -th, th)


class _PoissonPowerLF(LinkFamily):
    eta_domain = (0.0, np.inf)

    def h(self, eta):
        k = self.link.exponent
        return -np.log(np.asarray(eta, dtype=float)) / k

    def _terms(self, eta, state):
        k = self.link.exponent
        e = np.asarray(eta, dtype=float)
        return self._terms_from_h(state[0], -1.0 / (k * e), 1.0 / (k * e * e))


class _GammaPowerLF(LinkFamily):
    eta_domain = (0.0, np.inf)

    def __init__(self, family, link):
        super().__init__(family, link)
        self._r = 1.0 / link.exponent
        self.h_curvature_zero = self._r == 1.0

    def h(self, eta):
        return -(np.asarray(eta, dtype=float) ** self._r)

    def _terms(self, eta, state):
        r = self._r
        e = np.asarray(eta, dtype=float)
        hpp = None if self.h_curvature_zero else -r * (r - 1.0) * e ** (r - 2.0)
        return self._terms_from_h(state[0], -r * e ** (r - 1.0), hpp)


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
    lo, hi = lf.eta_domain
    e = np.asarray(eta, dtype=float)
    if not np.all((e > lo) & (e < hi)):
        raise DomainError(f"eta outside admissible range ({lo}, {hi}) for {lf.name}")
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
