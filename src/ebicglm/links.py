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

SciPy is loaded when the probit link is built: ``Probit()`` imports
``scipy.special``, which its normal CDF and logarithms call. Links are built
in the parent before any pool forks, so pool workers inherit SciPy rather
than each import it on their own. A process that builds no probit link never
imports SciPy to fit, screen, select or score.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DataError, DomainError, UnsupportedPair

_LOG1E12 = math.log(1e12)
_LOG_MU_FLOOR = math.log(1e-12)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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
    # mu limited to [1e-12, 1 - 1e-12]: scipy.special.logit at both ends
    theta_clip = (-27.63102111592755, 27.63104323789236)
    mean_domain = (0.0, 1.0)

    def b(self, theta):
        return np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta)))

    def mean_and_variance(self, theta):
        # with e = exp(-|t|) and r = 1 / (1 + e): mu = r where t >= 0 and
        # e r elsewhere, sigma^2 = e r r. exp(min(t, 0)) is e where t < 0 and
        # 1 elsewhere, so mu needs no select, which costs more than the exp.
        t = np.asarray(theta, dtype=float)
        e = np.exp(-np.abs(t))
        r = 1.0 / (1.0 + e)
        return r * np.exp(np.minimum(t, 0.0)), e * r * r

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
        # y log y - y, with 0 log 0 = 0
        return float(np.sum(y * np.log(np.where(y > 0, y, 1.0)) - y))

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
        # log(mu / (1 - mu)) loses its relative accuracy near mu = 1/2, and
        # so does log(mu) - log1p(-mu); there log1p((2 mu - 1) / (1 - mu))
        # keeps it, as 2 mu - 1 is exact
        m = np.asarray(mu, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((m < 0.3) | (m > 0.65), np.log(m / (1.0 - m)),
                            np.log1p((2.0 * m - 1.0) / (1.0 - m)))

    def g_inverse(self, eta):
        return Bernoulli().b_prime(eta)


class Probit(Link):
    name = "probit"

    def __init__(self):
        # loaded here, in the process that builds the link, so that pool
        # workers forked later inherit it
        import scipy.special  # noqa: F401

    def g(self, mu):
        from scipy import special

        return special.ndtri(mu)

    def g_inverse(self, eta):
        from scipy import special

        return special.ndtr(eta)

    # pieces used by the composite h and its derivatives
    def log_tail(self, eta):
        from scipy import special

        return special.log_ndtr(-np.abs(eta))

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
        # 1/2 + arctan(eta) / pi, as the angle of (-eta, 1): no cancellation
        # in the lower tail
        return np.arctan2(1.0, -np.asarray(eta, dtype=float)) / np.pi

    def log_tail(self, eta):
        return np.log(self.g_inverse(-np.abs(eta)))

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
    better ones). ``_terms`` is the only place its h' and h'' are written,
    and ``newton_terms`` is the only way to read them; every pair shares
    ``newton_terms`` and ``log_lik``.
    """

    #: open interval of admissible linear predictors
    eta_domain = (-np.inf, np.inf)

    #: for the pairs that state ``dual_floor``: (hi, lo), the kernel's
    #: log-likelihood of a y = 0 observation is flat for eta above hi (the mu
    #: floor or the theta clip) and that of a y = 1 observation below lo;
    #: None for the other pairs
    flat_eta = None

    def dual_floor(self, u, y):
        """Each row's sum over the observations of a lower bound on
        phi_i(u_i) = inf_eta [u_i eta - l_i(eta)], the concave conjugate of
        the per-observation log-likelihood l_i, after clipping the C x n
        array u into phi's domain in place. Only the pairs with a
        ``flat_eta`` state it: the Bernoulli pairs whose l_i is concave."""
        raise NotImplementedError

    def dual_clip(self, u, y):
        """Clip the C x n array u in place into the domain where
        ``dual_floor`` is finite, as that method does first."""
        raise NotImplementedError

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
    def h(self, eta):
        return np.asarray(eta, dtype=float)

    def _terms(self, eta, state):
        th = state[0]
        # h' = 1, as a read-only view: no C x n array to allocate and fill
        return self._terms_from_h(th, np.broadcast_to(1.0, th.shape), None)


class _BernoulliLogitLF(_CanonicalLF):
    """Bernoulli + logit: l_i(eta) = y eta - log(1 + e^eta), whose conjugate
    is the binary entropy phi_i(u) = H(y - u) on y - 1 <= u <= y."""

    flat_eta = (Bernoulli.theta_clip[1], Bernoulli.theta_clip[0])

    def dual_clip(self, u, y):
        # v = y - u kept inside (0, 1), where H is finite; np.maximum then
        # np.minimum gives np.clip's bits at less cost
        np.maximum(u, y - (1.0 - _EPS), out=u)
        np.minimum(u, y - _EPS, out=u)

    def dual_floor(self, u, y):
        # log of the complement 1 - v costs less than log1p(-v), which
        # numpy may run through scalar libm; it rounds by at most eps per
        # cell, far inside the bound's margin
        self.dual_clip(u, y)
        v = y - u
        log = np.log(v)
        floor = _row_dot(v, log)
        np.subtract(1.0, v, out=v)
        np.log(v, out=log)
        floor += _row_dot(v, log)
        return -floor


class _BinaryCdfLF(LinkFamily):
    """Bernoulli with a smooth CDF link G: h = logit(G(eta)).

    G is symmetric, G(-e) = 1 - G(e), so the link states only its smaller
    tail, ``log_tail(eta)`` = log G(-|eta|). The other side is
    log1p(-exp(tail)), accurate since exp(tail) <= 1/2. Log-CDF and
    log-survival forms keep both tails accurate:
        h   = log G - log(1 - G)
        h'  = exp(log g - log G - log(1 - G))        (g = G')
        h'' = h' * (g'/g + h' * (G - (1 - G)))
    """

    def h(self, eta):
        lcdf, lsf = self._state(eta)
        return lcdf - lsf

    def _state(self, eta):
        e = np.asarray(eta, dtype=float)
        tail = self.link.log_tail(e)
        body = np.log1p(-np.exp(tail))
        lower = e < 0
        return np.where(lower, tail, body), np.where(lower, body, tail)

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

    # a y = 1 observation is on the mu floor below eta = log(-log1p(-1e-12)),
    # a y = 0 one on the 1 - mu floor above eta = log(-log 1e-12)
    flat_eta = (math.log(-_LOG_MU_FLOOR), math.log(-math.log1p(-1e-12)))

    def dual_clip(self, u, y):
        # y = 0: u kept below 0, where phi is finite; y = 1: u in [0, 1]
        one = y == 1.0
        np.minimum(u, np.where(one, 1.0, -_TINY), out=u)
        np.maximum(u, np.where(one, 0.0, -np.inf), out=u)

    def dual_floor(self, u, y):
        # y = 0: l = -e^eta, so phi(u) = u log(-u) - u; y = 1: phi is read
        # off the chord table
        self.dual_clip(u, y)
        one = y == 1.0
        u0, u1 = u[:, ~one], u[:, one]
        log = np.negative(u0)
        np.log(log, out=log)
        log -= 1.0
        return _row_dot(u0, log) + _cloglog_chords(u1) @ np.ones(u1.shape[1])

    def _log_lik(self, y, state):
        # y log mu + (1 - y) log(1 - mu) with log(1 - mu) = -u exactly
        u, a = state
        log_mu = np.maximum(np.log(a), _LOG_MU_FLOOR)
        log_1m = np.maximum(-u, _LOG_MU_FLOOR)
        return ((y * log_mu).sum(axis=-1) - (y * log_1m).sum(axis=-1)
                + log_1m.sum(axis=-1))


def _row_dot(a, b):
    """sum_j a_ij b_ij for each row i of two C x n arrays, by numpy's
    product-sum loop: no C x n temporary, and faster than a row sum."""
    return np.einsum("ij,ij->i", a, b)


#: the cloglog chord table's nodes are u = 1 / (1 + e^-t) for t = -30,
#: -30 + 1/32, ..., 30: distinct doubles strictly inside (0, 1)
_CHORD_T, _CHORD_PER_UNIT = 30, 32


@functools.cache
def _cloglog_chord_table():
    """The nodes u_0 = 0 < u_1 < ... < u_K = 1 of the chord table of phi
    for a y = 1 observation under cloglog (l(eta) = log(1 - e^-v), v =
    e^eta), and each chord's intercept and slope. The inner nodes are
    u = 1 / (1 + e^-t) on the grid of t; phi(0) = phi(1) = 0."""
    t = np.arange(-_CHORD_T * _CHORD_PER_UNIT, _CHORD_T * _CHORD_PER_UNIT + 1) / _CHORD_PER_UNIT
    u = 1.0 / (1.0 + np.exp(-t))
    # phi(u) = u eta - l(eta) where l'(eta) = v / expm1(v) = u, which falls
    # as eta rises: bisect for that eta. Any eta gives at least phi(u), so
    # each value is shifted below phi by more than its rounding
    lo, hi = np.full(t.size, -40.0), np.full(t.size, 5.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        v = np.exp(mid)
        rising = v / np.expm1(v) > u
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    eta = 0.5 * (lo + hi)
    ue, ll = u * eta, np.log(-np.expm1(-np.exp(eta)))
    phi = ue - ll - 1e-13 * (1.0 + np.abs(ue) + np.abs(ll))
    nodes = np.concatenate([[0.0], u, [1.0]])
    values = np.concatenate([[0.0], phi, [0.0]])
    slope = np.diff(values) / np.diff(nodes)
    return nodes, values[:-1] - slope * nodes[:-1], slope


def _cloglog_chords(u):
    """A lower bound on phi (see ``_cloglog_chord_table``) at each u in
    [0, 1]: phi is concave, so the chord between two nodes lies below it
    there. The chord of u is found from logit(u) by arithmetic."""
    _nodes, icpt, slope = _cloglog_chord_table()
    with np.errstate(divide="ignore", invalid="ignore"):
        # 1 - u is exact for u >= 1/2
        odds = u / (1.0 - u)
        # odds below the smallest normal (u = 0 and subnormal u) fall to
        # chord 0 either way, and a log of an exact 0 leaves numpy's SIMD
        # path; np.maximum keeps a NaN
        np.maximum(odds, _TINY, out=odds)
        at = np.log(odds, out=odds)
        at += _CHORD_T
        at *= _CHORD_PER_UNIT
        at += 1.0
        # u = 1 gives inf; fmin and fmax send a NaN to chord 0, where its
        # value stays NaN
        c = np.fmin(np.fmax(at, 0.0), slope.size - 1).astype(np.intp)
    return icpt.take(c) + slope.take(c) * u


class _BernoulliIdentityLF(LinkFamily):
    eta_domain = (0.0, 1.0)

    def h(self, eta):
        return Logit().g(eta)

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

    def h(self, eta):
        return -(np.asarray(eta, dtype=float) ** self._r)

    def _terms(self, eta, state):
        r = self._r
        e = np.asarray(eta, dtype=float)
        hpp = None if r == 1.0 else -r * (r - 1.0) * e ** (r - 2.0)
        return self._terms_from_h(state[0], -r * e ** (r - 1.0), hpp)


_COMPOSITES = {
    ("bernoulli", "logit"): _BernoulliLogitLF,
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
