"""Radial solutions of the separated flat Dirac equation.

Separation of variables reduces the flat model near the singular set to a
two-component radial ODE per angular index ``k`` and link eigenvalue
``a``::

    d/dr (U+, U-) = [[(k-1/2)/r, -a], [-a, -(k+1/2)/r]] (U+, U-)

Its solution space is spanned by two modified-Bessel branches.  Writing

    J[p, a](r) := a^(-p) * sum_n (1/(n! Gamma(n+p+1))) (a r / 2)^(2n+p)

with the degenerate convention ``J[p, 0](r) := r^p``, the regular branch is

    (J[k-1/2, a](r), -a * J[k+1/2, a](r))

and the second branch carries the mirrored orders

    (-a * J[-(k-1/2), a](r), J[-(k+1/2), a](r)).

The mirrored orders in the second branch are forced by the ODE: the
straight-order pair (-a J[k-1/2], J[k+1/2]) satisfies it only at a = 1
(see the regression tests).  Note the a = 0 convention differs from the
a -> 0 limit of the series by the constant 2^(-p)/Gamma(p+1); it is kept
verbatim and not normalized away.

Exponentially decaying solutions are represented exactly through the
half-integer Macdonald functions K, which have finite closed forms; this
avoids the catastrophic I-branch cancellation that a large-r matching
construction would have to fight.

Every evaluator takes a scalar or a numpy array of ``r`` and runs one array
code path.  Scalar calls work but are not a supported hot path: each pays
the array set-up (about 144 us for a ``bessel_series`` call, 61 us for
``modified_bessel_k_half``), so callers that need many radii pass them as
one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .lattice import Mode, generalized_sign

SERIES_RELATIVE_TOL = 1e-16
SERIES_ABSOLUTE_FLOOR = 1e-300
SERIES_MAX_TERMS = 10_000
SUPPORTED_AR = 50.0


def _require_half_integer_order(p) -> None:
    twice = 2.0 * np.asarray(p, dtype=float)
    nearest = np.round(twice)
    if np.any(np.abs(twice - nearest) > 1e-12) or np.any(nearest % 2 == 0):
        raise DomainError(f"order must be a half-odd integer k +/- 1/2, got {p}")


def _require_positive(what: str, x: np.ndarray) -> None:
    if np.any(x <= 0.0):
        raise DomainError(f"{what} must be positive, got {np.min(x)}")


def _out(x):
    """A Python scalar for a 0-d result, the array otherwise."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def bessel_series(p, a: float, r):
    """Evaluate J[p, a](r) by direct series summation.

    ``r`` is a scalar or an array, and ``p`` broadcasts against it; scalar
    inputs give a Python float.  Terms are generated by the exact
    recurrence ``t_{n+1} = t_n (ar/2)^2 / ((n+1)(n+p+1))`` so no
    intermediate factorial or Gamma value can overflow.  Each entry stops
    summing once its next term drops below ``1e-16`` of its partial sum
    (with a tiny absolute floor) and stays frozen from then on; an entry
    still summing after 10000 terms raises, which signals an ``a r`` far
    outside the supported range.
    """
    _require_half_integer_order(p)
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    _require_positive("radius", r)
    if a < 0.0:
        raise DomainError(f"eigenvalue must be nonnegative, got {a}")
    if a == 0.0:
        return _out(r**p)
    half = 0.5 * (a * r)
    half_sq = half * half
    gamma = np.array([math.gamma(v) for v in (p + 1.0).flat]).reshape(p.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum never converges
        term = half**p / gamma
        total = term.copy()
        active = np.ones(term.shape, dtype=bool)
        for n in range(SERIES_MAX_TERMS):
            term *= half_sq / ((n + 1.0) * (n + p + 1.0))
            total += np.where(active, term, 0.0)
            active &= ~(np.abs(term) < SERIES_RELATIVE_TOL * np.abs(total) + SERIES_ABSOLUTE_FLOOR)
            if not active.any():
                return _out(a ** (-p) * total)
    i = np.unravel_index(np.argmax(active), active.shape)
    p_i, r_i = np.broadcast_to(p, active.shape)[i], np.broadcast_to(r, active.shape)[i]
    raise NumericError(f"series for J[{p_i}, {a}]({r_i}) did not converge in {SERIES_MAX_TERMS} terms")


def bessel_series_prime(p, a: float, r):
    """d/dr of J[p, a](r), via the exact ladder J[p]' = J[p-1] - (p/r) J[p]."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    if a == 0.0:
        _require_positive("radius", r)
        return _out(p * r ** (p - 1.0))
    return _out(bessel_series(p - 1.0, a, r) - (p / r) * bessel_series(p, a, r))


def modified_bessel_k_half(p, x):
    """K_p(x) for half-odd-integer order, by its finite closed form.

    ``x`` is a scalar or an array, and ``p`` broadcasts against it.  K is
    even in the order, and for p = m + 1/2 with m >= 0:

        K_{m+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_{j<=m} (m+j)! / (j!(m-j)! (2x)^j)
    """
    _require_half_integer_order(p)
    x = np.asarray(x, dtype=float)
    _require_positive("argument", x)
    m = np.rint(np.abs(np.asarray(p, dtype=float)) - 0.5).astype(int)
    m_max = int(m.max())
    s = np.zeros(np.broadcast(m, x).shape)
    for j in range(m_max + 1):
        # (m+j)! and j!(m-j)! per order m, zero numerator where j > m
        num = np.array([float(math.factorial(mm + j)) if mm >= j else 0.0 for mm in range(m_max + 1)])
        den = np.array([float(math.factorial(j) * math.factorial(mm - j)) if mm >= j else 1.0
                        for mm in range(m_max + 1)])
        s += num[m] / (den[m] * (2.0 * x) ** j)
    return _out(np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) * s)


def modified_bessel_k_half_prime(p, x):
    """d/dx K_p(x) = -(K_{p-1}(x) + K_{p+1}(x)) / 2 for half-odd-integer p."""
    p = np.asarray(p, dtype=float)
    return _out(-0.5 * (modified_bessel_k_half(p - 1.0, x) + modified_bessel_k_half(p + 1.0, x)))


def radial_rhs(k: int, a: float, U: tuple, r) -> tuple:
    """Right-hand side of the separated radial system at (k, a); r may be an array."""
    _require_positive("radius", np.asarray(r))
    p = k - 0.5
    q = k + 0.5
    return ((p / r) * U[0] - a * U[1], -a * U[0] - (q / r) * U[1])


def _branch_orders(k: int, ndim: int) -> np.ndarray:
    """The orders (k-1/2, -(k+1/2), -(k-1/2), k+1/2) on a leading axis, ready to broadcast."""
    p = k - 0.5
    q = k + 0.5
    return np.array([p, -q, -p, q]).reshape((4,) + (1,) * ndim)


def branch_block(k: int, a: float, r) -> np.ndarray:
    """J at the four branch orders of (k, a), stacked on a new leading axis.

    Every series solution at (k, a) is a combination of these four rows, so
    one block serves any number of coefficient pairs (see ``RadialMode.value``).
    """
    return bessel_series(_branch_orders(k, np.ndim(r)), a, r)


GROWTH_GROWING = "growing"
GROWTH_DECAYING = "decaying"
GROWTH_POLYNOMIAL = "polynomial"

_KIND_SERIES = "series"
_KIND_DECAY = "decay"


@dataclass(frozen=True)
class RegularityClass:
    """Small-r integrability class read off the dominant power of r."""

    tag: str  # "L2" | "L2_1" | "neither"
    leading_exponent: float


@dataclass(frozen=True)
class RadialMode:
    """One separated mode's radial solution data.

    ``u_plus`` weights the regular Bessel branch and ``u_minus`` the
    mirrored-order branch.  ``link_mode`` optionally places the solution at
    a link Fourier mode for boundary and quadrature work; the radial data
    itself only needs (k, a).
    """

    k: int
    a: float
    u_plus: complex
    u_minus: complex
    growth: str
    link_mode: Mode | None = None
    _kind: str = field(default=_KIND_SERIES, repr=False)
    _scale: complex = field(default=1.0 + 0.0j, repr=False)

    def value(self, r, block: np.ndarray | None = None) -> tuple:
        """Component pair (U+(r), U-(r)) at a scalar or an array of radii.

        Series solutions accept a precomputed ``branch_block(k, a, r)`` so that
        several solutions at one (k, a) share one evaluation; the decaying
        representation ignores it.
        """
        if self._kind == _KIND_DECAY:
            pref = self._scale * (2.0 / math.pi) * (-1.0) ** self.k
            return self._decay_pair(modified_bessel_k_half, pref, r)
        if block is None:
            block = branch_block(self.k, self.a, r)
        return self._combine(block)

    def derivative(self, r) -> tuple:
        """Exact d/dr of the component pair, at a scalar or an array of radii."""
        if self._kind == _KIND_DECAY:
            pref = self._scale * (2.0 / math.pi) * (-1.0) ** self.k * self.a
            return self._decay_pair(modified_bessel_k_half_prime, pref, r)
        return self._combine(bessel_series_prime(_branch_orders(self.k, np.ndim(r)), self.a, r))

    def _decay_pair(self, fn, pref: complex, r) -> tuple:
        x = self.a * np.asarray(r, dtype=float)
        return (_out(pref * fn(self.k - 0.5, x)), _out(pref * fn(self.k + 0.5, x)))

    def _combine(self, block: np.ndarray) -> tuple:
        """(U+, U-) from the four branch rows (values or r-derivatives)."""
        j_p, j_mq, j_mp, j_q = block
        c1 = self.u_plus * j_p
        c2 = self.u_minus * j_mq
        if self.a > 0.0:
            c1 = c1 + self.u_minus * (-self.a) * j_mp
            c2 = c2 + self.u_plus * (-self.a) * j_q
        return (_out(c1), _out(c2))

    def small_r_exponents(self) -> list[tuple[float, complex, int]]:
        """Leading powers of r with coefficients, as (exponent, coeff, component)."""
        p = self.k - 0.5
        q = self.k + 0.5
        out: list[tuple[float, complex, int]] = []

        def lead(nu: float) -> float:
            # J[nu, a](r) ~ lead(nu) r^nu as r -> 0
            if self.a == 0.0:
                return 1.0
            return 0.5**nu / math.gamma(nu + 1.0)

        if self._kind == _KIND_DECAY:
            pref = self._scale * (2.0 / math.pi) * (-1.0) ** self.k
            for nu, comp in ((p, 0), (q, 1)):
                m = abs(nu)
                coeff = 0.5 * math.gamma(m) * (2.0 / self.a) ** m if m > 0 else 1.0
                out.append((-m, pref * coeff, comp))
            return out
        if self.u_plus != 0:
            out.append((p, self.u_plus * lead(p), 0))
            if self.a > 0.0:
                out.append((q, self.u_plus * (-self.a) * lead(q), 1))
        if self.u_minus != 0:
            out.append((-q, self.u_minus * lead(-q), 1))
            if self.a > 0.0:
                out.append((-p, self.u_minus * (-self.a) * lead(-p), 0))
        return out

    def r_minus_half_coefficients(self) -> tuple[complex, complex]:
        """Coefficient pair of the 1/sqrt(r) part at r -> 0.

        Raises if the solution carries a power more singular than
        r^(-1/2); such solutions have no square-integrable trace.
        """
        lead = [0.0 + 0.0j, 0.0 + 0.0j]
        for expo, coeff, comp in self.small_r_exponents():
            if expo < -0.5 - 1e-12 and coeff != 0:
                raise DomainError(
                    f"solution with leading power r^{expo} has no square-integrable trace"
                )
            if abs(expo + 0.5) < 1e-12:
                lead[comp] += coeff
        return (lead[0], lead[1])


def assemble_solution(
    k: int,
    a: float,
    u_plus: complex,
    u_minus: complex,
    link_mode: Mode | None = None,
) -> RadialMode:
    """Linear combination of the two Bessel branches at (k, a).

    The regular branch contributes (J[k-1/2, a], -a J[k+1/2, a]) and the
    mirrored branch (-a J[-(k-1/2), a], J[-(k+1/2), a]).  Combinations
    lying exactly on the decaying ray are rerouted to the Macdonald-function
    representation, sidestepping the exponential cancellation between the
    two growing branches.
    """
    u_plus = complex(u_plus)
    u_minus = complex(u_minus)
    if u_plus == 0 and u_minus == 0:
        raise DomainError("a stored radial solution needs a nonzero coefficient pair")
    if a < 0.0:
        raise DomainError(f"eigenvalue must be nonnegative, got {a}")
    if a == 0.0:
        growth = GROWTH_POLYNOMIAL
    elif u_plus != 0 and u_minus == u_plus * a ** (-2 * k):
        return decaying_solution(k, a, scale=u_plus * a ** (0.5 - k), link_mode=link_mode)
    else:
        growth = GROWTH_GROWING
    return RadialMode(k=k, a=a, u_plus=u_plus, u_minus=u_minus, growth=growth, link_mode=link_mode)


def decaying_solution(
    k: int, a: float, scale: complex = 1.0, link_mode: Mode | None = None
) -> RadialMode:
    """The unique-up-to-scale exponentially decaying solution at (k, a > 0).

    Equal to the Bessel-branch combination with coefficients
    (u+, u-) = scale * (a^(k-1/2), a^(-k-1/2)) but evaluated through the
    exact half-integer K closed forms, so large-r values stay accurate.
    """
    if a <= 0.0:
        raise DomainError("decaying solutions need a positive eigenvalue")
    scale = complex(scale)
    if scale == 0:
        raise DomainError("a stored radial solution needs a nonzero coefficient pair")
    return RadialMode(
        k=k,
        a=a,
        u_plus=scale * a ** (k - 0.5),
        u_minus=scale * a ** (-k - 0.5),
        growth=GROWTH_DECAYING,
        link_mode=link_mode,
        _kind=_KIND_DECAY,
        _scale=scale,
    )


def classify_regularity(mode: RadialMode) -> RegularityClass:
    """Integrability near r = 0 from the smallest contributing exponent."""
    exponents = [e for e, coeff, _ in mode.small_r_exponents() if coeff != 0]
    e_min = min(exponents)
    if e_min >= 0.5 - 1e-12:
        tag = "L2_1"
    elif e_min >= -0.5 - 1e-12:
        tag = "L2"
    else:
        tag = "neither"
    return RegularityClass(tag=tag, leading_exponent=e_min)


def decaying_trace(mode: Mode) -> tuple[complex, complex]:
    """Boundary leading-coefficient pair of the decaying solution at a mode.

    Normalized so the first component is 1; the second carries +i times the
    generalized sign, which is exactly the minus-half coefficient pattern of
    the boundary splitting.
    """
    if mode.is_zero:
        raise DomainError("the zero mode has no decaying solution")
    return (1.0 + 0.0j, 1j * generalized_sign(mode))
