"""Boundary fields on the link, their splittings, pairings, and Green check.

A :class:`BoundaryField` is a truncated coefficient map ``mode -> C^2``: the
pair holds the two spinor-component coefficients relative to the scalar
mode ``exp(i l t) exp(i m s)``.  The splitting machinery decomposes each
nonzero mode's pair against the rank-1 directions

    plus  direction: (1, -i * sign(mode))
    minus direction: (1, +i * sign(mode))

with the zero mode routed to the link-kernel summand (or absorbed into a
half, per the lattice policy on a circle link).  The mirrored families use
the conjugated sign: e0 maps the plus/minus patterns exactly onto them.

Floating point caveat: rounding the two halves of an orthogonal split
independently loses the sum-to-identity by an occasional ulp.
:func:`split` therefore nudges the complement (or the pattern coefficient)
by at most two ulps until the parts re-add exactly, falling back to an
always-exact halving at the rare modes where heavy cancellation makes
every rounding window unreachable; all adjustments sit far below every
stated tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .lattice import Mode, ModeLattice, ZeroModePolicy, enumerate_modes, generalized_sign
from .radial import RadialMode, decaying_trace

Pair = tuple[complex, complex]


class SubspaceTag(str, Enum):
    EXP_PLUS = "ExpPlus"
    EXP_MINUS = "ExpMinus"
    EEXP_PLUS = "EexpPlus"
    EEXP_MINUS = "EexpMinus"
    KER_DSIGMA = "KerDSigma"
    EXP_PLUS_ZERO = "ExpPlusZero"
    EEXP_MINUS_ZERO = "EexpMinusZero"


_ZERO_BEARING = (SubspaceTag.KER_DSIGMA, SubspaceTag.EXP_PLUS_ZERO, SubspaceTag.EEXP_MINUS_ZERO)


@dataclass(frozen=True)
class BoundaryField:
    """Truncated link field; equality is exact equality of coefficient maps."""

    lattice: ModeLattice
    coefficients: dict[Mode, Pair]

    def __post_init__(self) -> None:
        n = self.lattice.cutoff
        for mode in self.coefficients:
            coords = mode.as_tuple()
            if len(coords) != self.lattice.dim_link:
                raise DomainError(f"mode {mode} has the wrong dimension for the lattice")
            if any(abs(c) > n + 1e-12 for c in coords):
                raise DomainError(f"mode {mode} lies outside the lattice cutoff {n}")
            for c, off in zip(coords, self.lattice.offsets):
                if abs((c - off) - round(c - off)) > 1e-9:
                    raise DomainError(f"mode {mode} is not on the lattice (offsets {self.lattice.offsets})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundaryField):
            return NotImplemented
        return self.lattice == other.lattice and self.coefficients == other.coefficients

    def pair(self, mode: Mode) -> Pair:
        return self.coefficients.get(mode, (0.0 + 0.0j, 0.0 + 0.0j))

    def modes(self) -> list[Mode]:
        return sorted(self.coefficients, key=Mode.sort_key)

    def norm(self) -> float:
        return math.sqrt(
            sum(abs(x) ** 2 + abs(y) ** 2 for x, y in self.coefficients.values())
        )


def field(lattice: ModeLattice, coeffs: dict[Mode, Pair]) -> BoundaryField:
    """Build a field, dropping exact-zero pairs for canonical equality."""
    cleaned = {
        m: (complex(x), complex(y)) for m, (x, y) in coeffs.items() if x != 0 or y != 0
    }
    return BoundaryField(lattice, cleaned)


def field_add(a: BoundaryField, b: BoundaryField) -> BoundaryField:
    if a.lattice != b.lattice:
        raise DomainError("cannot add fields on different lattices")
    out: dict[Mode, Pair] = dict(a.coefficients)
    for m, (x, y) in b.coefficients.items():
        x0, y0 = out.get(m, (0.0 + 0.0j, 0.0 + 0.0j))
        out[m] = (x0 + x, y0 + y)
    return field(a.lattice, out)


def field_scale(a: BoundaryField, c: complex) -> BoundaryField:
    return field(a.lattice, {m: (c * x, c * y) for m, (x, y) in a.coefficients.items()})


def random_field(lattice: ModeLattice, rng: np.random.Generator, balanced: bool = True) -> BoundaryField:
    """Seeded random field; ``balanced`` keeps both components at unit scale."""
    coeffs: dict[Mode, Pair] = {}
    for mode in enumerate_modes(lattice):
        if balanced:
            re1, im1, re2, im2 = rng.uniform(0.25, 1.0, 4) * rng.choice([-1.0, 1.0], 4)
        else:
            re1, im1, re2, im2 = rng.uniform(-1.0, 1.0, 4)
        coeffs[mode] = (complex(re1, im1), complex(re2, im2))
    return field(lattice, coeffs)


# ---------------------------------------------------------------------------
# splitting


def pattern_second_weight(tag: SubspaceTag, mode: Mode) -> complex:
    """Second-component weight w of the rank-1 pattern (1, w) at a nonzero mode."""
    s = generalized_sign(mode)
    if tag is SubspaceTag.EXP_PLUS or tag is SubspaceTag.EXP_PLUS_ZERO:
        return -1j * s
    if tag is SubspaceTag.EXP_MINUS:
        return 1j * s
    if tag is SubspaceTag.EEXP_MINUS or tag is SubspaceTag.EEXP_MINUS_ZERO:
        return -1j * s.conjugate()
    if tag is SubspaceTag.EEXP_PLUS:
        return 1j * s.conjugate()
    raise DomainError(f"tag {tag} has no per-mode pattern")


def _validate_tag(lattice: ModeLattice, tag: SubspaceTag) -> None:
    if tag in _ZERO_BEARING:
        if not lattice.contains_zero_mode:
            raise DomainError(f"tag {tag.value} needs a lattice containing the zero mode")
        if lattice.zero_mode_policy is not ZeroModePolicy.SEPARATE:
            raise DomainError(
                f"tag {tag.value} conflicts with zero-mode policy {lattice.zero_mode_policy.value}"
            )


def _zero_mode_home(lattice: ModeLattice) -> SubspaceTag:
    if lattice.zero_mode_policy is ZeroModePolicy.ASSIGN_PLUS:
        return SubspaceTag.EXP_PLUS
    if lattice.zero_mode_policy is ZeroModePolicy.ASSIGN_MINUS:
        return SubspaceTag.EXP_MINUS
    return SubspaceTag.KER_DSIGMA


def _project_pair(pair: Pair, w: complex) -> Pair:
    """Orthogonal projection of (x, y) onto span(1, w), |w| = 1.

    A pair already satisfying y == w*x bitwise is returned unchanged, which
    makes repeated projection exactly idempotent.
    """
    x, y = pair
    if y == w * x:
        return (x, y)
    c = 0.5 * (x + w.conjugate() * y)
    return (c, w * c)


def project(fld: BoundaryField, tag: SubspaceTag) -> BoundaryField:
    """Project a field onto a tagged subspace, mode by mode."""
    lattice = fld.lattice
    _validate_tag(lattice, tag)
    home = _zero_mode_home(lattice)
    out: dict[Mode, Pair] = {}
    for mode, pair in fld.coefficients.items():
        if mode.is_zero:
            if tag is home or (
                tag in (SubspaceTag.EXP_PLUS_ZERO, SubspaceTag.EEXP_MINUS_ZERO)
                and home is SubspaceTag.KER_DSIGMA
            ):
                out[mode] = pair
            continue
        if tag is SubspaceTag.KER_DSIGMA:
            continue
        out[mode] = _project_pair(pair, pattern_second_weight(tag, mode))
    return field(lattice, out)


def _complement_component(total: float, part: float) -> tuple[float, bool]:
    """m with fl(part + m) == total, nudged by ulps; flags an unreachable target."""
    m = total - part
    if part + m == total:
        return m, True
    for _ in range(3):
        overshoot = (part + m) - total
        m = np.nextafter(m, -math.inf) if overshoot > 0 else np.nextafter(m, math.inf)
        if part + m == total:
            return m, True
    return total - part, False


def _complement_pair(total: Pair, part: Pair) -> tuple[Pair, bool]:
    out = []
    ok = True
    for t, p in zip(total, part):
        mr, okr = _complement_component(t.real, p.real)
        mi, oki = _complement_component(t.imag, p.imag)
        out.append(complex(mr, mi))
        ok = ok and okr and oki
    return (out[0], out[1]), ok


def _ulp_steps(x: float, radius: int) -> list[float]:
    down, up = [x], [x]
    for _ in range(radius):
        down.append(np.nextafter(down[-1], -math.inf))
        up.append(np.nextafter(up[-1], math.inf))
    return [x] + down[1:] + up[1:]


def _ulp_candidates(c: complex, radius: int = 2) -> list[complex]:
    """c plus its complex neighbours within `radius` ulps per component."""
    cands = [complex(re, im) for re in _ulp_steps(c.real, radius) for im in _ulp_steps(c.imag, radius)]
    cands.sort(key=lambda z: (abs(z.real - c.real) + abs(z.imag - c.imag), z.real, z.imag))
    return cands


def _split_mode(pair: Pair, w: complex, v: complex) -> tuple[Pair, Pair]:
    """Plus part (pattern-pure) and its exact complement at one mode.

    When some component of the complement cannot round onto the input (a
    round-to-even parity lock), the plus coefficient is perturbed by one
    ulp, which breaks the alignment; the perturbation stays far below every
    stated tolerance.
    """
    x, y = pair
    if y == w * x:
        return pair, (0.0 + 0.0j, 0.0 + 0.0j)
    if y == v * x:
        return (0.0 + 0.0j, 0.0 + 0.0j), pair
    c_plus = 0.5 * (x + w.conjugate() * y)
    for cand in _ulp_candidates(c_plus):
        p = (cand, w * cand)
        m, ok = _complement_pair(pair, p)
        if ok:
            return p, m
    # the complement's binade can be too coarse for any plus-side candidate;
    # let the minus half carry the pure pattern instead
    c_minus = 0.5 * (x + v.conjugate() * y)
    for cand in _ulp_candidates(c_minus):
        m2 = (cand, v * cand)
        p2, ok = _complement_pair(pair, m2)
        if ok:
            return p2, m2
    # rounding windows unreachable from either side (heavy cancellation
    # between the pattern halves); halving each component is always exact
    half = (0.5 * x, 0.5 * y)
    return half, half


def split(fld: BoundaryField) -> tuple[BoundaryField, BoundaryField, BoundaryField]:
    """Exact three-way partition (plus, minus, kernel) of a field.

    One half is pattern-pure and the other is its exact complement
    (off-pattern by ulps); ``plus + minus + kernel`` reproduces the input
    bitwise, unconditionally.
    """
    lattice = fld.lattice
    home = _zero_mode_home(lattice)
    plus: dict[Mode, Pair] = {}
    minus: dict[Mode, Pair] = {}
    ker: dict[Mode, Pair] = {}
    for mode, pair in fld.coefficients.items():
        if mode.is_zero:
            {SubspaceTag.EXP_PLUS: plus, SubspaceTag.EXP_MINUS: minus, SubspaceTag.KER_DSIGMA: ker}[
                home
            ][mode] = pair
            continue
        w = pattern_second_weight(SubspaceTag.EXP_PLUS, mode)
        v = pattern_second_weight(SubspaceTag.EXP_MINUS, mode)
        p, m = _split_mode(pair, w, v)
        if p != (0, 0):
            plus[mode] = p
        if m != (0, 0):
            minus[mode] = m
    return field(lattice, plus), field(lattice, minus), field(lattice, ker)


# ---------------------------------------------------------------------------
# Clifford action and pairings


def apply_e0(fld: BoundaryField) -> BoundaryField:
    """Clifford action (x, y) -> (y, -x) per mode; squares to minus identity."""
    return field(fld.lattice, {m: (y, -x) for m, (x, y) in fld.coefficients.items()})


def pairing_hermitian(X: BoundaryField, Y: BoundaryField) -> complex:
    """Hermitian inner product, conjugating Y, in the normalized mode counting."""
    if X.lattice != Y.lattice:
        raise DomainError("pairing needs both fields on the same lattice")
    total = 0.0 + 0.0j
    for mode, (x, y) in X.coefficients.items():
        x2, y2 = Y.pair(mode)
        total += x * x2.conjugate() + y * y2.conjugate()
    return total


def pairing_B(X: BoundaryField, Y: BoundaryField, convention: str = "hermitian") -> complex:
    """Clifford bilinear form <X, e0 Y>.

    ``convention="hermitian"`` conjugates the second slot through the
    Hermitian pairing; ``"bilinear"`` is the complex-bilinear alternative,
    pairing each mode with its negative.  Both are kept so the Lagrangian
    and plus/minus-swap claims can be probed under either reading.
    """
    e0Y = apply_e0(Y)
    if convention == "hermitian":
        return pairing_hermitian(X, e0Y)
    if convention == "bilinear":
        if X.lattice != Y.lattice:
            raise DomainError("pairing needs both fields on the same lattice")
        total = 0.0 + 0.0j
        for mode, (x, y) in X.coefficients.items():
            neg = Mode(-mode.l, None if mode.m is None else -mode.m)
            x2, y2 = e0Y.pair(neg)
            total += x * x2 + y * y2
        return total
    raise DomainError(f"unknown pairing convention {convention!r}")


def decaying_trace_field(lattice: ModeLattice, mode: Mode, coeff: complex = 1.0) -> BoundaryField:
    """Single-mode field carrying the decaying-solution boundary pattern."""
    c1, c2 = decaying_trace(mode)
    return field(lattice, {mode: (coeff * c1, coeff * c2)})


# ---------------------------------------------------------------------------
# Green's identity check


def _sector(sol: RadialMode) -> tuple[Mode, int, float, float]:
    """(link mode, k, operator eigenvalue alpha, component flip sigma)."""
    mode = sol.link_mode
    if mode is None:
        raise DomainError("green_check needs solutions placed at link modes")
    if mode.m is None:
        return mode, sol.k, mode.l, (1.0 if mode.l >= 0 else -1.0)
    return mode, sol.k, mode.eigenvalue, 1.0


def _angular_factor(delta: float, n: int) -> complex:
    """Trapezoid quadrature of exp(i*delta*x) over [0, 2pi) with n nodes.

    The node values form a geometric sequence with ratio z = exp(2 pi i delta/n),
    so they sum to (1 - z^n) / (1 - z) with z^n = exp(2 pi i delta), or to n
    when z = 1.
    """
    ratio = delta / n
    if ratio == round(ratio):
        return complex(2.0 * math.pi)
    z = complex(np.exp(2j * math.pi * ratio))
    return (1.0 - complex(np.exp(2j * math.pi * delta))) / (1.0 - z) * (2.0 * math.pi / n)


def green_check(
    v: Sequence[RadialMode],
    w: Sequence[RadialMode],
    R: float,
    quad_n: int,
    r_lo: float = 1e-4,
    inner: str = "leading",
    check_refinement: bool = False,
) -> float:
    """Residual of the integration-by-parts identity on the tube r in (0, R].

    The volume term pairs the first-slot Dirac image against the second
    field and vice versa (the second slot carries the sign-flipped operator,
    so a pair built from kernel solutions has an identically zero
    integrand).  It is integrated by tensor-product quadrature: exact
    trapezoid sums in the angles, Gauss-Legendre with ``quad_n`` points in
    r on [r_lo, R].  The outer flux at R is evaluated in closed form, and
    the inner boundary term either from the 1/sqrt(r) leading coefficients
    (``inner="leading"``, the r -> 0 limit) or from the solution values at
    the quadrature edge (``inner="edge"``, the identity on [r_lo, R]
    itself, useful for convergence studies with non-kernel pairs).

    With ``check_refinement`` the residual is recomputed at half the
    quadrature size; a residual above 1e-8 that fails to shrink raises,
    signalling that refining the quadrature cannot rescue the check.
    """
    if check_refinement and quad_n >= 8:
        coarse = green_check(v, w, R, quad_n // 2, r_lo=r_lo, inner=inner)
        fine = green_check(v, w, R, quad_n, r_lo=r_lo, inner=inner)
        if fine > 1e-8 and fine > 0.9 * coarse:
            from .errors import NumericError

            raise NumericError(
                f"Green residual {fine:.3e} not decreasing under refinement "
                f"(was {coarse:.3e} at quad_n={quad_n // 2})"
            )
        return fine
    if not v or not w:
        return 0.0
    if inner not in ("leading", "edge"):
        raise DomainError(f"unknown inner-term mode {inner!r}")
    if R <= r_lo:
        raise DomainError("outer radius must exceed the inner quadrature edge")

    dim = None
    for sol in list(v) + list(w):
        mode = _sector(sol)[0]
        d = 1 if mode.m is None else 2
        dim = d if dim is None else dim
        if d != dim:
            raise DomainError("all solutions must live over the same link dimension")

    # angular grids sized past the largest frequency difference
    def freqs(sols: Sequence[RadialMode], axis: int) -> list[float]:
        out = []
        for s in sols:
            mode = _sector(s)[0]
            out.append(mode.as_tuple()[axis] if axis < len(mode.as_tuple()) else 0.0)
        return out

    n_axes = dim + 1  # link coordinates plus the disc angle
    n_nodes = []
    for axis in range(dim):
        fmax = max(abs(f) for f in freqs(v, axis)) + max(abs(f) for f in freqs(w, axis))
        n_nodes.append(2 * math.ceil(fmax) + 3)
    kmax = max(abs(s.k) for s in v) + max(abs(s.k) for s in w)
    n_nodes.append(2 * kmax + 3)

    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    rr = 0.5 * (R - r_lo) * nodes + 0.5 * (R + r_lo)
    ww = 0.5 * (R - r_lo) * weights

    def comps(sol: RadialMode, r) -> tuple:
        _, _, _, sigma = _sector(sol)
        c1, c2 = sol.value(r)
        return (c1, sigma * c2)

    def radial_cache(sol: RadialMode) -> tuple[tuple, tuple]:
        """Component values and first-slot Dirac rows on the radial nodes."""
        _, k, alpha, sigma = _sector(sol)
        c1, c2 = comps(sol, rr)
        d1, d2 = sol.derivative(rr)
        d2 = sigma * d2
        p, q = k - 0.5, k + 0.5
        return (c1, c2), (alpha * c1 + d2 + (q / rr) * c2, -d1 + (p / rr) * c1 - alpha * c2)

    cache_v = [radial_cache(s) for s in v]
    cache_w = [radial_cache(s) for s in w]

    residual = 0.0 + 0.0j
    for i, si in enumerate(v):
        mode_i, k_i, _, sig_i = _sector(si)
        for j, sj in enumerate(w):
            mode_j, k_j, _, sig_j = _sector(sj)
            ang = 1.0 + 0.0j
            for axis in range(dim):
                delta = mode_i.as_tuple()[axis] - mode_j.as_tuple()[axis]
                ang *= _angular_factor(delta, n_nodes[axis])
            ang *= _angular_factor(float(k_i - k_j), n_nodes[dim])
            if abs(ang) < 1e-12:
                continue

            Cv, Dv = cache_v[i]
            Cw, Dw = cache_w[j]
            integrand = (
                Dv[0] * np.conj(Cw[0])
                + Dv[1] * np.conj(Cw[1])
                - Cv[0] * np.conj(Dw[0])
                - Cv[1] * np.conj(Dw[1])
            )
            vol = complex(np.sum(ww * rr * integrand))

            def flux(r: float) -> complex:
                a1, a2 = comps(si, r)
                b1, b2 = comps(sj, r)
                return r * (a2 * b1.conjugate() - a1 * b2.conjugate())

            if inner == "edge":
                inner_term = flux(r_lo)
            else:
                g1, g2 = si.r_minus_half_coefficients()
                h1, h2 = sj.r_minus_half_coefficients()
                g2, h2 = sig_i * g2, sig_j * h2
                inner_term = g2 * h1.conjugate() - g1 * h2.conjugate()

            residual += ang * (vol - flux(R) + inner_term)
    return abs(residual)


# ---------------------------------------------------------------------------
# serialization


def field_to_json(fld: BoundaryField) -> str:
    """Serialize a field; floats keep 17 significant digits, so round trips are exact."""
    lat = fld.lattice
    coeffs = []
    for mode in fld.modes():
        x, y = fld.coefficients[mode]
        entry: dict[str, object] = {"l": mode.l}
        if mode.m is not None:
            entry["m"] = mode.m
        entry["c1"] = [float(f"{x.real:.17g}"), float(f"{x.imag:.17g}")]
        entry["c2"] = [float(f"{y.real:.17g}"), float(f"{y.imag:.17g}")]
        coeffs.append(entry)
    doc = {
        "lattice": {
            "dim_link": lat.dim_link,
            "offset_t": lat.offset_t,
            "offset_s": lat.offset_s,
            "cutoff": lat.cutoff,
            "zero_mode_policy": lat.zero_mode_policy.value,
        },
        "coeffs": coeffs,
    }
    return json.dumps(doc, sort_keys=True)


def field_from_json(text: str) -> BoundaryField:
    doc = json.loads(text)
    lat = doc["lattice"]
    lattice = ModeLattice(
        dim_link=int(lat["dim_link"]),
        offset_t=float(lat["offset_t"]),
        offset_s=float(lat["offset_s"]),
        cutoff=int(lat["cutoff"]),
        zero_mode_policy=ZeroModePolicy(lat.get("zero_mode_policy", "separate")),
    )
    coeffs: dict[Mode, Pair] = {}
    for entry in doc["coeffs"]:
        mode = Mode(float(entry["l"]), float(entry["m"]) if "m" in entry else None)
        coeffs[mode] = (
            complex(entry["c1"][0], entry["c1"][1]),
            complex(entry["c2"][0], entry["c2"][1]),
        )
    return field(lattice, coeffs)


# ---------------------------------------------------------------------------
# convention probe


def convention_probe(cutoff: int = 4) -> dict:
    """Numerically probe the sign/conjugation conventions of the splitting.

    Reports, for a circle link: whether e0 maps the plus pattern onto the
    minus pattern (coefficient computation says it does not - it preserves
    each half); which pairing convention makes the minus half isotropic for
    the e0 form (the Lagrangian half property); and whether e0 maps the
    plus/minus patterns onto the mirrored families exactly (it does, by
    construction).  The probe reports; it does not pick a convention.
    """
    lattice = ModeLattice(dim_link=1, offset_t=0.5, cutoff=cutoff)
    modes = enumerate_modes(lattice)
    plus_basis = [
        field(lattice, {m: (c, pattern_second_weight(SubspaceTag.EXP_PLUS, m) * c)})
        for m in modes
        for c in (1.0 + 0.0j, 1j)
    ]
    minus_basis = [
        field(lattice, {m: (c, pattern_second_weight(SubspaceTag.EXP_MINUS, m) * c)})
        for m in modes
        for c in (1.0 + 0.0j, 1j)
    ]
    minus_conj_basis = [
        field(
            lattice,
            {m: (c, pattern_second_weight(SubspaceTag.EXP_MINUS, m) * c.conjugate())},
        )
        for m in modes
        for c in (1.0 + 0.0j, 1j)
    ]

    def resid_in(tag: SubspaceTag, fields: Iterable[BoundaryField]) -> float:
        return max(project(apply_e0(f), tag).norm() / f.norm() for f in fields)

    swap_plus_to_minus = 1.0 - resid_in(SubspaceTag.EXP_MINUS, plus_basis)
    stays_plus = resid_in(SubspaceTag.EXP_PLUS, plus_basis)

    def isotropy(fields: list[BoundaryField], convention: str, real_part: bool) -> float:
        worst = 0.0
        for a in fields:
            for b in fields:
                val = pairing_B(a, b, convention=convention)
                worst = max(worst, abs(val.real) if real_part else abs(val))
        return worst

    lag = {
        "hermitian/standard": isotropy(minus_basis, "hermitian", real_part=False),
        "bilinear/standard": isotropy(minus_basis, "bilinear", real_part=False),
        "hermitian-real/conjugated": isotropy(minus_conj_basis, "hermitian", real_part=True),
        "bilinear/conjugated": isotropy(minus_conj_basis, "bilinear", real_part=False),
    }
    mirror_resid = max(
        resid_in(SubspaceTag.EEXP_PLUS, plus_basis),
        max(project(apply_e0(f), SubspaceTag.EEXP_MINUS).norm() / f.norm() for f in minus_basis),
    )
    realized = sorted(name for name, r in lag.items() if r < 1e-12)
    return {
        "e0_plus_pattern_stays_plus_fraction": stays_plus,
        "e0_plus_to_minus_defect": swap_plus_to_minus,
        "lagrangian_isotropy_residuals": lag,
        "lagrangian_realized_by": realized,
        "e0_exp_to_mirrored_families_residual": mirror_resid,
        "conclusion": (
            "e0 preserves the plus/minus coefficient patterns on a circle link; "
            "the half-isotropy (Lagrangian) property is realized by the real part "
            "of the Hermitian e0-form on the conjugated-coefficient minus pattern; "
            "e0 maps the plus/minus patterns onto the mirrored families exactly."
        ),
    }
