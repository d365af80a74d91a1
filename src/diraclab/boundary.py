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

Array kernels.  :func:`project` and :func:`split` are thin wrappers over
row kernels (``_project_rows``, ``_split_rows``) that take a lattice, the
lattice row of each pair and the pairs as an (n, 2) complex array.  Both
act mode by mode, so rows from many fields can be stacked into one call.
The pattern weights come from the scalar :func:`pattern_second_weight`,
cached per lattice, and every complex product goes through :func:`_cmul`,
Python's product formula, so each mode's result is bitwise what the scalar
formulas give.  Validation is exact and cached too: a field's modes must be
members of its lattice's mode set.  :func:`random_field` is one call of the
draw kernel ``_draw_pairs``, which draws the pairs of many consecutive
fields from one ``random_raw`` call of a PCG64 bit generator and decodes the
words as numpy's per-mode ``uniform``/``choice`` calls would, leaving the
generator in the same state; any other generator is rejected.

Floating point caveat: rounding the two halves of an orthogonal split
independently loses the sum-to-identity by an occasional ulp.
:func:`split` therefore nudges the complement (or the pattern coefficient)
by at most two ulps until the parts re-add exactly, falling back to an
always-exact halving at the rare modes where heavy cancellation makes
every rounding window unreachable; all adjustments sit far below every
stated tolerance.
"""

from __future__ import annotations

import functools
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
_HALF = np.complex128(0.5)


@functools.lru_cache(maxsize=64)
def _mode_rows(lattice: ModeLattice) -> dict[Mode, int]:
    """Position of each lattice mode in :func:`enumerate_modes` order; the keys are the mode set."""
    return {mode: i for i, mode in enumerate(enumerate_modes(lattice))}


def _mode_count(lattice: ModeLattice) -> int:
    """Number of lattice modes, without listing them."""
    return math.prod(lattice.axis_count(axis) for axis in range(lattice.dim_link))


def _zero_row(lattice: ModeLattice) -> int:
    """Row of the zero mode, -1 without one: the middle of the symmetric, sorted box."""
    return _mode_count(lattice) // 2 if lattice.contains_zero_mode else -1


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b by Python's complex product formula (numpy's may fuse multiply-adds)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True)
class BoundaryField:
    """Truncated link field; equality is exact equality of coefficient maps."""

    lattice: ModeLattice
    coefficients: dict[Mode, Pair]

    def __post_init__(self) -> None:
        rows = _mode_rows(self.lattice)
        if self.coefficients.keys() <= rows.keys():
            return
        n = self.lattice.cutoff
        for mode in self.coefficients:
            if mode in rows:
                continue
            coords = mode.as_tuple()
            if len(coords) != self.lattice.dim_link:
                raise DomainError(f"mode {mode} has the wrong dimension for the lattice")
            if not all(abs(c) <= n for c in coords):
                raise DomainError(f"mode {mode} lies outside the lattice cutoff {n}")
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


def pair_field(
    lattice: ModeLattice, plus_poly: dict[tuple[float, ...], complex], minus_poly: dict[tuple[float, ...], complex]
) -> BoundaryField:
    """Field (u+, u-) with first components from ``plus_poly`` and second from ``minus_poly``.

    The polynomials are keyed by mode tuples; modes are listed in order of
    first occurrence, ``plus_poly`` first (:func:`_pair_stacks`).
    """
    plus_keys, minus_keys = list(plus_poly), list(minus_poly)
    [(_, keys, pairs)] = _pair_stacks(
        plus_keys, np.array([list(plus_poly.values())], dtype=complex).reshape(1, -1), np.ones((1, len(plus_keys)), bool),
        minus_keys, np.array([list(minus_poly.values())], dtype=complex).reshape(1, -1), np.ones((1, len(minus_keys)), bool),
    )
    return field(lattice, {Mode(*key): (x, y) for key, (x, y) in zip(keys, pairs[0].tolist())})


def _pair_stacks(
    plus_keys: list, plus: np.ndarray, plus_present: np.ndarray,
    minus_keys: list, minus: np.ndarray, minus_present: np.ndarray,
) -> list[tuple[np.ndarray, list, np.ndarray]]:
    """:func:`pair_field` of stacked polynomials, grouped by field pattern.

    Trial t's u+ holds ``plus[t]`` at the ``plus_keys`` where
    ``plus_present[t]``, and u- likewise; keys are any hashable mode labels.
    As :func:`pair_field` lists them, a trial's field holds its present plus
    keys in order, then its other present minus keys in order, less the
    modes whose pair is exactly zero.  Trials whose fields list the same
    modes, with zero components in the same places, form one group:
    (positions of its trials, its keys, its pairs (trials, modes, 2)), in
    order of first trial.
    """
    union = list(dict.fromkeys(plus_keys + minus_keys))
    at = {key: i for i, key in enumerate(union)}
    plus_at, minus_at = [at[key] for key in plus_keys], [at[key] for key in minus_keys]
    trials, size = len(plus), len(union)
    pairs = np.zeros((trials, size, 2), dtype=complex)
    pairs[:, plus_at, 0] = np.where(plus_present, plus, 0)
    pairs[:, minus_at, 1] = np.where(minus_present, minus, 0)
    in_plus = np.zeros((trials, size), dtype=bool)
    in_plus[:, plus_at] = plus_present
    listed = in_plus.copy()
    listed[:, minus_at] |= minus_present
    nonzero = pairs != 0
    listed &= nonzero.any(axis=2)
    # a key listed from plus sits at its plus position, any other after every plus key
    rank = np.full(size, len(plus_keys))
    rank[minus_at] += np.arange(len(minus_keys))
    plus_rank = np.zeros(size, dtype=int)
    plus_rank[plus_at] = np.arange(len(plus_keys))
    groups: dict[bytes, list[int]] = {}
    pattern = np.packbits(np.concatenate((listed, in_plus, nonzero.reshape(trials, -1)), axis=1), axis=1)
    for t, key in enumerate(map(bytes, pattern)):
        groups.setdefault(key, []).append(t)
    out = []
    for members in groups.values():
        first = members[0]
        cols = np.flatnonzero(listed[first])
        cols = cols[np.argsort(np.where(in_plus[first, cols], plus_rank[cols], rank[cols]), kind="stable")]
        out.append((np.array(members), [union[c] for c in cols], pairs[members][:, cols]))
    return out


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


def _draw_pairs(lattice: ModeLattice, rng: np.random.Generator, balanced: bool, count: int) -> np.ndarray:
    """The pairs of ``count`` consecutive :func:`random_field` draws, shape (count, modes, 2).

    Per mode, a field draws four uniforms (``rng.uniform(0.25, 1.0, 4)``
    when ``balanced``, else ``rng.uniform(-1.0, 1.0, 4)``) and, when
    ``balanced``, four signs (``rng.choice([-1.0, 1.0], 4)``).  All of them
    come from one ``random_raw`` call, decoded as numpy does: a uniform is
    ``low + (high - low) * ((w >> 11) * 2**-53)`` of one 64-bit word, and a
    sign is the top bit of a 32-bit half, the low half first, so two words
    give four signs.  A half the generator holds from an earlier 32-bit draw
    is used first, and the last unused half is left behind, so the
    generator's state, ``uinteger`` included, is the one the per-mode calls
    leave.  Only a PCG64 bit generator (``np.random.default_rng``) is
    accepted: the decoding is PCG64's.
    """
    bitgen = rng.bit_generator if isinstance(rng, np.random.Generator) else None
    if type(bitgen) is not np.random.PCG64:
        raise DomainError(f"random fields need a PCG64 generator (np.random.default_rng), got {rng!r}")
    shape = (count, _mode_count(lattice), 6 if balanced else 4)
    words = bitgen.random_raw(math.prod(shape)).reshape(shape)
    low, high = (0.25, 1.0) if balanced else (-1.0, 1.0)
    values = low + (high - low) * ((words[..., :4] >> 11) * 2.0**-53)
    if balanced and words.size:
        halves = np.stack((words[..., 4:] & 0xFFFFFFFF, words[..., 4:] >> 32), axis=-1).ravel()
        state = bitgen.state
        if state["has_uint32"]:
            halves = np.roll(halves, 1)
            halves[0] = state["uinteger"]
        state["uinteger"] = int(words[-1, -1, -1] >> 32)
        bitgen.state = state
        values *= np.where(halves.reshape(values.shape) >> 31, 1.0, -1.0)
    return values.view(complex)


def random_field(lattice: ModeLattice, rng: np.random.Generator, balanced: bool = True) -> BoundaryField:
    """Seeded random field; ``balanced`` keeps both components at unit scale.

    ``rng`` must be PCG64-backed (see :func:`_draw_pairs`).
    """
    pairs = _draw_pairs(lattice, rng, balanced, 1)[0].tolist()
    return field(lattice, dict(zip(enumerate_modes(lattice), pairs)))


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


def zero_mode_home(lattice: ModeLattice) -> SubspaceTag:
    if lattice.zero_mode_policy is ZeroModePolicy.ASSIGN_PLUS:
        return SubspaceTag.EXP_PLUS
    if lattice.zero_mode_policy is ZeroModePolicy.ASSIGN_MINUS:
        return SubspaceTag.EXP_MINUS
    return SubspaceTag.KER_DSIGMA


@functools.lru_cache(maxsize=64)
def _pattern_weights(lattice: ModeLattice, tag: SubspaceTag) -> np.ndarray:
    """:func:`pattern_second_weight` at each lattice mode (0 at the zero mode), in row order.

    Taken from the scalar formula: ``math.hypot`` and ``np.hypot`` can
    differ in the last bit.
    """
    return np.array(
        [0j if mode.is_zero else pattern_second_weight(tag, mode) for mode in enumerate_modes(lattice)],
        dtype=complex,
    )


def _stack(fld: BoundaryField) -> tuple[list[Mode], np.ndarray, np.ndarray]:
    """The field's modes, their lattice rows and their pairs as an (n, 2) complex array."""
    rows = _mode_rows(fld.lattice)
    modes = list(fld.coefficients)
    at = np.array([rows[mode] for mode in modes], dtype=np.intp)
    return modes, at, np.array(list(fld.coefficients.values()), dtype=complex).reshape(-1, 2)


def _unstack(lattice: ModeLattice, modes: list[Mode], pairs: np.ndarray) -> BoundaryField:
    """Field of the rows of ``pairs`` that are not exactly zero, in the order of ``modes``."""
    keep = np.flatnonzero((pairs != 0).any(axis=1)).tolist()
    return BoundaryField(lattice, {modes[i]: (x, y) for i, (x, y) in zip(keep, pairs[keep].tolist())})


def _project_rows(lattice: ModeLattice, at: np.ndarray, pairs: np.ndarray, tag: SubspaceTag) -> np.ndarray:
    """:func:`project` of the (n, 2) ``pairs`` sitting at lattice rows ``at``; the projected pairs."""
    _validate_tag(lattice, tag)
    out = np.zeros_like(pairs)
    if tag is not SubspaceTag.KER_DSIGMA:
        x, y = pairs.T
        w = _pattern_weights(lattice, tag)[at]
        c = _cmul(_HALF, x + _cmul(np.conj(w), y))
        pure = y == _cmul(w, x)
        out[:, 0] = np.where(pure, x, c)
        out[:, 1] = np.where(pure, y, _cmul(w, c))
    home = zero_mode_home(lattice)
    takes_zero = tag is home or (
        tag in (SubspaceTag.EXP_PLUS_ZERO, SubspaceTag.EEXP_MINUS_ZERO) and home is SubspaceTag.KER_DSIGMA
    )
    zero = at == _zero_row(lattice)
    out[zero] = pairs[zero] if takes_zero else 0
    return out


def project(fld: BoundaryField, tag: SubspaceTag) -> BoundaryField:
    """Project a field onto a tagged subspace, mode by mode.

    At a nonzero mode the pair (x, y) goes to (c, w c) with c = (x + conj(w) y)/2,
    the orthogonal projection onto span(1, w).  A pair already satisfying
    y == w x bitwise is kept unchanged, which makes repeated projection
    exactly idempotent.
    """
    modes, at, pairs = _stack(fld)
    return _unstack(fld.lattice, modes, _project_rows(fld.lattice, at, pairs, tag))


def _complement_component(total: np.ndarray, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m with fl(part + m) == total, nudged by up to three ulps; flags where it was reached.

    ``total`` broadcasts against ``part``.  Only the entries that miss at
    first are nudged (about one in ten).
    """
    total = np.broadcast_to(total, part.shape)
    m = total - part
    ok = part + m == total
    miss = np.flatnonzero(~ok)
    t, p, mm = total.ravel()[miss], part.ravel()[miss], m.ravel()[miss]
    hit = np.zeros(miss.shape, dtype=bool)
    for _ in range(3):
        nudged = np.nextafter(mm, np.where((p + mm) - t > 0, -np.inf, np.inf))
        mm = np.where(hit, mm, nudged)
        hit = p + mm == t
    m.ravel()[miss] = mm
    ok.ravel()[miss] = hit
    return m, ok


def _ulp_steps(x: np.ndarray, radius: int) -> np.ndarray:
    """x, then 1..radius ulps below, then 1..radius ulps above, along a new last axis."""
    steps = [x]
    for direction in (-np.inf, np.inf):
        step = x
        for _ in range(radius):
            step = np.nextafter(step, direction)
            steps.append(step)
    return np.stack(steps, axis=-1)


def _ulp_candidates(c: np.ndarray, radius: int = 2) -> np.ndarray:
    """Each c's complex neighbours within ``radius`` ulps per component, along a new last axis.

    Ordered by L1 distance to c, then real part, then imaginary part; the
    distance is rounded, so the order depends on each component's binade.
    """
    n = 2 * radius + 1
    re = np.repeat(_ulp_steps(c.real, radius), n, axis=-1)
    im = np.tile(_ulp_steps(c.imag, radius), n)
    dist = np.abs(re - c.real[..., None]) + np.abs(im - c.imag[..., None])
    order = np.lexsort((im, re, dist), axis=-1)
    out = np.empty(re.shape, dtype=complex)
    out.real = np.take_along_axis(re, order, axis=-1)
    out.imag = np.take_along_axis(im, order, axis=-1)
    return out


def _pattern_split(pairs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pattern-pure part (c, w c) of each pair and its exact complement.

    c runs through the ulp candidates of the projection coefficient; the
    first whose complement re-adds onto the pair in all four real components
    is taken.  Returns the parts and a flag for the pairs where one was found.
    """
    x, y = pairs.T
    cands = _ulp_candidates(_cmul(_HALF, x + _cmul(np.conj(w), y)))
    pattern = np.stack((cands, _cmul(w[:, None], cands)), axis=-1)
    rest, ok = _complement_component(pairs.view(float)[:, None, :], pattern.view(float))
    ok = ok.all(axis=-1)
    pick = (np.arange(len(pairs)), np.argmax(ok, axis=1))
    return pattern[pick], rest.view(complex)[pick], ok[pick]


def _split_rows(lattice: ModeLattice, at: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`split` of the (n, 2) ``pairs`` sitting at lattice rows ``at``; the three parts' pairs."""
    w = _pattern_weights(lattice, SubspaceTag.EXP_PLUS)[at]
    v = _pattern_weights(lattice, SubspaceTag.EXP_MINUS)[at]
    x, y = pairs.T
    plus, minus, ker = np.zeros_like(pairs), np.zeros_like(pairs), np.zeros_like(pairs)
    zero = at == _zero_row(lattice)
    on_plus = ~zero & (y == _cmul(w, x))
    on_minus = ~zero & ~on_plus & (y == _cmul(v, x))
    plus[on_plus] = pairs[on_plus]
    minus[on_minus] = pairs[on_minus]
    todo = np.flatnonzero(~(zero | on_plus | on_minus))
    k = todo.size
    pattern, rest, found = _pattern_split(np.tile(pairs[todo], (2, 1)), np.concatenate((w[todo], v[todo])))
    by_plus = found[:k]
    by_minus = ~by_plus & found[k:]
    plus[todo[by_plus]], minus[todo[by_plus]] = pattern[:k][by_plus], rest[:k][by_plus]
    plus[todo[by_minus]], minus[todo[by_minus]] = rest[k:][by_minus], pattern[k:][by_minus]
    halved = todo[~(by_plus | by_minus)]
    plus[halved] = minus[halved] = _cmul(_HALF, pairs[halved])
    home = {SubspaceTag.EXP_PLUS: plus, SubspaceTag.EXP_MINUS: minus, SubspaceTag.KER_DSIGMA: ker}
    home[zero_mode_home(lattice)][zero] = pairs[zero]
    return plus, minus, ker


def split(fld: BoundaryField) -> tuple[BoundaryField, BoundaryField, BoundaryField]:
    """Exact three-way partition (plus, minus, kernel) of a field.

    One half is pattern-pure and the other is its exact complement
    (off-pattern by ulps); ``plus + minus + kernel`` reproduces the input
    bitwise, unconditionally.  A pair already on the plus (minus) pattern
    goes whole to that half.  When some component of the complement cannot
    round onto the input (a round-to-even parity lock), the pattern
    coefficient is moved by up to two ulps, which breaks the alignment.  If
    no plus-side candidate works, the complement's binade is too coarse and
    the minus half carries the pure pattern instead; if neither side works
    (heavy cancellation between the pattern halves), both halves get the
    exactly halved pair.
    """
    modes, at, pairs = _stack(fld)
    return tuple(_unstack(fld.lattice, modes, part) for part in _split_rows(fld.lattice, at, pairs))


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
