"""Fourier mode lattices of the link manifold.

The link is a circle (``dim_link == 1``) or a flat square torus
(``dim_link == 2``).  Spin structures enter through half-integer offsets of
the mode coordinates; a lattice with any half-integer offset has no zero
mode.  Everything here is immutable and hashable so modes can key
coefficient maps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DomainError

_VALID_OFFSETS = (0.0, 0.5)


class ZeroModePolicy(str, Enum):
    """How the circle-link zero mode is routed by the splitting machinery.

    ``SEPARATE`` keeps it as its own summand next to the plus/minus halves,
    mirroring the torus-link treatment of the link-operator kernel.
    ``ASSIGN_PLUS`` / ``ASSIGN_MINUS`` absorb the full two-dimensional zero
    mode into one half.  Only ``SEPARATE`` is meaningful for a torus link.
    """

    SEPARATE = "separate"
    ASSIGN_PLUS = "assign-plus"
    ASSIGN_MINUS = "assign-minus"


@dataclass(frozen=True, slots=True)
class Mode:
    """One Fourier mode of the link; ``m`` is ``None`` on a circle link."""

    l: float
    m: float | None = None

    @property
    def eigenvalue(self) -> float:
        """Nonnegative link Dirac eigenvalue sqrt(l^2 + m^2)."""
        if self.m is None:
            return abs(self.l)
        return math.hypot(self.l, self.m)

    @property
    def is_zero(self) -> bool:
        return self.l == 0.0 and (self.m is None or self.m == 0.0)

    def sort_key(self) -> tuple[float, float]:
        return (self.l, 0.0 if self.m is None else self.m)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.l,) if self.m is None else (self.l, self.m)


@dataclass(frozen=True)
class ModeLattice:
    """Truncated mode lattice with spin-structure offsets.

    ``offset_t`` shifts the ``l`` coordinate, ``offset_s`` the ``m``
    coordinate (ignored on a circle link).  ``cutoff`` keeps modes with
    every coordinate magnitude at most ``cutoff``.
    """

    dim_link: int
    offset_t: float
    offset_s: float = 0.0
    cutoff: int = 8
    zero_mode_policy: ZeroModePolicy = ZeroModePolicy.SEPARATE

    def __post_init__(self) -> None:
        if self.dim_link not in (1, 2):
            raise DomainError(f"dim_link must be 1 or 2, got {self.dim_link}")
        if self.offset_t not in _VALID_OFFSETS or self.offset_s not in _VALID_OFFSETS:
            raise DomainError(
                f"offsets must be 0 or 1/2, got ({self.offset_t}, {self.offset_s})"
            )
        if self.cutoff < 1:
            raise DomainError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.dim_link == 2 and self.zero_mode_policy is not ZeroModePolicy.SEPARATE:
            raise DomainError("torus links always keep the zero mode separate")

    @property
    def offsets(self) -> tuple[float, ...]:
        if self.dim_link == 1:
            return (self.offset_t,)
        return (self.offset_t, self.offset_s)

    @property
    def contains_zero_mode(self) -> bool:
        return all(off == 0.0 for off in self.offsets)

    def axis_count(self, axis: int, cutoff: int | None = None) -> int:
        """Number of lattice coordinates on one axis inside the cutoff box."""
        n = self.cutoff if cutoff is None else cutoff
        return 2 * n if self.offsets[axis] == 0.5 else 2 * n + 1


def axis_coordinates(offset: float, bound: float) -> list[float]:
    """All coordinates ``n + offset`` with magnitude <= ``bound``, ascending.

    Works on the doubled integers ``2n + 2*offset``, so the comparison with
    the bound is exact.
    """
    top = math.floor(2 * bound)
    top -= (top - round(2 * offset)) % 2  # largest doubled coordinate of the offset's parity
    return [d / 2 for d in range(-top, top + 1, 2)]


def box_keys(offsets: Sequence[float], bound: float) -> list[tuple[float, ...]]:
    """Mode tuples of the offset lattice with every coordinate magnitude <= ``bound``.

    Sorted lexicographically; one axis per offset.
    """
    return list(itertools.product(*(axis_coordinates(off, bound) for off in offsets)))


def enumerate_modes(lattice: ModeLattice, cutoff: int | None = None) -> list[Mode]:
    """All lattice modes in the cutoff box, sorted lexicographically by (l, m).

    The ordering is the basis order used for every matrix in the package;
    it is deterministic and stable across runs.  The zero mode appears iff
    every offset is zero.
    """
    n = lattice.cutoff if cutoff is None else cutoff
    return list(_box_modes(lattice.offsets, n))


@functools.lru_cache(maxsize=64)
def _box_modes(offsets: tuple[float, ...], bound: int) -> tuple[Mode, ...]:
    """The modes of one cutoff box, built once, so that every list of them shares the objects."""
    return tuple(Mode(*key) for key in box_keys(offsets, bound))


def generalized_sign(mode: Mode) -> complex:
    """Unit complex direction (l + i m) / sqrt(l^2 + m^2) of a nonzero mode.

    On a circle link this degenerates to the ordinary sign of ``l``.  The
    zero mode has no direction and must be routed through the link-kernel
    summand instead.
    """
    if mode.is_zero:
        raise DomainError("generalized sign is undefined at the zero mode")
    if mode.m is None:
        return complex(1.0 if mode.l > 0 else -1.0)
    a = mode.eigenvalue
    return complex(mode.l / a, mode.m / a)


def dirac_eigensection(mode: Mode) -> tuple[complex, complex]:
    """Component weights (1, -i*sign) of the link Dirac eigensection.

    The weights are relative to the scalar mode exp(i l t) exp(i m s); the
    pair solves the coupled link equations with eigenvalue sqrt(l^2+m^2).
    """
    if mode.is_zero:
        raise DomainError("the zero mode has no eigensection weights")
    return (1.0 + 0.0j, -1j * generalized_sign(mode))


def ker_dsigma_dimension(lattice: ModeLattice) -> int:
    """Complex dimension of the link Dirac kernel on a torus link.

    Both offsets zero means the two constant sections survive; any
    half-integer offset removes the zero mode entirely.
    """
    if lattice.dim_link != 2:
        raise DomainError(
            "link-kernel dimension is only defined for a torus link; the "
            "circle-link zero mode is handled by the lattice zero-mode policy"
        )
    return 2 if lattice.contains_zero_mode else 0
