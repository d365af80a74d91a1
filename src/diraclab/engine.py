"""Realified truncations of the conjugate-linear boundary operator.

The boundary operator sends a pair of link functions (a, b) to
``conj(d-) * a - d+ * conj(b)`` for a fixed symbol pair (d+, d-).  It is
complex-linear in ``a`` and conjugate-linear in ``b``, so its truncations
are assembled as real matrices on realified coefficients; kernel, cokernel
and index are therefore reported in real dimensions, with the complex count
being half of that (an odd real index can only arise from a misranked SVD
and is treated as instability).

Truncation scheme.  The domain keeps one complex parameter per tagged-
subspace mode inside the cutoff box.  The codomain keeps, per axis, exactly
as many consecutive modes of the shifted codomain lattice as the full field
box has, positioned to cover as much of the convolution-reachable set as
possible (ties resolved toward the centered window).  Matching the counts
this way keeps edge effects from manufacturing spurious cokernel: a box
padded by the symbol bandwidth inflates the cokernel by a constant
per-cutoff offset and never stabilizes to the operator's index, while the
matched window reproduces the structural count (for a separated zero mode
the codomain keeps its shadow, which is the whole source of the nonzero
index in the trivial-offset torus model).

Stabilization is evidence, not proof: an index is only claimed when the
real index agrees across the last three cutoffs and every truncation shows
a spectral gap of at least 1e3 around the rank threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryField, SubspaceTag, field, pattern_second_weight
from .errors import DomainError, NumericError
from .lattice import Mode, ModeLattice, ZeroModePolicy, enumerate_modes

ModeKey = tuple[float, ...]
TrigPoly = dict[ModeKey, complex]

NONDEGENERACY_GRID = 1024
STABLE_GAP = 1e3
DEFAULT_TOL_REL = 1e-8


def _poly_offsets(poly: TrigPoly, dim: int) -> tuple[float, ...] | None:
    offs: tuple[float, ...] | None = None
    for key in poly:
        if len(key) != dim:
            raise DomainError(f"symbol mode {key} has wrong dimension (expected {dim})")
        this = tuple(c - math.floor(c) for c in key)
        if any(o not in (0.0, 0.5) for o in this):
            raise DomainError(f"symbol mode {key} is not on an integer or half-integer lattice")
        if offs is None:
            offs = this
        elif this != offs:
            raise DomainError("symbol modes must share a single lattice offset per axis")
    return offs


@dataclass(frozen=True)
class SymbolData:
    """Trigonometric-polynomial symbol pair on the link.

    Coefficient maps are keyed by mode tuples ((l,) or (l, m)); both parts
    must live on one common integer or half-integer lattice per axis so
    that the operator's output lands on a single mode lattice.
    """

    dim: int
    d_plus: TrigPoly
    d_minus: TrigPoly

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise DomainError(f"symbol dimension must be 1 or 2, got {self.dim}")
        op = _poly_offsets(self.d_plus, self.dim)
        om = _poly_offsets(self.d_minus, self.dim)
        if op is not None and om is not None and op != om:
            raise DomainError("d+ and d- must share a single lattice offset per axis")
        if op is None and om is None:
            raise DomainError("symbol must have at least one nonzero coefficient")

    @property
    def offsets(self) -> tuple[float, ...]:
        return _poly_offsets(self.d_plus, self.dim) or _poly_offsets(self.d_minus, self.dim)  # type: ignore[return-value]

    @property
    def bandwidth(self) -> float:
        mags = [abs(c) for key in list(self.d_plus) + list(self.d_minus) for c in key]
        return max(mags) if mags else 0.0

    def _values_on_grid(self, poly: TrigPoly, n: int) -> np.ndarray:
        """Pointwise values on the n-per-axis double-cover grid [0, 4pi)^dim."""
        xs = 4.0 * math.pi * np.arange(n) / n
        if self.dim == 1:
            out = np.zeros(n, dtype=complex)
            for (l,), c in poly.items():
                out += c * np.exp(1j * l * xs)
            return out
        out = np.zeros((n, n), dtype=complex)
        for (l, m), c in poly.items():
            out += c * np.outer(np.exp(1j * l * xs), np.exp(1j * m * xs))
        return out

    def nondegeneracy_minimum(self, n: int = NONDEGENERACY_GRID) -> tuple[float, tuple[float, ...]]:
        """Minimum of |d+|^2 + |d-|^2 on the sample grid, with its location."""
        dp = self._values_on_grid(self.d_plus, n)
        dm = self._values_on_grid(self.d_minus, n)
        dens = np.abs(dp) ** 2 + np.abs(dm) ** 2
        idx = np.unravel_index(int(np.argmin(dens)), dens.shape)
        point = tuple(4.0 * math.pi * i / n for i in idx)
        return float(dens[idx]), point

    def require_nondegenerate(self, n: int = NONDEGENERACY_GRID) -> None:
        if getattr(self, "_nondegenerate_grid", 0) >= n:
            return
        if not np.all(np.isfinite(list(self.d_plus.values()) + list(self.d_minus.values()))):
            raise DomainError("symbol coefficients must be finite")
        lo, point = self.nondegeneracy_minimum(n)
        if not lo > 0.0:  # also rejects a NaN minimum
            raise DomainError(
                f"symbol violates |d+|^2 + |d-|^2 > 0 at sample point {point}"
            )
        object.__setattr__(self, "_nondegenerate_grid", n)  # memo on the frozen instance


def poly_conj(poly: TrigPoly) -> TrigPoly:
    return {tuple(-c for c in key): coeff.conjugate() for key, coeff in poly.items()}


def poly_mul(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    out: TrigPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0 + 0.0j) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def apply_T(symbol: SymbolData, fld: BoundaryField) -> TrigPoly:
    """Exact convolution image conj(d-)*a - d+*conj(b) of a boundary field."""
    out: TrigPoly = {}
    for mode, (x, y) in fld.coefficients.items():
        lam = mode.as_tuple()
        if len(lam) != symbol.dim:
            raise DomainError("field and symbol dimensions differ")
        if x != 0:
            for mu, c in symbol.d_minus.items():
                j = tuple(li - mi for li, mi in zip(lam, mu))
                out[j] = out.get(j, 0.0 + 0.0j) + c.conjugate() * x
        if y != 0:
            for mu, c in symbol.d_plus.items():
                j = tuple(mi - li for li, mi in zip(lam, mu))
                out[j] = out.get(j, 0.0 + 0.0j) - c * y.conjugate()
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# domain bases and codomain windows


def _domain_params(
    lattice: ModeLattice, N_dom: int, tag: SubspaceTag
) -> list[tuple[Mode, str]]:
    """Ordered complex parameters of the tagged subspace in the cutoff box.

    Patterned tags contribute one parameter per nonzero mode; the zero mode
    contributes its two raw components wherever the tag (or the circle-link
    policy) places it.
    """
    modes = enumerate_modes(lattice, N_dom)
    params: list[tuple[Mode, str]] = []
    zero_home: SubspaceTag | None = None
    if lattice.contains_zero_mode:
        if lattice.zero_mode_policy is ZeroModePolicy.ASSIGN_PLUS:
            zero_home = SubspaceTag.EXP_PLUS
        elif lattice.zero_mode_policy is ZeroModePolicy.ASSIGN_MINUS:
            zero_home = SubspaceTag.EXP_MINUS
        else:
            zero_home = SubspaceTag.KER_DSIGMA
    for mode in modes:
        if mode.is_zero:
            takes_zero = (
                tag is zero_home
                or (tag is SubspaceTag.EXP_PLUS_ZERO and zero_home in (SubspaceTag.KER_DSIGMA, SubspaceTag.EXP_PLUS))
                or (tag is SubspaceTag.EEXP_MINUS_ZERO and zero_home is SubspaceTag.KER_DSIGMA)
            )
            if takes_zero:
                params.append((mode, "zero1"))
                params.append((mode, "zero2"))
            continue
        if tag is SubspaceTag.KER_DSIGMA:
            continue
        params.append((mode, "pattern"))
    if not params:
        raise DomainError(f"tag {tag.value} has an empty truncated domain")
    return params


def _basis_field(lattice: ModeLattice, mode: Mode, kind: str, tag: SubspaceTag, unit: complex) -> BoundaryField:
    if kind == "zero1":
        return field(lattice, {mode: (unit, 0.0 + 0.0j)})
    if kind == "zero2":
        return field(lattice, {mode: (0.0 + 0.0j, unit)})
    base = SubspaceTag.EXP_PLUS if tag is SubspaceTag.EXP_PLUS_ZERO else tag
    base = SubspaceTag.EEXP_MINUS if tag is SubspaceTag.EEXP_MINUS_ZERO else base
    w = pattern_second_weight(base, mode)
    return field(lattice, {mode: (unit, w * unit)})


def _axis_window(
    dom_lo: float,
    dom_hi: float,
    length: int,
    offset: float,
    dm_axis: list[float],
    dp_axis: list[float],
) -> list[float]:
    """Pick `length` consecutive codomain-lattice modes covering the reach.

    The reachable set on this axis is the union of the two convolution
    images of the domain interval; among all windows of the required length
    the one covering most of it wins, ties going to the most centered one.
    """
    intervals: list[tuple[float, float]] = []
    if dm_axis:
        intervals.append((dom_lo - max(dm_axis), dom_hi - min(dm_axis)))
    if dp_axis:
        intervals.append((min(dp_axis) - dom_hi, max(dp_axis) - dom_lo))
    lo = min(i[0] for i in intervals)
    hi = max(i[1] for i in intervals)

    def covered(x: float) -> bool:
        return any(a - 1e-9 <= x <= b + 1e-9 for a, b in intervals)

    first = math.ceil(lo - offset - length) + offset
    best_key: tuple[float, float, float] | None = None
    best: list[float] | None = None
    start = first
    while start <= hi + 1.0:
        window = [start + j for j in range(length)]
        score = sum(1 for x in window if covered(x))
        center = (window[0] + window[-1]) / 2.0
        key = (-score, abs(center), center)
        if best_key is None or key < best_key:
            best_key, best = key, window
        start += 1.0
    assert best is not None
    return best


def codomain_window(symbol: SymbolData, lattice: ModeLattice, N_dom: int) -> list[ModeKey]:
    """Codomain mode tuples for the truncated operator, in lexicographic order."""
    windows: list[list[float]] = []
    for axis in range(lattice.dim_link):
        field_off = lattice.offsets[axis]
        sym_off = symbol.offsets[axis]
        cod_off = (field_off - sym_off) % 1.0
        dom_coords = lattice.axis_coordinates(field_off, N_dom)
        dm_axis = [key[axis] for key in symbol.d_minus]
        dp_axis = [key[axis] for key in symbol.d_plus]
        windows.append(
            _axis_window(
                dom_coords[0],
                dom_coords[-1],
                lattice.axis_count(axis, N_dom),
                cod_off,
                dm_axis,
                dp_axis,
            )
        )
    if lattice.dim_link == 1:
        return [(x,) for x in windows[0]]
    return [(x, y) for x in windows[0] for y in windows[1]]


@dataclass(frozen=True)
class RealifiedOperator:
    """Dense real matrix with basis descriptors for a real-linear map."""

    matrix: np.ndarray
    row_basis: list[tuple[ModeKey, str]]
    col_basis: list[tuple[ModeKey, str, str]]
    domain_tag: str
    codomain_tag: str = "scalar"

    def __post_init__(self) -> None:
        rows, cols = self.matrix.shape
        if rows != len(self.row_basis) or cols != len(self.col_basis):
            raise DomainError("matrix dimensions do not match basis descriptors")
        if len(set(self.row_basis)) != rows or len(set(self.col_basis)) != cols:
            raise DomainError("basis descriptors must be duplicate-free")


def realified_multiplication_by_i(n_complex: int) -> np.ndarray:
    """Realified block matrix of z -> i z on n complex coordinates."""
    J = np.zeros((2 * n_complex, 2 * n_complex))
    for k in range(n_complex):
        J[2 * k, 2 * k + 1] = -1.0
        J[2 * k + 1, 2 * k] = 1.0
    return J


def build_T(
    symbol: SymbolData,
    lattice: ModeLattice,
    N_dom: int,
    domain_tag: SubspaceTag,
) -> RealifiedOperator:
    """Assemble the realified truncation of the boundary operator.

    Columns are produced by exact convolution of the tagged basis fields
    (each complex parameter contributes its 1 and i unit vectors); the
    conjugate-linear part realifies into reflection blocks, the linear part
    into rotation blocks.
    """
    if N_dom < 1:
        raise DomainError(f"domain cutoff must be >= 1, got {N_dom}")
    if symbol.dim != lattice.dim_link:
        raise DomainError("symbol and lattice dimensions differ")
    symbol.require_nondegenerate()
    params = _domain_params(lattice, N_dom, domain_tag)
    cod_modes = codomain_window(symbol, lattice, N_dom)
    cod_index = {m: i for i, m in enumerate(cod_modes)}

    sub_lattice = ModeLattice(
        dim_link=lattice.dim_link,
        offset_t=lattice.offset_t,
        offset_s=lattice.offset_s,
        cutoff=N_dom,
        zero_mode_policy=lattice.zero_mode_policy,
    )
    matrix = np.zeros((2 * len(cod_modes), 2 * len(params)))
    for col, (mode, kind) in enumerate(params):
        for uidx, unit in enumerate((1.0 + 0.0j, 1j)):
            bf = _basis_field(sub_lattice, mode, kind, domain_tag, unit)
            image = apply_T(symbol, bf)
            for key, val in image.items():
                row = cod_index.get(key)
                if row is None:
                    continue  # trimmed by the matched window
                matrix[2 * row, 2 * col + uidx] = val.real
                matrix[2 * row + 1, 2 * col + uidx] = val.imag

    row_basis = [(m, part) for m in cod_modes for part in ("re", "im")]
    col_basis = [
        (mode.as_tuple(), kind, part) for mode, kind in params for part in ("re", "im")
    ]
    return RealifiedOperator(
        matrix=matrix,
        row_basis=row_basis,
        col_basis=col_basis,
        domain_tag=domain_tag.value,
    )


def build_T_full(symbol: SymbolData, lattice: ModeLattice, N_dom: int) -> RealifiedOperator:
    """Realified operator on the raw per-mode component basis of the full field space.

    Unlike :func:`build_T`, the codomain keeps every convolution-reachable
    mode, so applying the matrix to a realified field reproduces the exact
    image; used by the kernel-identity checks and assembly-oracle tests.
    """
    if N_dom < 1:
        raise DomainError(f"domain cutoff must be >= 1, got {N_dom}")
    if symbol.dim != lattice.dim_link:
        raise DomainError("symbol and lattice dimensions differ")
    modes = enumerate_modes(lattice, N_dom)
    reachable: set[ModeKey] = set()
    for mode in modes:
        lam = mode.as_tuple()
        for mu in symbol.d_minus:
            reachable.add(tuple(li - mi for li, mi in zip(lam, mu)))
        for mu in symbol.d_plus:
            reachable.add(tuple(mi - li for li, mi in zip(lam, mu)))
    cod_modes = sorted(reachable)
    cod_index = {m: i for i, m in enumerate(cod_modes)}
    sub_lattice = ModeLattice(
        dim_link=lattice.dim_link,
        offset_t=lattice.offset_t,
        offset_s=lattice.offset_s,
        cutoff=N_dom,
        zero_mode_policy=lattice.zero_mode_policy,
    )
    params = [(mode, comp) for mode in modes for comp in ("comp1", "comp2")]
    matrix = np.zeros((2 * len(cod_modes), 2 * len(params)))
    for col, (mode, comp) in enumerate(params):
        for uidx, unit in enumerate((1.0 + 0.0j, 1j)):
            pair = (unit, 0.0 + 0.0j) if comp == "comp1" else (0.0 + 0.0j, unit)
            image = apply_T(symbol, field(sub_lattice, {mode: pair}))
            for key, val in image.items():
                row = cod_index[key]
                matrix[2 * row, 2 * col + uidx] = val.real
                matrix[2 * row + 1, 2 * col + uidx] = val.imag
    row_basis = [(m, part) for m in cod_modes for part in ("re", "im")]
    col_basis = [(mode.as_tuple(), comp, part) for mode, comp in params for part in ("re", "im")]
    return RealifiedOperator(
        matrix=matrix, row_basis=row_basis, col_basis=col_basis, domain_tag="Full"
    )


# ---------------------------------------------------------------------------
# SVD index machinery


@dataclass(frozen=True)
class CutoffIndex:
    cutoff: int
    rows: int
    cols: int
    dim_ker: int
    dim_coker: int
    index_real: int
    spectral_gap: float
    sigma_max: float

    def to_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "rows": self.rows,
            "cols": self.cols,
            "dim_ker": self.dim_ker,
            "dim_coker": self.dim_coker,
            "index_real": self.index_real,
            "spectral_gap": self.spectral_gap,
            "sigma_max": self.sigma_max,
        }


def numerical_index(op: RealifiedOperator, tol_rel: float, cutoff: int = 0) -> CutoffIndex:
    """Kernel/cokernel dimensions of one truncation by thresholded SVD.

    Singular values below ``tol_rel * sigma_max`` count as zero; the
    spectral gap is the ratio of the last kept to the first dropped value
    (or the distance of the smallest kept value to the threshold when
    nothing is dropped).
    """
    matrix = op.matrix
    if matrix.size == 0:
        raise DomainError("cannot rank an empty operator")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    sigma_max = float(sigma[0])
    if sigma_max == 0.0:
        raise DomainError("degenerate operator: all singular values vanish")
    threshold = tol_rel * sigma_max
    rank = int(np.sum(sigma >= threshold))
    rows, cols = matrix.shape
    dim_ker = cols - rank
    dim_coker = rows - rank
    if rank < len(sigma):
        first_dropped = float(sigma[rank])
        gap = float(sigma[rank - 1] / first_dropped) if first_dropped > 0 else math.inf
    else:
        gap = float(sigma[-1] / threshold)
    return CutoffIndex(
        cutoff=cutoff,
        rows=rows,
        cols=cols,
        dim_ker=dim_ker,
        dim_coker=dim_coker,
        index_real=dim_ker - dim_coker,
        spectral_gap=gap,
        sigma_max=sigma_max,
    )


@dataclass(frozen=True)
class IndexReport:
    """Stabilized-index verdict across a cutoff ladder."""

    cutoffs: list[int]
    per_cutoff: list[CutoffIndex]
    svd_tolerance: float
    stable: bool
    index_real: int | None
    index_complex: float | None
    domain_tag: str

    @property
    def dim_ker(self) -> list[int]:
        return [c.dim_ker for c in self.per_cutoff]

    @property
    def dim_coker(self) -> list[int]:
        return [c.dim_coker for c in self.per_cutoff]

    @property
    def spectral_gap(self) -> list[float]:
        return [c.spectral_gap for c in self.per_cutoff]

    def to_dict(self) -> dict:
        return {
            "cutoffs": self.cutoffs,
            "per_cutoff": [c.to_dict() for c in self.per_cutoff],
            "svd_tolerance": self.svd_tolerance,
            "stable": self.stable,
            "index_real": self.index_real,
            "index_complex": self.index_complex,
            "domain_tag": self.domain_tag,
        }


def stabilized_index(
    symbol: SymbolData,
    lattice: ModeLattice,
    cutoffs: list[int],
    domain_tag: SubspaceTag,
    tol_rel: float = DEFAULT_TOL_REL,
) -> IndexReport:
    """Run the truncation ladder and claim an index only on stable evidence.

    Stability requires the real index to agree on the last three cutoffs,
    every spectral gap to clear 1e3, and every real index to be even (an
    odd count can only come from a misranked realified matrix).
    """
    if len(cutoffs) < 3:
        raise DomainError("stabilization needs at least 3 cutoffs")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise DomainError("cutoffs must be strictly increasing")

    per_cutoff = [numerical_index(build_T(symbol, lattice, n, domain_tag), tol_rel, cutoff=n) for n in cutoffs]

    tail = [c.index_real for c in per_cutoff[-3:]]
    stable = (
        len(set(tail)) == 1
        and all(c.spectral_gap >= STABLE_GAP for c in per_cutoff)
        and all(c.index_real % 2 == 0 for c in per_cutoff)
    )
    idx_real = tail[0] if stable else None
    return IndexReport(
        cutoffs=list(cutoffs),
        per_cutoff=per_cutoff,
        svd_tolerance=tol_rel,
        stable=stable,
        index_real=idx_real,
        index_complex=(idx_real / 2.0) if idx_real is not None else None,
        domain_tag=domain_tag.value,
    )


# ---------------------------------------------------------------------------
# linearization correspondences


def _double_cover_grid(n: int) -> np.ndarray:
    return 4.0 * math.pi * np.arange(n) / n


def _poly_values(poly: TrigPoly, dim: int, n: int) -> np.ndarray:
    xs = _double_cover_grid(n)
    if dim == 1:
        out = np.zeros(n, dtype=complex)
        for (l,), c in poly.items():
            out += c * np.exp(1j * l * xs)
        return out
    out = np.zeros((n, n), dtype=complex)
    for (l, m), c in poly.items():
        out += c * np.outer(np.exp(1j * l * xs), np.exp(1j * m * xs))
    return out


def _project_values(
    values: np.ndarray, dim: int, n: int, modes: list[ModeKey]
) -> TrigPoly:
    """Exact trapezoid projection of grid values onto the given mode set."""
    xs = _double_cover_grid(n)
    out: TrigPoly = {}
    if dim == 1:
        for (l,) in modes:
            coeff = complex(np.mean(values * np.exp(-1j * l * xs)))
            if abs(coeff) > 1e-15:
                out[(l,)] = coeff
        return out
    for (l, m) in modes:
        phase = np.outer(np.exp(-1j * l * xs), np.exp(-1j * m * xs))
        coeff = complex(np.mean(values * phase))
        if abs(coeff) > 1e-15:
            out[(l, m)] = coeff
    return out


def _grid_size(*freq_maxima: float) -> int:
    fmax = max([1.0, *freq_maxima])
    return 4 * math.ceil(fmax) + 8


def _field_parts(fld: BoundaryField) -> tuple[TrigPoly, TrigPoly]:
    a: TrigPoly = {}
    b: TrigPoly = {}
    for mode, (x, y) in fld.coefficients.items():
        if x != 0:
            a[mode.as_tuple()] = x
        if y != 0:
            b[mode.as_tuple()] = y
    return a, b


def _eta_modes(lattice: ModeLattice, symbol: SymbolData, cutoff: int) -> list[ModeKey]:
    coords = []
    for axis in range(lattice.dim_link):
        off = (lattice.offsets[axis] - symbol.offsets[axis]) % 1.0
        axis_coords = []
        k = math.ceil(-cutoff - off)
        while k + off <= cutoff + 1e-9:
            if abs(k + off) <= cutoff + 1e-9:
                axis_coords.append(k + off)
            k += 1
        coords.append(axis_coords)
    if lattice.dim_link == 1:
        return [(x,) for x in coords[0]]
    return [(x, y) for x in coords[0] for y in coords[1]]


def reconstruct_eta(
    u: BoundaryField, symbol: SymbolData, kernel_residual_tol: float = 1e-8
) -> TrigPoly:
    """Recover the reparametrization function from kernel boundary data.

    For data of the shape (d+ * eta, d- * conj(eta)) the function is read
    off pointwise on the better-conditioned branch, ``u+/d+`` where
    |d+| >= |d-| and ``conj(u-/d-)`` elsewhere; the two branch values are
    cross-checked wherever both denominators exceed 1e-6.  The input must
    be annihilated by the boundary operator to within the stated residual.
    """
    dim = symbol.dim
    image = apply_T(symbol, u)
    resid = max((abs(v) for v in image.values()), default=0.0)
    if resid >= kernel_residual_tol:
        raise DomainError(
            f"input is not kernel data: operator residual {resid:.3e} >= {kernel_residual_tol:.1e}"
        )
    a, b = _field_parts(u)
    n = _grid_size(
        u.lattice.cutoff + symbol.bandwidth,
        symbol.bandwidth,
    )
    dp = _poly_values(symbol.d_plus, dim, n)
    dm = _poly_values(symbol.d_minus, dim, n)
    ua = _poly_values(a, dim, n)
    ub = _poly_values(b, dim, n)

    use_plus = np.abs(dp) >= np.abs(dm)
    with np.errstate(divide="ignore", invalid="ignore"):
        branch_plus = np.where(dp != 0, ua / np.where(dp != 0, dp, 1.0), 0.0)
        branch_minus = np.conj(np.where(dm != 0, ub / np.where(dm != 0, dm, 1.0), 0.0))
    eta_vals = np.where(use_plus, branch_plus, branch_minus)

    both = (np.abs(dp) > 1e-6) & (np.abs(dm) > 1e-6)
    if np.any(both):
        disagree = np.abs(branch_plus - branch_minus)[both]
        scale = np.maximum(1.0, np.abs(eta_vals[both]))
        worst = float(np.max(disagree / scale))
        if worst > 1e-6:
            raise NumericError(
                f"branch formulas disagree by {worst:.3e} relative; input not in the kernel"
            )
    return _project_values(eta_vals, dim, n, _eta_modes(u.lattice, symbol, u.lattice.cutoff))


def cokernel_correspondence(
    u: BoundaryField,
    symbol: SymbolData,
    relation_tol: float = 1e-8,
    orthogonality_tol: float = 1e-8,
) -> TrigPoly:
    """Recover the cokernel scalar from boundary data and verify duality.

    The data must satisfy d- * conj(u+) = conj(d+) * u- pointwise; the
    scalar is then ``conj(u+)/conj(d+)`` or ``u-/d-`` on the better
    conditioned branch.  The result is checked to be real-orthogonal, in
    Re int f conj(g), to the operator images of the kernel test fields
    (d+ eta, d- conj(eta)) over the exponential basis of reparametrizations.
    """
    dim = symbol.dim
    a, b = _field_parts(u)
    n = _grid_size(u.lattice.cutoff + symbol.bandwidth, symbol.bandwidth)
    dp = _poly_values(symbol.d_plus, dim, n)
    dm = _poly_values(symbol.d_minus, dim, n)
    ua = _poly_values(a, dim, n)
    ub = _poly_values(b, dim, n)

    relation = np.abs(dm * np.conj(ua) - np.conj(dp) * ub)
    worst = float(np.max(relation)) if relation.size else 0.0
    if worst >= relation_tol:
        raise DomainError(
            f"not a cokernel element: relation residual {worst:.3e} >= {relation_tol:.1e}"
        )

    use_plus = np.abs(dp) >= np.abs(dm)
    with np.errstate(divide="ignore", invalid="ignore"):
        branch_plus = np.where(dp != 0, np.conj(ua) / np.conj(np.where(dp != 0, dp, 1.0)), 0.0)
        branch_minus = np.where(dm != 0, ub / np.where(dm != 0, dm, 1.0), 0.0)
    c_vals = np.where(use_plus, branch_plus, branch_minus)
    c_poly = _project_values(c_vals, dim, n, _eta_modes(u.lattice, symbol, u.lattice.cutoff))

    eta_cutoff = u.lattice.cutoff - math.ceil(symbol.bandwidth)
    worst_orth = 0.0
    if eta_cutoff >= 0:
        for eta_key in _eta_modes(u.lattice, symbol, eta_cutoff):
            eta: TrigPoly = {eta_key: 1.0 + 0.0j}
            w_plus = poly_mul(symbol.d_plus, eta)
            w_minus = poly_mul(symbol.d_minus, poly_conj(eta))
            coeffs = {}
            for key, val in w_plus.items():
                coeffs.setdefault(key, [0.0 + 0.0j, 0.0 + 0.0j])[0] += val
            for key, val in w_minus.items():
                coeffs.setdefault(key, [0.0 + 0.0j, 0.0 + 0.0j])[1] += val
            w_field = field(
                u.lattice, {Mode(*key): (v[0], v[1]) for key, v in coeffs.items()}
            )
            image = apply_T(symbol, w_field)
            pair = sum(
                (image.get(k, 0) * c_poly.get(k, 0).conjugate()) for k in set(image) | set(c_poly)
            )
            worst_orth = max(worst_orth, abs(pair.real))
    if worst_orth > orthogonality_tol:
        raise NumericError(
            f"cokernel orthogonality residual {worst_orth:.3e} > {orthogonality_tol:.1e}"
        )
    return c_poly


# ---------------------------------------------------------------------------
# virtual-dimension ledger


@dataclass(frozen=True)
class LedgerInput:
    """Integer inputs of the virtual-dimension bookkeeping."""

    ahat_integral: int = 0
    dim_ker_dsigma: int = 0
    dim_ker_dminus_l21: int = 0
    index_t_exp_minus: int = 0

    def __post_init__(self) -> None:
        for name in ("dim_ker_dsigma", "dim_ker_dminus_l21"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


def virtual_dimension_ledger(inp: LedgerInput, mode: str) -> dict:
    """Evaluate the index bookkeeping chain in 3D or 4D mode.

    3D mode ignores the genus input: the operator index equals minus the
    special-kernel dimension, so the virtual dimension cancels to zero for
    every input.  4D mode reproduces the chain step by step; the half of
    the link-kernel dimension must be an integer.
    """
    if mode == "3D":
        k = inp.dim_ker_dminus_l21
        index_tb = -k
        virtual = index_tb + k
        chain = [
            f"dim ker(D|L^2_1) = {k}",
            f"index(T o B) = index(p^-) = -dim ker(D|L^2_1) = {index_tb}",
            f"virtual dim = index(T o B) + dim ker(D|L^2_1) = {index_tb} + {k} = {virtual}",
        ]
        return {"index_T_circ_B": index_tb, "virtual_dim": virtual, "chain": chain}
    if mode == "4D":
        if inp.dim_ker_dsigma % 2 != 0:
            raise DomainError(
                f"dim ker(D_Sigma) = {inp.dim_ker_dsigma} is odd; its half must be an integer"
            )
        half = inp.dim_ker_dsigma // 2
        index_pm = inp.ahat_integral + half + inp.dim_ker_dminus_l21
        index_tb = inp.index_t_exp_minus + index_pm
        virtual = index_tb - inp.dim_ker_dminus_l21
        chain = [
            f"inputs: Ahat = {inp.ahat_integral}, dim ker(D_Sigma) = {inp.dim_ker_dsigma}, "
            f"dim ker(D^-|L^2_1) = {inp.dim_ker_dminus_l21}, index(T|minus-half) = {inp.index_t_exp_minus}",
            f"index(p^-) = Ahat + (1/2) dim ker(D_Sigma) + dim ker(D^-|L^2_1) = "
            f"{inp.ahat_integral} + {half} + {inp.dim_ker_dminus_l21} = {index_pm}",
            f"index(T o B) = index(T|minus-half) + index(p^-) = "
            f"{inp.index_t_exp_minus} + {index_pm} = {index_tb}",
            f"virtual dim = index(T o B) - dim ker(D^-|L^2_1) = "
            f"{index_tb} - {inp.dim_ker_dminus_l21} = {virtual}",
        ]
        return {"index_T_circ_B": index_tb, "virtual_dim": virtual, "chain": chain}
    raise DomainError(f"ledger mode must be '3D' or '4D', got {mode!r}")


# ---------------------------------------------------------------------------
# symbol generation and diagnostics


def random_symbol(
    lattice: ModeLattice,
    rng: np.random.Generator,
    bandwidth: float,
    offsets: tuple[float, ...] | None = None,
    min_density: float = 1e-2,
    grid_n: int = 256,
    max_tries: int = 100,
) -> SymbolData:
    """Seeded random nondegenerate symbol pair with the given bandwidth.

    Coefficients are drawn uniformly from the complex unit disc on the
    requested lattice (the field lattice's offsets by default) and the pair
    is rejection-sampled until min |d+|^2 + |d-|^2 clears ``min_density``
    on the sample grid.
    """
    offs = offsets if offsets is not None else lattice.offsets
    axis_modes: list[list[float]] = []
    for off in offs:
        coords = []
        k = math.ceil(-bandwidth - off)
        while k + off <= bandwidth + 1e-9:
            if abs(k + off) <= bandwidth + 1e-9:
                coords.append(k + off)
            k += 1
        axis_modes.append(coords)
    keys: list[ModeKey]
    if len(axis_modes) == 1:
        keys = [(x,) for x in axis_modes[0]]
    else:
        keys = [(x, y) for x in axis_modes[0] for y in axis_modes[1]]

    def draw() -> TrigPoly:
        out: TrigPoly = {}
        for key in keys:
            r = math.sqrt(rng.uniform(0.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out[key] = r * complex(math.cos(phi), math.sin(phi))
        return out

    for _ in range(max_tries):
        symbol = SymbolData(dim=lattice.dim_link, d_plus=draw(), d_minus=draw())
        lo, _ = symbol.nondegeneracy_minimum(grid_n)
        if lo >= min_density:
            return symbol
    raise NumericError(f"no nondegenerate symbol found in {max_tries} draws")


def winding_number(poly: TrigPoly, grid_n: int = 4096) -> float | None:
    """Winding of a circle-link trig polynomial around 0, if it never vanishes.

    Computed on the double cover and halved, so half-integer-mode symbols
    report half-integer windings.  Returns None when the symbol passes too
    close to zero for the count to mean anything.  Diagnostic only.
    """
    for key in poly:
        if len(key) != 1:
            raise DomainError("winding numbers are only defined on a circle link")
    xs = _double_cover_grid(grid_n)
    vals = np.zeros(grid_n, dtype=complex)
    for (l,), c in poly.items():
        vals += c * np.exp(1j * l * xs)
    if vals.size == 0 or np.min(np.abs(vals)) < 1e-9:
        return None
    phases = np.angle(vals)
    increments = np.diff(np.concatenate([phases, phases[:1]]))
    increments = (increments + math.pi) % (2.0 * math.pi) - math.pi
    winding_double_cover = np.sum(increments) / (2.0 * math.pi)
    return float(round(winding_double_cover)) / 2.0

