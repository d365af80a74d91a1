"""The array-native boundary-operator kernel against the loop code it replaced.

Each oracle below is the earlier per-mode or per-column implementation:
the matrices and convolution images must agree bit for bit, the batched
duality residuals to the rounding of the products they sum, and the
separable grid evaluator to 1e-13 relative.
"""

import math

import numpy as np
import pytest

from diraclab import (
    DomainError,
    Mode,
    ModeLattice,
    SubspaceTag,
    SymbolData,
    ZeroModePolicy,
    apply_T,
    build_T,
    build_T_full,
    field,
    pattern_second_weight,
    random_symbol,
)
from diraclab import engine
from diraclab.boundary import random_field
from diraclab.lattice import axis_coordinates, enumerate_modes


# ---------------------------------------------------------------------------
# oracles


def apply_T_loop(symbol, fld):
    out = {}
    for mode, (x, y) in fld.coefficients.items():
        lam = mode.as_tuple()
        if x != 0:
            for mu, c in symbol.d_minus.items():
                j = tuple(li - mi for li, mi in zip(lam, mu))
                out[j] = out.get(j, 0.0 + 0.0j) + c.conjugate() * x
        if y != 0:
            for mu, c in symbol.d_plus.items():
                j = tuple(mi - li for li, mi in zip(lam, mu))
                out[j] = out.get(j, 0.0 + 0.0j) - c * y.conjugate()
    return {k: v for k, v in out.items() if v != 0}


def _sub_lattice(lattice, N_dom):
    return ModeLattice(dim_link=lattice.dim_link, offset_t=lattice.offset_t, offset_s=lattice.offset_s,
                       cutoff=N_dom, zero_mode_policy=lattice.zero_mode_policy)


def basis_field_loop(lattice, mode, kind, tag, unit):
    if kind == "zero1":
        return field(lattice, {mode: (unit, 0.0 + 0.0j)})
    if kind == "zero2":
        return field(lattice, {mode: (0.0 + 0.0j, unit)})
    base = SubspaceTag.EXP_PLUS if tag is SubspaceTag.EXP_PLUS_ZERO else tag
    base = SubspaceTag.EEXP_MINUS if tag is SubspaceTag.EEXP_MINUS_ZERO else base
    w = pattern_second_weight(base, mode)
    return field(lattice, {mode: (unit, w * unit)})


def build_T_loop(symbol, lattice, N_dom, tag):
    params = engine._domain_params(lattice, N_dom, tag)
    cod_modes = engine.codomain_window(symbol, lattice, N_dom)
    cod_index = {m: i for i, m in enumerate(cod_modes)}
    sub = _sub_lattice(lattice, N_dom)
    matrix = np.zeros((2 * len(cod_modes), 2 * len(params)))
    for col, (mode, kind) in enumerate(params):
        for uidx, unit in enumerate((1.0 + 0.0j, 1j)):
            image = apply_T_loop(symbol, basis_field_loop(sub, mode, kind, tag, unit))
            for key, val in image.items():
                row = cod_index.get(key)
                if row is None:
                    continue
                matrix[2 * row, 2 * col + uidx] = val.real
                matrix[2 * row + 1, 2 * col + uidx] = val.imag
    row_basis = [(m, part) for m in cod_modes for part in ("re", "im")]
    col_basis = [(mode.as_tuple(), kind, part) for mode, kind in params for part in ("re", "im")]
    return matrix, row_basis, col_basis


def build_T_full_loop(symbol, lattice, N_dom):
    modes = enumerate_modes(lattice, N_dom)
    reachable = set()
    for mode in modes:
        lam = mode.as_tuple()
        for mu in symbol.d_minus:
            reachable.add(tuple(li - mi for li, mi in zip(lam, mu)))
        for mu in symbol.d_plus:
            reachable.add(tuple(mi - li for li, mi in zip(lam, mu)))
    cod_modes = sorted(reachable)
    cod_index = {m: i for i, m in enumerate(cod_modes)}
    sub = _sub_lattice(lattice, N_dom)
    params = [(mode, comp) for mode in modes for comp in ("comp1", "comp2")]
    matrix = np.zeros((2 * len(cod_modes), 2 * len(params)))
    for col, (mode, comp) in enumerate(params):
        for uidx, unit in enumerate((1.0 + 0.0j, 1j)):
            pair = (unit, 0.0 + 0.0j) if comp == "comp1" else (0.0 + 0.0j, unit)
            for key, val in apply_T_loop(symbol, field(sub, {mode: pair})).items():
                row = cod_index[key]
                matrix[2 * row, 2 * col + uidx] = val.real
                matrix[2 * row + 1, 2 * col + uidx] = val.imag
    row_basis = [(m, part) for m in cod_modes for part in ("re", "im")]
    col_basis = [(mode.as_tuple(), comp, part) for mode, comp in params for part in ("re", "im")]
    return matrix, row_basis, col_basis


def assemble_add_at(symbol, params, pairs, cod_modes):
    """The dense assembler the triplet operator replaced: ``np.add.at`` into a zero matrix."""
    units = np.array([1.0, 1j])
    weights = np.array(pairs, dtype=complex)
    x = engine._cmul(weights[:, :1], units).ravel()
    y = engine._cmul(weights[:, 1:], units).ravel()
    lam2 = np.repeat(engine._doubled([mode.as_tuple() for mode, _ in params], symbol.dim), 2, axis=0)
    keys, vals = engine._images(engine._stack_symbols([symbol]), lam2, x, y)
    vals = vals[0]
    table = None if cod_modes is None else engine._doubled(cod_modes, symbol.dim)
    table, rows = engine._key_rows(keys, table)
    col, term = np.nonzero(rows >= 0)
    row = rows[col, term]
    matrix = np.zeros((2 * len(table), len(lam2)))
    np.add.at(matrix, (2 * row, col), vals[col, term].real)
    np.add.at(matrix, (2 * row + 1, col), vals[col, term].imag)
    return matrix


def build_T_add_at(symbol, lattice, N_dom, tag):
    params = engine._domain_params(lattice, N_dom, tag)
    pairs = [engine._UNIT_PAIRS.get(kind) or (1.0, pattern_second_weight(tag, mode)) for mode, kind in params]
    return assemble_add_at(symbol, params, pairs, engine.codomain_window(symbol, lattice, N_dom))


def build_T_full_add_at(symbol, lattice, N_dom):
    params = [(mode, comp) for mode in enumerate_modes(lattice, N_dom) for comp in ("comp1", "comp2")]
    return assemble_add_at(symbol, params, [engine._UNIT_PAIRS[comp] for _, comp in params], None)


def assert_same_matrix(op, matrix):
    """The operator's dense form is ``matrix`` bitwise, and its entries are exactly the nonzeros."""
    assert np.array_equal(op.matrix, matrix)
    assert np.array_equal(np.signbit(op.matrix), np.signbit(matrix))
    order = np.lexsort((op.col, op.row))
    row, col = np.nonzero(matrix)
    assert np.array_equal(op.row[order], row) and np.array_equal(op.col[order], col)
    assert np.array_equal(op.value[order], matrix[row, col])


def duality_residuals_loop(lattice, symbol, eta_cutoff, c_poly):
    out = []
    for eta_key in engine._eta_modes(lattice, symbol, eta_cutoff):
        eta = {eta_key: 1.0 + 0.0j}
        w_plus = engine.poly_mul(symbol.d_plus, eta)
        w_minus = engine.poly_mul(symbol.d_minus, engine.poly_conj(eta))
        coeffs = {}
        for key, val in w_plus.items():
            coeffs.setdefault(key, [0.0 + 0.0j, 0.0 + 0.0j])[0] += val
        for key, val in w_minus.items():
            coeffs.setdefault(key, [0.0 + 0.0j, 0.0 + 0.0j])[1] += val
        w_field = field(lattice, {Mode(*key): (v[0], v[1]) for key, v in coeffs.items()})
        image = apply_T_loop(symbol, w_field)
        pair = sum((image.get(k, 0) * c_poly.get(k, 0).conjugate()) for k in set(image) | set(c_poly))
        out.append(pair.real)
    return np.array(out)


def poly_values_loop(poly, dim, n):
    xs = 4.0 * math.pi * np.arange(n) / n
    if dim == 1:
        out = np.zeros(n, dtype=complex)
        for (l,), c in poly.items():
            out += c * np.exp(1j * l * xs)
        return out
    out = np.zeros((n, n), dtype=complex)
    for (l, m), c in poly.items():
        out += c * np.outer(np.exp(1j * l * xs), np.exp(1j * m * xs))
    return out


def project_values_loop(values, dim, n, modes):
    xs = 4.0 * math.pi * np.arange(n) / n
    out = {}
    for key in modes:
        phase = np.exp(-1j * key[0] * xs)
        if dim == 2:
            phase = np.outer(phase, np.exp(-1j * key[1] * xs))
        out[key] = complex(np.mean(values * phase))
    return out


def axis_loop(offset, bound, slack):
    out = []
    k = math.ceil(-bound - offset)
    while k + offset <= bound + slack:
        if abs(k + offset) <= bound + slack:
            out.append(k + offset)
        k += 1
    return out


def random_symbol_loop(lattice, rng, bandwidth, min_density=1e-2, grid_n=256, max_tries=100):
    """The draw loop on the whole-grid scan; returns the symbol and how many draws it rejected."""
    axis_modes = [axis_loop(off, bandwidth, 1e-9) for off in lattice.offsets]
    if len(axis_modes) == 1:
        keys = [(x,) for x in axis_modes[0]]
    else:
        keys = [(x, y) for x in axis_modes[0] for y in axis_modes[1]]

    def draw():
        out = {}
        for key in keys:
            r = math.sqrt(rng.uniform(0.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out[key] = r * complex(math.cos(phi), math.sin(phi))
        return out

    for rejected in range(max_tries):
        symbol = SymbolData(dim=lattice.dim_link, d_plus=draw(), d_minus=draw())
        if nondegeneracy_minimum_whole(symbol, grid_n)[0] >= min_density:
            return symbol, rejected
    raise AssertionError("oracle found no symbol")


# ---------------------------------------------------------------------------
# lattices and symbols


CIRCLES = [
    ModeLattice(dim_link=1, offset_t=off, cutoff=6, zero_mode_policy=policy)
    for off in (0.0, 0.5)
    for policy in ZeroModePolicy
]
TORI = [ModeLattice(dim_link=2, offset_t=t, offset_s=s, cutoff=6) for t in (0.0, 0.5) for s in (0.0, 0.5)]


def symbols_for(lattice, seed):
    """A random two-part symbol, a one-part symbol of each kind and one on the other lattice parity."""
    rng = np.random.default_rng(seed)
    bandwidth = 1.5 if lattice.dim_link == 1 else 1.0
    mixed = random_symbol(lattice, rng, bandwidth)
    other = tuple(0.5 - o for o in lattice.offsets)
    return [
        mixed,
        SymbolData(dim=mixed.dim, d_plus={}, d_minus=mixed.d_minus),
        SymbolData(dim=mixed.dim, d_plus=mixed.d_plus, d_minus={}),
        random_symbol(lattice, rng, bandwidth, offsets=other),
    ]


def bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("lattice", CIRCLES + TORI, ids=str)
def test_build_T_is_bit_identical_to_the_per_column_assembler(lattice):
    cutoffs = range(1, 7) if lattice.dim_link == 1 else (1, 2, 4, 6)
    for seed, symbol in enumerate(symbols_for(lattice, 11)):
        for N in cutoffs:
            for tag in SubspaceTag:
                try:
                    matrix, rows, cols = build_T_loop(symbol, lattice, N, tag)
                except DomainError:
                    with pytest.raises(DomainError):
                        build_T(symbol, lattice, N, tag)
                    continue
                op = build_T(symbol, lattice, N, tag)
                assert_same_matrix(op, matrix)
                assert_same_matrix(op, build_T_add_at(symbol, lattice, N, tag))
                assert op.row_basis == rows and op.col_basis == cols


@pytest.mark.parametrize("lattice", CIRCLES + TORI, ids=str)
def test_build_T_full_is_bit_identical_to_the_per_column_assembler(lattice):
    for symbol in symbols_for(lattice, 12):
        for N in range(1, 7):
            matrix, rows, cols = build_T_full_loop(symbol, lattice, N)
            op = build_T_full(symbol, lattice, N)
            assert_same_matrix(op, matrix)
            assert_same_matrix(op, build_T_full_add_at(symbol, lattice, N))
            assert op.row_basis == rows and op.col_basis == cols


@pytest.mark.parametrize("lattice", CIRCLES[::3] + TORI, ids=str)
def test_apply_T_is_bitwise_equal_to_the_convolution_loop(lattice):
    rng = np.random.default_rng(13)
    for symbol in symbols_for(lattice, 13):
        for trial in range(5):
            fld = random_field(lattice, rng, balanced=bool(trial % 2))
            # zero components are skipped by the loop: knock some out
            coeffs = {m: (0j if i % 3 == 0 else x, 0j if i % 4 == 1 else y)
                      for i, (m, (x, y)) in enumerate(fld.coefficients.items())}
            for f in (fld, field(lattice, coeffs)):
                got, want = apply_T(symbol, f), apply_T_loop(symbol, f)
                assert list(got) == list(want)
                assert bits(got.values()) == bits(want.values())
    assert apply_T(symbols_for(lattice, 13)[0], field(lattice, {})) == {}


@pytest.mark.parametrize("lattice", [ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
                                     ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4)], ids=str)
def test_batched_duality_residuals_match_the_loop(lattice):
    rng = np.random.default_rng(14)
    bandwidth = 1.5 if lattice.dim_link == 1 else 1.0
    symbols, scalars = [], []
    for _ in range(5):
        symbol = random_symbol(lattice, rng, bandwidth)
        eta_cutoff = lattice.cutoff - math.ceil(symbol.bandwidth)
        c_poly = {key: complex(*rng.uniform(-1.0, 1.0, 2)) for key in engine._eta_modes(lattice, symbol, eta_cutoff)}
        c_modes2 = engine._doubled(list(c_poly), lattice.dim_link)
        stack = engine._stack_symbols([symbol])
        full = engine._full_reach(stack, lattice, lattice.cutoff)
        got = engine._duality_residuals(lattice, stack, full, eta_cutoff, c_modes2, np.array([list(c_poly.values())]))[0]
        want = duality_residuals_loop(lattice, symbol, eta_cutoff, c_poly)
        assert got.shape == want.shape and want.size > 0
        # both are roundoff of an exact zero (the test fields are kernel fields), so
        # they can differ by the rounding of the products summed: one unit of
        # eps * sum|c| * sum|d+| * sum|d-|; the loop alone reaches 1.05e-15 on the torus
        scale = sum(map(abs, c_poly.values())) * sum(map(abs, symbol.d_plus.values())) \
            * sum(map(abs, symbol.d_minus.values()))
        assert np.max(np.abs(got - want)) <= np.finfo(float).eps * scale
        symbols.append(symbol)
        scalars.append((got, list(c_poly.values())))
    # a stack of the five symbols gives each one's residuals bitwise
    stack = engine._stack_symbols(symbols)
    full = engine._full_reach(stack, lattice, lattice.cutoff)
    got = engine._duality_residuals(lattice, stack, full, eta_cutoff, c_modes2, np.array([c for _, c in scalars]))
    assert np.array_equal(got, np.array([alone for alone, _ in scalars]))


@pytest.mark.parametrize("n", [28, 256, 1024])
def test_separable_grid_evaluator_matches_the_outer_product_sum(n):
    rng = np.random.default_rng(n)
    circle = random_symbol(ModeLattice(dim_link=1, offset_t=0.5, cutoff=8), rng, 3.0)
    torus = random_symbol(ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.0, cutoff=8), rng, 1.5)
    for poly, dim in (({}, 1), ({}, 2), (circle.d_plus, 1), (torus.d_minus, 2), ({(2.0, -1.0): 0.5j}, 2)):
        got, want = engine._poly_values(poly, dim, n), poly_values_loop(poly, dim, n)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(want), initial=0.0))


def nondegeneracy_minimum_whole(symbol, n):
    """The unchunked scan: both grids whole, then the first minimum in row-major order."""
    dens = np.abs(engine._poly_values(symbol.d_plus, symbol.dim, n)) ** 2 \
        + np.abs(engine._poly_values(symbol.d_minus, symbol.dim, n)) ** 2
    idx = np.unravel_index(int(np.argmin(dens)), dens.shape)
    return float(dens[idx]), tuple(4.0 * math.pi * i / n for i in idx)


@pytest.mark.parametrize("chunk", [None, 64, 7 * 64])
def test_chunked_nondegeneracy_scan_matches_the_whole_grid(monkeypatch, chunk):
    if chunk is not None:  # blocks of one row, or of 7 and 4 rows with a short last block
        monkeypatch.setattr(engine, "_GRID_CHUNK_POINTS", chunk)
    rng = np.random.default_rng(16)
    later_block = 0
    for lattice in TORI:
        for bandwidth in (1.0, 1.5):
            symbol = random_symbol(lattice, rng, bandwidth)
            for n in (64, 100) if chunk is not None else (1024,):
                got, want = symbol.nondegeneracy_minimum(n), nondegeneracy_minimum_whole(symbol, n)
                assert got[0].hex() == want[0].hex() and got[1] == want[1]
                row = round(want[1][0] * n / (4.0 * math.pi))
                later_block += row >= max(1, engine._GRID_CHUNK_POINTS // n)
    assert later_block  # some minimum lies beyond the first block
    # every row of a t-independent symbol is bitwise the same, so its minimum
    # ties across all blocks; the first row's must win
    flat = SymbolData(dim=2, d_plus={(0.0, 1.0): 0.5}, d_minus={(0.0, 2.0): 1.0, (0.0, 0.0): -0.7j})
    n = 64 if chunk is not None else 1024
    got, want = flat.nondegeneracy_minimum(n), nondegeneracy_minimum_whole(flat, n)
    assert got[0].hex() == want[0].hex() and got[1] == want[1]
    assert want[1][0] == 0.0 and want[1][1] > 0.0
    circle = random_symbol(CIRCLES[1], rng, 3.0)
    assert circle.nondegeneracy_minimum(256) == nondegeneracy_minimum_whole(circle, 256)


def assert_same_minimum(symbol, n):
    got, want = symbol.nondegeneracy_minimum(n), nondegeneracy_minimum_whole(symbol, n)
    assert type(got[0]) is float and all(type(x) is float for x in got[1])
    assert got[0].hex() == want[0].hex() and got[1] == want[1]


def pruning_symbols():
    """Seeded torus symbols at every offset and three bandwidths, circle symbols and the all-rows cases."""
    rng = np.random.default_rng(23)
    symbols = [random_symbol(lattice, rng, bandwidth) for lattice in TORI for bandwidth in (1.0, 1.5, 2.7)]
    symbols += [random_symbol(lattice, rng, bandwidth) for lattice in CIRCLES[::3] for bandwidth in (1.0, 3.0)]
    return symbols + [
        SymbolData(dim=2, d_plus={(0.0, 1.0): 0.5}, d_minus={(0.0, 2.0): 1.0, (0.0, 0.0): -0.7j}),  # t-independent
        SymbolData(dim=2, d_plus={(1.5, -0.5): 0.3 + 0.4j}, d_minus={(0.5, 2.5): -1.0}),  # constant rho
        SymbolData(dim=2, d_plus={(0.0, 0.0): 1.0, (1.0, 1.0): math.nan}, d_minus={(0.0, 1.0): 0.5}),
        SymbolData(dim=1, d_plus={(0.5,): 1.0, (1.5,): math.nan}, d_minus={}),
        SymbolData(dim=2, d_plus={(0.0, 0.0): 1.0, (1.0, 0.0): 1e308}, d_minus={(0.0, 1.0): 0.5}),  # rho overflows
        SymbolData(dim=1, d_plus={(0.0,): 1e308, (1.0,): 1.0}, d_minus={(2.0,): 2.0}),
    ]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the 1e308 coefficients
@pytest.mark.parametrize("n", [63, 64, 100, 256, 1024])
def test_pruned_nondegeneracy_scan_matches_the_whole_grid(n):
    for symbol in pruning_symbols():
        assert_same_minimum(symbol, n)


def test_pruned_scan_reads_every_row_when_it_cannot_tell():
    symbols = pruning_symbols()
    flat, constant, nan, _, huge, _ = symbols[-6:]
    for symbol in (flat, constant, nan, huge):
        assert np.array_equal(engine._candidate_rows(symbol, 64), np.arange(64))
    assert np.array_equal(engine._candidate_rows(symbols[0], 63), np.arange(63))
    assert len(engine._candidate_rows(symbols[0], 64)) < 32
    assert nondegeneracy_minimum_whole(nan, 64)[1] == (0.0, 0.0)  # the first NaN


def near_tie():
    """Zeros of d+ on grid rows 2 and 12 of a 64-point torus grid, lifted by a constant |d-|^2.

    Their exact grid values differ by one ulp, with the smaller on row 12;
    the cheap pass orders them the other way.
    """
    z1, z2 = (complex(math.cos(4 * math.pi * p / 64), math.sin(4 * math.pi * p / 64)) for p in (2, 12))
    d_plus = {(0.0, 0.0): 1.3 * z1 * z2, (1.0, 0.0): -1.3 * (z1 + z2), (2.0, 0.0): 1.3}
    return SymbolData(dim=2, d_plus=d_plus, d_minus={(0.0, 1.0): 3e-8})


def test_pruned_scan_keeps_a_near_tie_in_distant_rows(monkeypatch):
    symbol = near_tie()
    value, point = nondegeneracy_minimum_whole(symbol, 64)
    assert round(point[0] * 64 / (4 * math.pi)) == 12
    assert_same_minimum(symbol, 64)
    # without the rounding slack the cheap pass keeps only row 2, one ulp too high
    monkeypatch.setattr(engine, "_density_bound", lambda symbol, M: 0.0)
    got = symbol.nondegeneracy_minimum(64)
    assert got[0] == value + np.spacing(value) and round(got[1][0] * 64 / (4 * math.pi)) == 2


@pytest.mark.parametrize("n", [64, 256])
def test_cheap_density_stays_well_inside_the_rounding_bound(n):
    half = n // 2
    for symbol in pruning_symbols()[:-6] + [near_tie()]:
        cheap = np.concatenate(list(engine._half_grid_density(engine._density_polynomial(symbol), n)))
        exact = np.abs(engine._poly_values(symbol.d_plus, symbol.dim, n)) ** 2 \
            + np.abs(engine._poly_values(symbol.d_minus, symbol.dim, n)) ** 2
        images = [exact[i:i + half] for i in (0, half)]  # both double-cover images of each half-grid row
        if symbol.dim == 2:
            images = [image[:, j:j + half] for image in images for j in (0, half)]
        worst = max(np.max(np.abs(image - cheap)) for image in images)
        assert worst < engine._density_bound(symbol, engine._density_scale(symbol)) / 8


def test_separable_projection_matches_the_mean_of_products():
    rng = np.random.default_rng(15)
    for dim, n in ((1, 28), (2, 28), (2, 48)):
        values = rng.normal(size=(3,) + (n,) * dim) + 1j * rng.normal(size=(3,) + (n,) * dim)
        modes = engine._eta_modes(ModeLattice(dim_link=dim, offset_t=0.5, cutoff=5),
                                  SymbolData(dim=dim, d_plus={}, d_minus={(0.0,) * dim: 1.0}), 5)
        got = engine._project_stack(values, n, engine._doubled(modes, dim))
        assert got.shape == (3, len(modes))
        assert np.array_equal(engine._significant(got), got)  # no coefficient is below the cut
        for trial, row in zip(values, got):
            want = project_values_loop(trial, dim, n, modes)
            assert max(abs(c - want[key]) for key, c in zip(modes, row.tolist())) <= 1e-15


@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("bound", [1, 1.5, 2.7, 3.0, 4, 8, 256])
def test_one_coordinate_enumerator_matches_the_slack_loops(offset, bound):
    got = axis_coordinates(offset, bound)
    assert got == axis_loop(offset, bound, 1e-12) == axis_loop(offset, bound, 1e-9)
    assert [type(x) for x in got] == [float] * len(got)


@pytest.mark.parametrize("lattice", [CIRCLES[0], CIRCLES[3], TORI[0], TORI[3]], ids=str)
@pytest.mark.parametrize("bandwidth", [1.0, 1.5, 2.7])
def test_random_symbol_draws_are_unchanged(lattice, bandwidth):
    strict = 0.3 if lattice.dim_link == 2 else 1.0  # some draws fail it, so both branches are compared
    rejected = {1e-2: 0, strict: 0}
    for min_density in rejected:
        for seed in (0, 1, 7):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_symbol(lattice, rng_new, bandwidth, min_density=min_density)
            want, skipped = random_symbol_loop(lattice, rng_old, bandwidth, min_density=min_density)
            rejected[min_density] += skipped
            assert list(got.d_plus.items()) == list(want.d_plus.items())
            assert list(got.d_minus.items()) == list(want.d_minus.items())
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert rejected[strict] > 0
