import ctypes
import math
import tracemalloc

import numpy as np
import pytest

from diraclab import (
    DomainError,
    LedgerInput,
    Mode,
    ModeLattice,
    NumericError,
    RealifiedOperator,
    SubspaceTag,
    SymbolData,
    ZeroModePolicy,
    apply_T,
    build_T,
    build_T_full,
    cokernel_correspondence,
    field,
    numerical_index,
    random_symbol,
    reconstruct_eta,
    stabilized_index,
    virtual_dimension_ledger,
    winding_number,
)
from diraclab import engine, verify
from diraclab.boundary import pair_field
from diraclab.engine import (
    _axis_window,
    _band_singular_values,
    _block_labels,
    _block_singular_values,
    codomain_window,
    poly_conj,
    poly_mul,
    realified_multiplication_by_i,
)

HALF1 = ModeLattice(dim_link=1, offset_t=0.5, cutoff=8)
TRIV2 = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=8)


def test_symbol_validation():
    with pytest.raises(DomainError):
        SymbolData(dim=1, d_plus={}, d_minus={})
    with pytest.raises(DomainError):
        SymbolData(dim=1, d_plus={(0.5,): 1.0}, d_minus={(0.0,): 1.0})
    with pytest.raises(DomainError):
        SymbolData(dim=1, d_plus={(0.25,): 1.0}, d_minus={})
    sym = SymbolData(dim=1, d_plus={(1.0,): 1.0}, d_minus={(0.0,): 1.0})
    assert sym.offsets == (0.0,)
    assert sym.bandwidth == 1.0


def test_nondegeneracy_check_reports_failing_point():
    # |e^{it} - 1| vanishes at t = 0, which the sample grid hits exactly
    sym = SymbolData(dim=1, d_plus={(1.0,): 1.0, (0.0,): -1.0}, d_minus={})
    with pytest.raises(DomainError) as err:
        sym.require_nondegenerate()
    assert "sample point" in str(err.value)
    with pytest.raises(DomainError):
        build_T(sym, ModeLattice(dim_link=1, offset_t=0.5, cutoff=4), 4, SubspaceTag.EXP_MINUS)


def pointwise_projection_oracle(symbol, fld, cod_modes, n=512):
    """Dense oracle: evaluate conj(d-)a - d+ conj(b) on a grid, project by sums."""
    xs = 4.0 * math.pi * np.arange(n) / n
    dim = symbol.dim

    def values(poly):
        if dim == 1:
            out = np.zeros(n, dtype=complex)
            for (l,), c in poly.items():
                out += c * np.exp(1j * l * xs)
            return out
        out = np.zeros((n, n), dtype=complex)
        for (l, m), c in poly.items():
            out += c * np.outer(np.exp(1j * l * xs), np.exp(1j * m * xs))
        return out

    a_poly, b_poly = {}, {}
    for mode, (x, y) in fld.coefficients.items():
        if x != 0:
            a_poly[mode.as_tuple()] = x
        if y != 0:
            b_poly[mode.as_tuple()] = y
    total = np.conj(values(symbol.d_minus)) * values(a_poly) - values(symbol.d_plus) * np.conj(values(b_poly))
    out = {}
    for key in cod_modes:
        if dim == 1:
            phase = np.exp(-1j * key[0] * xs)
        else:
            phase = np.outer(np.exp(-1j * key[0] * xs), np.exp(-1j * key[1] * xs))
        out[key] = complex(np.mean(total * phase))
    return out


def test_apply_T_matches_pointwise_oracle():
    rng = np.random.default_rng(2)
    sym = SymbolData(
        dim=1,
        d_plus={(1.0,): 0.3 - 0.4j, (0.0,): 0.8},
        d_minus={(-1.0,): 1.0 + 0.2j, (0.0,): -0.1j},
    )
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=3)
    coeffs = {}
    for l in (-1.5, 0.5, 2.5):
        coeffs[Mode(l)] = (complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
    fld = field(lat, coeffs)
    image = apply_T(sym, fld)
    oracle = pointwise_projection_oracle(sym, fld, sorted(image))
    for key in image:
        assert image[key] == pytest.approx(oracle[key], rel=1e-12, abs=1e-12)


def test_build_T_identity_case_is_a_signed_permutation():
    sym = SymbolData(dim=1, d_plus={}, d_minus={(0.0,): 1.0})
    op = build_T(sym, HALF1, 8, SubspaceTag.EXP_MINUS)
    assert op.matrix.shape == (32, 32)
    assert np.array_equal(op.matrix, np.eye(32))


def test_build_T_pure_conjugation_blocks_are_reflections():
    sym = SymbolData(dim=1, d_plus={(0.0,): 1.0}, d_minus={})
    op = build_T(sym, HALF1, 4, SubspaceTag.EXP_MINUS)
    M = op.matrix
    assert np.array_equal(np.abs(M) > 0.5, np.abs(M) > 0.0)  # all entries 0 or +-1
    col = {desc: i for i, desc in enumerate(op.col_basis)}
    row = {desc: i for i, desc in enumerate(op.row_basis)}
    # p at mode l maps to i sign(l) conj(p) at mode -l: the 2x2 Re/Im block
    # is the reflection [[0, s], [s, 0]] (determinant -1, conjugate-linear)
    for l in (-3.5, -0.5, 2.5):
        s = 1.0 if l > 0 else -1.0
        block = M[np.ix_(
            [row[((-l,), "re")], row[((-l,), "im")]],
            [col[((l,), "pattern", "re")], col[((l,), "pattern", "im")]],
        )]
        assert np.array_equal(block, np.array([[0.0, s], [s, 0.0]]))
        assert np.linalg.det(block) == -1.0
    # applying the map twice gives p -> sign(-l) sign(l) p = -p
    assert np.array_equal(M @ M, -np.eye(M.shape[0]))


def test_build_T_mixed_symbol_matches_oracle_entrywise():
    sym = SymbolData(dim=1, d_plus={(1.0,): 1.0}, d_minus={(0.0,): 1.0})
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=4)
    op = build_T(sym, lat, 4, SubspaceTag.EXP_MINUS)
    from diraclab import pattern_second_weight

    for ci, (key, kind, part) in enumerate(op.col_basis):
        mode = Mode(*key)
        unit = 1.0 if part == "re" else 1j
        w = pattern_second_weight(SubspaceTag.EXP_MINUS, mode)
        fld = field(lat, {mode: (unit, w * unit)})
        oracle = pointwise_projection_oracle(sym, fld, [k for k, _ in op.row_basis[::2]])
        for ri, (rkey, rpart) in enumerate(op.row_basis):
            want = oracle[rkey].real if rpart == "re" else oracle[rkey].imag
            assert op.matrix[ri, ci] == pytest.approx(want, abs=1e-12)


def test_conjugation_block_structure_under_multiplication_by_i():
    lat = HALF1
    n_dom = lat.axis_count(0, 4)
    sym_minus = SymbolData(dim=1, d_plus={}, d_minus={(0.5,): 0.7 + 0.1j, (-0.5,): 0.2})
    sym_plus = SymbolData(dim=1, d_plus={(0.5,): 0.7 + 0.1j, (-0.5,): 0.2}, d_minus={})
    op_minus = build_T(sym_minus, lat, 4, SubspaceTag.EXP_MINUS)
    op_plus = build_T(sym_plus, lat, 4, SubspaceTag.EXP_MINUS)
    J_dom = realified_multiplication_by_i(n_dom)
    J_cod_minus = realified_multiplication_by_i(op_minus.matrix.shape[0] // 2)
    J_cod_plus = realified_multiplication_by_i(op_plus.matrix.shape[0] // 2)
    # the conj(d-) part is complex-linear, the d+ part conjugate-linear
    assert np.allclose(op_minus.matrix @ J_dom, J_cod_minus @ op_minus.matrix, atol=1e-14)
    assert np.allclose(op_plus.matrix @ J_dom, -J_cod_plus @ op_plus.matrix, atol=1e-14)


def test_codomain_window_counts():
    sym = SymbolData(dim=1, d_plus={(1.0,): 1.0}, d_minus={(0.0,): 1.0})
    window = codomain_window(sym, HALF1, 8)
    assert len(window) == HALF1.axis_count(0, 8)
    assert window[0] == (-7.5,) and window[-1] == (7.5,)
    # a pure half-integer shift slides the window off center
    sym2 = SymbolData(dim=2, d_plus={}, d_minus={(0.5, 0.0): 1.0})
    lat2 = ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.0, cutoff=4)
    window2 = codomain_window(sym2, lat2, 4)
    ts = sorted({k[0] for k in window2})
    assert ts == [float(t) for t in range(-4, 4)]


def scan_axis_window(dom_lo, dom_hi, length, offset, dm_axis, dp_axis):
    """Reference window picker: score every candidate start one by one."""
    intervals = []
    if dm_axis:
        intervals.append((dom_lo - max(dm_axis), dom_hi - min(dm_axis)))
    if dp_axis:
        intervals.append((min(dp_axis) - dom_hi, max(dp_axis) - dom_lo))
    lo = min(i[0] for i in intervals)
    hi = max(i[1] for i in intervals)

    def covered(x):
        return any(a - 1e-9 <= x <= b + 1e-9 for a, b in intervals)

    start = math.ceil(lo - offset - length) + offset
    best_key, best = None, None
    while start <= hi + 1.0:
        window = [start + j for j in range(length)]
        score = sum(1 for x in window if covered(x))
        center = (window[0] + window[-1]) / 2.0
        key = (-score, abs(center), center)
        if best_key is None or key < best_key:
            best_key, best = key, window
        start += 1.0
    return best


def test_axis_window_matches_scan_on_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(250):
        field_off, sym_off = rng.choice([0.0, 0.5], size=2)
        n = int(rng.integers(1, 20))
        dom_lo, dom_hi = -n + field_off, n - field_off
        sym_modes = [k + sym_off for k in range(-4, 5)]
        dm = [x for x in sym_modes if rng.uniform() < 0.3]
        dp = [x for x in sym_modes if rng.uniform() < 0.3]
        if not dm and not dp:
            dm = [sym_modes[int(rng.integers(len(sym_modes)))]]
        args = (dom_lo, dom_hi, int(rng.integers(1, 61)), (field_off - sym_off) % 1.0, dm, dp)
        assert _axis_window(*args) == scan_axis_window(*args)


def test_codomain_window_matches_scan_on_ladder_configs(monkeypatch):
    circle = ModeLattice(dim_link=1, offset_t=0.5, cutoff=256)
    cases = [(random_symbol(circle, np.random.default_rng(0), 3.0), circle, n) for n in (64, 128, 256)]
    for offs in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        lat = ModeLattice(dim_link=2, offset_t=offs[0], offset_s=offs[1], cutoff=16)
        sym = SymbolData(dim=2, d_plus={}, d_minus={offs: 0.8 - 0.9j})
        cases += [(sym, lat, n) for n in (8, 12, 16)]
    fast = [codomain_window(sym, lat, n) for sym, lat, n in cases]
    monkeypatch.setattr(engine, "_axis_window", scan_axis_window)
    assert fast == [codomain_window(sym, lat, n) for sym, lat, n in cases]


def dense_op(matrix, row_basis=None, col_basis=None):
    """Operator holding the nonzeros of a dense matrix, with placeholder bases by default."""
    rows, cols = matrix.shape
    row, col = np.nonzero(matrix)
    return RealifiedOperator(
        row=row,
        col=col,
        value=matrix[row, col],
        row_basis=row_basis or [((float(i),), "re") for i in range(rows)],
        col_basis=col_basis or [((float(i),), "pattern", "re") for i in range(cols)],
        domain_tag="ExpMinus",
    )


def test_numerical_index_trivial_cases():
    eye = np.eye(10)
    col_basis = [((float(i),), "pattern", p) for i in range(5) for p in ("re", "im")]
    op = dense_op(eye, [((float(i),), p) for i in range(5) for p in ("re", "im")], col_basis)
    assert np.array_equal(op.matrix, eye)
    rec = numerical_index(op, 1e-8)
    assert (rec.dim_ker, rec.dim_coker, rec.index_real) == (0, 0, 0)
    padded = np.vstack([eye, np.zeros((2, 10))])
    op2 = dense_op(padded, [((float(i),), p) for i in range(6) for p in ("re", "im")], col_basis)
    assert op2.shape == (12, 10)
    rec2 = numerical_index(op2, 1e-8)
    assert (rec2.dim_ker, rec2.dim_coker, rec2.index_real) == (0, 2, -2)
    with pytest.raises(DomainError):
        numerical_index(dense_op(np.zeros((2, 2))), 1e-8)


def test_realified_operator_validates_its_entries():
    bases = dict(row_basis=[((0.0,), "re"), ((0.0,), "im")],
                 col_basis=[((0.0,), "pattern", "re"), ((0.0,), "pattern", "im")], domain_tag="ExpMinus")
    for row, col, value in (([0, 2], [0, 1], [1.0, 2.0]),  # row outside the row basis
                            ([0, 1], [0, -1], [1.0, 2.0]),  # negative column
                            ([0, 1], [0], [1.0, 2.0])):  # lengths differ
        with pytest.raises(DomainError):
            RealifiedOperator(row=np.array(row), col=np.array(col), value=np.array(value), **bases)
    with pytest.raises(DomainError):
        RealifiedOperator(row=np.zeros(0, int), col=np.zeros(0, int), value=np.zeros(0),
                          **{**bases, "row_basis": [((0.0,), "re")] * 2})


def test_numerical_index_explicit_torus_case():
    sym = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0})
    op = build_T(sym, TRIV2, 8, SubspaceTag.EXP_MINUS)
    rec = numerical_index(op, 1e-8)
    assert rec.dim_ker == 0
    assert rec.dim_coker == 2
    assert rec.index_real == -2


def assert_matches_dense_svd(op, tol_rels=(1e-8,)):
    """The operator's singular values agree with the dense SVD's to roundoff and give its rank decisions."""
    rows, cols = op.shape
    dense = np.linalg.svd(op.matrix, compute_uv=False)
    blocked = _block_singular_values(op)
    assert blocked.shape == dense.shape
    assert np.max(np.abs(blocked - dense)) <= 1e-12 * dense[0]
    for tol_rel in tol_rels:
        rec = numerical_index(op, tol_rel)
        rank = int(np.sum(dense >= tol_rel * dense[0]))
        assert (rec.dim_ker, rec.dim_coker) == (cols - rank, rows - rank)


def assert_same_rank_decision(matrix, tol_rel=1e-8):
    """Block and dense singular values agree to roundoff and give one rank decision."""
    assert_matches_dense_svd(dense_op(matrix), (tol_rel,))


def test_block_singular_values_coupled_circle_is_the_dense_svd():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=16)
    for seed in range(4):
        sym = random_symbol(lat, np.random.default_rng(seed), 2.5)
        for n in (8, 16):
            op = build_T(sym, lat, n, SubspaceTag.EXP_MINUS)
            assert not _block_labels(op.row, op.col, op.shape).any()  # one component
            np.testing.assert_array_equal(
                _block_singular_values(op), np.linalg.svd(op.matrix, compute_uv=False)
            )


def circle_operator(seed, offset, n, tag=SubspaceTag.EXP_MINUS, policy=ZeroModePolicy.SEPARATE):
    lat = ModeLattice(dim_link=1, offset_t=offset, cutoff=n, zero_mode_policy=policy)
    return build_T(random_symbol(lat, np.random.default_rng(seed), 3.0), lat, n, tag)


def test_band_path_resolves_and_ranks_circle_operators_without_a_dense_svd(monkeypatch):
    routines = engine._band_lapack()
    assert routines is not None
    strided = np.zeros(4)[::2]
    with pytest.raises(ctypes.ArgumentError):  # the declared pointer types reject a strided buffer
        routines[1](engine._LAPACK_COL_MAJOR, b"U", 2, 0, 0, 0, strided, np.zeros(2),
                    *[np.zeros(1), 1] * 3, np.zeros(8))
    op = circle_operator(1, 0.5, 64)
    assert not _block_labels(op.row, op.col, op.shape).any()  # one component
    expected = np.linalg.svd(op.matrix, compute_uv=False)

    def no_dense_svd(*args, **kwargs):
        raise AssertionError("dense SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_dense_svd)
    band = _block_singular_values(op)
    assert np.max(np.abs(band - expected)) <= 1e-12 * expected[0]


def test_band_path_matches_dense_svd_on_random_circle_symbols():
    for seed, offset in ((1, 0.0), (2, 0.5), (3, 0.5)):
        for n in (64, 128, 256):
            op = circle_operator(seed, offset, n)
            assert _band_singular_values(op) is not None
            assert_matches_dense_svd(op)


def test_band_path_matches_dense_svd_for_every_tag_offset_and_zero_mode_policy():
    surplus = set()  # rows - cols of the operators ranked in band storage
    for offset in (0.0, 0.5):
        for policy in ZeroModePolicy:
            for tag in SubspaceTag:
                try:
                    op = circle_operator(4, offset, 48, tag, policy)
                except DomainError:  # the tag's truncated domain is empty
                    continue
                if _band_singular_values(op) is not None:
                    surplus.add(op.shape[0] - op.shape[1])
                assert_matches_dense_svd(op)
    assert surplus == {-2, 0, 2}


def test_band_path_ranks_the_degenerate_circle_symbol_like_the_dense_svd():
    # d+ = 1 - e^{-i} e^{it} vanishes at t = 1: sigma_min / sigma_max halves with each doubling of N
    sym = SymbolData(dim=1, d_plus={(0.0,): 1.0, (1.0,): -np.exp(-1j)}, d_minus={(0.0,): 1e-300})
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=512)
    for n in (64, 512):
        op = build_T(sym, lat, n, SubspaceTag.EXP_MINUS)
        band = _band_singular_values(op)
        ratio = band[-1] / band[0]
        assert ratio < (1e-2 if n == 64 else 1e-3)
        assert_matches_dense_svd(op, (ratio / 2, ratio * 2))


def test_block_singular_values_without_the_band_routines_is_the_dense_svd(monkeypatch):
    op = circle_operator(1, 0.0, 64)
    monkeypatch.setattr(engine, "_band_lapack", lambda: None)
    assert _band_singular_values(op) is None
    np.testing.assert_array_equal(_block_singular_values(op), np.linalg.svd(op.matrix, compute_uv=False))


def test_band_path_failure_is_a_numeric_error(monkeypatch):
    op = circle_operator(1, 0.0, 64)
    monkeypatch.setattr(engine, "_band_lapack", lambda: (lambda *args: -8, lambda *args: 0))
    with pytest.raises(NumericError, match="dgbbrd"):
        _block_singular_values(op)
    monkeypatch.setattr(engine, "_band_lapack", lambda: (lambda *args: 0, lambda *args: 3))
    with pytest.raises(NumericError, match="dbdsqr"):
        _block_singular_values(op)


def test_coupled_torus_block_is_wide_and_takes_the_dense_svd():
    lat = ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.5, cutoff=8)
    op = build_T(random_symbol(lat, np.random.default_rng(3), 1.5), lat, 8, SubspaceTag.EXP_MINUS)
    assert not _block_labels(op.row, op.col, op.shape).any()  # one component
    assert _band_singular_values(op) is None
    np.testing.assert_array_equal(_block_singular_values(op), np.linalg.svd(op.matrix, compute_uv=False))


def test_block_singular_values_explicit_torus_cases():
    for offs in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        lat = ModeLattice(dim_link=2, offset_t=offs[0], offset_s=offs[1], cutoff=8)
        sym = SymbolData(dim=2, d_plus={}, d_minus={offs: 1.3 * np.exp(0.7j)})
        for n in (4, 8):
            op = build_T(sym, lat, n, SubspaceTag.EXP_MINUS)
            assert len(np.unique(_block_labels(op.row, op.col, op.shape))) > 1
            assert_same_rank_decision(op.matrix)


def test_block_singular_values_on_permuted_block_diagonal():
    rng = np.random.default_rng(5)
    shapes = [(1, 1), (2, 2), (2, 2), (3, 2), (2, 4), (5, 5), (1, 3), (3, 3)]
    rows, cols = sum(r for r, _ in shapes) + 2, sum(c for _, c in shapes) + 3
    matrix = np.zeros((rows, cols))
    r0 = c0 = 0
    for r, c in shapes:
        matrix[r0:r0 + r, c0:c0 + c] = rng.standard_normal((r, c))
        r0, c0 = r0 + r, c0 + c
    # a rank-one 2x2 block, and the 5x5 block scaled to sit near the threshold
    matrix[3:5, 3:5] = np.outer(rng.standard_normal(2), rng.standard_normal(2))
    matrix[10:15, 11:16] *= 1e-9
    matrix = matrix[rng.permutation(rows)][:, rng.permutation(cols)]
    assert len(np.unique(_block_labels(*np.nonzero(matrix), matrix.shape))) == len(shapes) + 2 + 3
    for tol in (1e-12, 1e-8, 1e-6):
        assert_same_rank_decision(matrix, tol)
    assert_same_rank_decision(matrix.T)


def test_stabilized_index_sees_near_null_value_in_one_small_block():
    # d+ = c e^{2it}, d- = 1 on the trivial torus pairs each domain mode
    # lambda with (2, 0) - lambda; the fixed point lambda = (1, 0) is a lone
    # 2x2 block with singular values 1 +- |c|, so |c| = 1 - 1e-6 parks one
    # value 50x above the rank threshold while every other block is O(1)
    sym = SymbolData(dim=2, d_plus={(2.0, 0.0): 1.0 - 1e-6}, d_minus={(0.0, 0.0): 1.0})
    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=8)
    op = build_T(sym, lat, 8, SubspaceTag.EXP_MINUS)
    assert len(np.unique(_block_labels(op.row, op.col, op.shape))) > 100
    assert_same_rank_decision(op.matrix)
    rep = stabilized_index(sym, lat, [4, 6, 8], SubspaceTag.EXP_MINUS)
    assert not rep.stable
    assert rep.index_real is None
    assert all(g < 1e3 for g in rep.spectral_gap)
    assert rep.dim_ker == [0, 0, 0]


def test_torus_ladder_to_cutoff_32_never_holds_a_dense_matrix():
    # the dense matrix at N = 32 alone is 8450 x 8448 doubles (571 MB)
    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=32)
    sym = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 0.8 - 0.9j})
    tracemalloc.start()
    try:
        rep = stabilized_index(sym, lat, [16, 24, 32], SubspaceTag.EXP_MINUS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert rep.dim_ker == [0, 0, 0]
    assert [c.index_real for c in rep.per_cutoff] == [-2, -2, -2]
    assert [(c.rows, c.cols) for c in rep.per_cutoff][-1] == (8450, 8448)


def test_stabilized_index_spec_cases():
    sym = SymbolData(dim=1, d_plus={}, d_minus={(0.0,): 1.0})
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=32)
    rep = stabilized_index(sym, lat, [8, 16, 32], SubspaceTag.EXP_MINUS)
    assert rep.stable and rep.index_real == 0
    assert rep.dim_ker == [0, 0, 0] and rep.dim_coker == [0, 0, 0]

    sym2 = SymbolData(dim=1, d_plus={(1.0,): 1.0}, d_minus={(0.0,): 1.0})
    rep2 = stabilized_index(sym2, lat, [8, 16, 32], SubspaceTag.EXP_MINUS)
    assert rep2.stable and rep2.index_real == 0 and rep2.index_complex == 0.0

    sym3 = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0})
    lat3 = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=12)
    rep3 = stabilized_index(sym3, lat3, [4, 8, 12], SubspaceTag.EXP_MINUS)
    assert rep3.stable and rep3.index_complex == -1.0
    assert rep3.dim_ker == [0, 0, 0]


def test_stabilized_index_flags_instability_on_near_kernel_symbol():
    # perturbing the shift symbol moves its exact one-dimensional kernel to a
    # singular value ~ delta^2/2, parked just above the rank threshold: the
    # spectral gap collapses and no index may be claimed
    sym = SymbolData(dim=1, d_plus={(1.0,): 1.0, (0.0,): 3e-4}, d_minus={(0.0,): 1.0})
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=16)
    rep = stabilized_index(sym, lat, [4, 8, 16], SubspaceTag.EXP_MINUS)
    assert not rep.stable
    assert rep.index_real is None
    assert any(g < 1e3 for g in rep.spectral_gap)


def test_stabilized_index_validates_cutoffs():
    sym = SymbolData(dim=1, d_plus={}, d_minus={(0.0,): 1.0})
    with pytest.raises(DomainError):
        stabilized_index(sym, HALF1, [8, 16], SubspaceTag.EXP_MINUS)
    with pytest.raises(DomainError):
        stabilized_index(sym, HALF1, [8, 8, 16], SubspaceTag.EXP_MINUS)


def test_tolerance_robustness_of_verdicts():
    cases = [
        (SymbolData(dim=1, d_plus={}, d_minus={(0.0,): 1.0}),
         ModeLattice(dim_link=1, offset_t=0.5, cutoff=16), [4, 8, 16]),
        (SymbolData(dim=1, d_plus={(1.0,): 1.0}, d_minus={(0.0,): 1.0}),
         ModeLattice(dim_link=1, offset_t=0.5, cutoff=16), [4, 8, 16]),
        (SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0}),
         ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=6), [2, 4, 6]),
    ]
    rng = np.random.default_rng(12)
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=16)
    cases.append((random_symbol(lat, rng, 1.5), lat, [4, 8, 16]))
    for sym, lat_, cuts in cases:
        verdicts = {
            tol: stabilized_index(sym, lat_, cuts, SubspaceTag.EXP_MINUS, tol_rel=tol)
            for tol in (1e-10, 1e-8, 1e-6)
        }
        stables = {v.stable for v in verdicts.values()}
        indices = {v.index_real for v in verdicts.values()}
        assert len(stables) == 1 and len(indices) == 1


def test_kernel_identity_exact_through_the_matrix():
    rng = np.random.default_rng(4)
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)
    sym = random_symbol(lat, rng, 1.5)
    eta = {(float(j),): complex(*rng.uniform(-1, 1, 2)) for j in range(-4, 5)}
    fld = _kernel_field(lat, sym, eta)
    image = apply_T(sym, fld)
    assert max((abs(v) for v in image.values()), default=0.0) < 1e-13
    op = build_T_full(sym, lat, 6)
    lam2, pairs = engine._field_pairs(fld, sym)
    assert np.max(np.abs(op.matrix @ verify._realified(op.col_basis, lam2, pairs)[0])) < 1e-13


def test_reconstruct_eta_explicit_cases():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)
    sym = SymbolData(dim=1, d_plus={(0.5,): 1.0}, d_minus={(-0.5,): 1.0, (0.5,): 0.3})
    eta0 = {(1.0,): 1.0 + 0.0j}
    u = _kernel_field(lat, sym, eta0)
    got = reconstruct_eta(u, sym)
    assert abs(got[(1.0,)] - 1.0) < 1e-10
    assert all(abs(v) < 1e-10 for k, v in got.items() if k != (1.0,))
    # constant reparametrization
    u2 = _kernel_field(lat, sym, {(0.0,): 1.0 + 0.0j})
    got2 = reconstruct_eta(u2, sym)
    assert abs(got2[(0.0,)] - 1.0) < 1e-10


def _kernel_field(lat, sym, eta):
    return pair_field(lat, poly_mul(sym.d_plus, eta), poly_mul(sym.d_minus, poly_conj(eta)))


def test_reconstruct_eta_rejects_non_kernel_data():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)
    sym = SymbolData(dim=1, d_plus={(0.5,): 1.0}, d_minus={(-0.5,): 1.0})
    bad = field(lat, {Mode(0.5): (1.0, 0.0)})
    with pytest.raises(DomainError):
        reconstruct_eta(bad, sym)


def test_reconstruct_eta_branch_consistency_guard():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)
    sym = SymbolData(dim=1, d_plus={(0.5,): 1.0}, d_minus={(-0.5,): 1.0})
    # mismatched reparametrizations on the two components
    bad = pair_field(lat, poly_mul(sym.d_plus, {(1.0,): 1.0 + 0j}), poly_mul(sym.d_minus, poly_conj({(2.0,): 1.0 + 0j})))
    with pytest.raises(NumericError):
        reconstruct_eta(bad, sym, kernel_residual_tol=math.inf)


def test_cokernel_correspondence_explicit_cases():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)
    sym = SymbolData(dim=1, d_plus={(0.5,): 0.6}, d_minus={(-0.5,): 1.0})
    u = field(lat, {Mode(0.5): (0.6, 0.0), Mode(-0.5): (0.0, 1.0)})  # c0 = 1
    got = cokernel_correspondence(u, sym)
    assert abs(got[(0.0,)] - 1.0) < 1e-10

    lat2 = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4)
    sym2 = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0})
    u2 = field(lat2, {Mode(0.0, 1.0): (0.0, 1.0)})  # u = (0, e^{is})
    got2 = cokernel_correspondence(u2, sym2)
    assert abs(got2[(0.0, 1.0)] - 1.0) < 1e-12


def test_cokernel_correspondence_rejects_inconsistent_data():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=6)
    sym = SymbolData(dim=1, d_plus={(0.5,): 1.0}, d_minus={(-0.5,): 1.0})
    bad = field(lat, {Mode(0.5): (1.0, 0.0), Mode(-0.5): (0.0, 2.0)})
    with pytest.raises(DomainError):
        cokernel_correspondence(bad, sym)


def test_ledger_threedim_always_cancels():
    for k in range(0, 101):
        out = virtual_dimension_ledger(LedgerInput(dim_ker_dminus_l21=k), "3D")
        assert out["index_T_circ_B"] == -k
        assert out["virtual_dim"] == 0


def test_ledger_fourdim_chain():
    out = virtual_dimension_ledger(
        LedgerInput(ahat_integral=0, dim_ker_dsigma=2, dim_ker_dminus_l21=0, index_t_exp_minus=-1),
        "4D",
    )
    assert out["index_T_circ_B"] == 0 and out["virtual_dim"] == 0
    out2 = virtual_dimension_ledger(
        LedgerInput(ahat_integral=-2, dim_ker_dsigma=0, dim_ker_dminus_l21=1, index_t_exp_minus=0),
        "4D",
    )
    assert out2["index_T_circ_B"] == -1 and out2["virtual_dim"] == -2
    assert len(out2["chain"]) == 4
    with pytest.raises(DomainError):
        virtual_dimension_ledger(LedgerInput(dim_ker_dsigma=3), "4D")
    with pytest.raises(DomainError):
        virtual_dimension_ledger(LedgerInput(dim_ker_dminus_l21=-1), "3D")
    with pytest.raises(DomainError):
        virtual_dimension_ledger(LedgerInput(), "5D")


def test_random_symbol_is_seeded_and_nondegenerate():
    lat = ModeLattice(dim_link=1, offset_t=0.5, cutoff=8)
    a = random_symbol(lat, np.random.default_rng(9), 2.5)
    b = random_symbol(lat, np.random.default_rng(9), 2.5)
    assert a == b
    assert a.bandwidth <= 2.5
    lo, _ = a.nondegeneracy_minimum(256)
    assert lo > 0


def test_verify_symbol_memo_returns_the_draw_and_its_generator_state(monkeypatch):
    monkeypatch.setattr(verify, "_symbol_memo", {})
    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4)
    fresh = np.random.default_rng(12)
    want = [random_symbol(lat, fresh, 1.0) for _ in range(3)]
    for _ in range(2):  # the second pass is served from the memo
        rng = np.random.default_rng(12)
        assert [verify._random_symbol(lat, rng, 1.0) for _ in range(3)] == want
        assert rng.bit_generator.state == fresh.bit_generator.state
    assert len(verify._symbol_memo) == 3


def test_memoized_symbols_leave_suite_payloads_unchanged(monkeypatch):
    """A suite whose symbols come from the memo reports what it reports alone."""
    monkeypatch.setattr(verify, "_symbol_memo", {})
    alone = verify.suite_cokernel({"samples": 3}, np.random.default_rng(8))
    monkeypatch.setattr(verify, "_symbol_memo", {})
    verify.suite_kernel_identity({"samples": 3}, np.random.default_rng(8))
    assert len(verify._symbol_memo) == 6
    assert verify.suite_cokernel({"samples": 3}, np.random.default_rng(8)) == alone
    assert len(verify._symbol_memo) == 6


def test_winding_diagnostic():
    assert winding_number({(1.0,): 1.0}) == 1.0
    assert winding_number({(-2.0,): 0.5j}) == -2.0
    assert winding_number({(0.5,): 1.0}) == 0.5
    assert winding_number({(0.0,): 2.0}) == 0.0
    assert winding_number({(1.0,): 1.0, (0.0,): -1.0}) is None
    with pytest.raises(DomainError):
        winding_number({(1.0, 0.0): 1.0})


def test_zero_bearing_domain_tags():
    # the plus-with-kernel domain gains the two zero-mode components: with
    # the constant symbol one of them spans a genuine kernel direction
    from diraclab import ker_dsigma_dimension

    sym = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0})
    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4)
    op = build_T(sym, lat, 4, SubspaceTag.EXP_PLUS_ZERO)
    rec = numerical_index(op, 1e-8)
    assert (rec.dim_ker, rec.dim_coker, rec.index_real) == (2, 0, 2)
    op_k = build_T(sym, lat, 4, SubspaceTag.KER_DSIGMA)
    assert op_k.matrix.shape[1] == ker_dsigma_dimension(lat)* 2


def test_dichotomy_ties_index_to_link_kernel_dimension():
    from diraclab import ker_dsigma_dimension

    lat = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=8)
    sym = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0})
    rep = stabilized_index(sym, lat, [2, 4, 8], SubspaceTag.EXP_MINUS)
    assert rep.index_complex == -ker_dsigma_dimension(lat) / 2


def test_mirrored_family_domain_tags():
    # on a circle link the mirrored patterns coincide with the plain ones
    # (real signs), so the constant symbol is again a bijection
    sym = SymbolData(dim=1, d_plus={}, d_minus={(0.0,): 1.0})
    rep = stabilized_index(sym, HALF1, [2, 4, 8], SubspaceTag.EEXP_MINUS)
    assert rep.stable and rep.index_real == 0
    # on the torus the conjugated sign changes the pattern but not the count
    sym2 = SymbolData(dim=2, d_plus={}, d_minus={(0.0, 0.0): 1.0})
    lat2 = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=6)
    rep2 = stabilized_index(sym2, lat2, [2, 4, 6], SubspaceTag.EEXP_MINUS)
    assert rep2.stable and rep2.index_complex == -1.0


def test_spin_structure_dichotomy_for_random_symbols():
    # the stabilized index depends only on the offsets, not the symbol:
    # -(1/2) link-kernel dimension on the trivial lattice, zero otherwise
    from diraclab import ker_dsigma_dimension

    for offs in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        lat = ModeLattice(dim_link=2, offset_t=offs[0], offset_s=offs[1], cutoff=8)
        rng = np.random.default_rng(7)
        sym = random_symbol(lat, rng, 1.0)
        rep = stabilized_index(sym, lat, [4, 6, 8], SubspaceTag.EXP_MINUS)
        assert rep.stable
        assert rep.index_complex == -ker_dsigma_dimension(lat) / 2
