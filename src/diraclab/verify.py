"""Named invariant suites behind the command-line ``verify`` command.

Each suite returns ``(passed, payload)``; on failure the payload carries
the failing case in replayable form.  Randomized suites draw from a seeded
generator passed in by the caller.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from . import boundary, engine, radial
from .boundary import SubspaceTag, convention_probe
from .errors import DomainError
from .lattice import Mode, ModeLattice, enumerate_modes
from .radial import (
    RadialMode,
    assemble_solution,
    bessel_series,
    decaying_solution,
    decaying_trace,
    radial_rhs,
)

GREEN_FLOOR = 1e-9  # roundoff plateau of the large-magnitude ladder integrands
KERNEL_BLOCK_ROWS = 512  # rows per boundary row-kernel call: bounds the arrays a call builds
_SYMBOL_MEMO_SIZE = 512
_symbol_memo: dict[tuple, tuple[engine.SymbolData, dict]] = {}


def _random_symbol(lattice: ModeLattice, rng: np.random.Generator, bandwidth: float) -> engine.SymbolData:
    """:func:`engine.random_symbol`, memoized on the generator's state.

    The kernel-identity, eta and cokernel suites start from the same seed and
    draw the same symbols.  A repeated draw returns the stored symbol and
    moves the generator to the state the first draw left it in, so every
    random stream is what the draw itself would give.
    """
    key = (lattice, bandwidth, repr(rng.bit_generator.state))
    if key not in _symbol_memo:
        if len(_symbol_memo) >= _SYMBOL_MEMO_SIZE:
            del _symbol_memo[next(iter(_symbol_memo))]
        symbol = engine.random_symbol(lattice, rng, bandwidth)
        _symbol_memo[key] = (symbol, rng.bit_generator.state)
    symbol, after = _symbol_memo[key]
    rng.bit_generator.state = after
    return symbol


def reset_symbol_memo() -> None:
    """Forget the memoized symbols, so that a run draws each of its symbols once itself."""
    _symbol_memo.clear()


def _richardson_derivative(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Fourth-order central difference from values on the stencil (r, r+h, r-h, r+2h, r-2h)."""
    _, f_p1, f_m1, f_p2, f_m2 = values
    return (8.0 * (f_p1 - f_m1) - (f_p2 - f_m2)) / (12.0 * h)


def suite_bessel(config: dict) -> tuple[bool, dict]:
    """Half-integer closed forms: series vs sinh/cosh over a*r in [0.01, 20]."""
    ars = np.geomspace(0.01, 20.0, 60)
    series = {(p, a): bessel_series(p, a, ars / a) for p in (0.5, -0.5) for a in (0.5, 1.0, 2.0)}
    worst = 0.0
    worst_case = None
    for i, ar in enumerate(ars):
        for a in (0.5, 1.0, 2.0):
            r = ar / a
            i_half = math.sqrt(2.0 / (math.pi * ar)) * math.sinh(ar)
            i_mhalf = math.sqrt(2.0 / (math.pi * ar)) * math.cosh(ar)
            for p, ref in ((0.5, a ** (-0.5) * i_half), (-0.5, a ** (0.5) * i_mhalf)):
                got = float(series[p, a][i])
                rel = abs(got - ref) / abs(ref)
                if rel > worst:
                    worst, worst_case = rel, {"p": p, "a": a, "r": r, "got": got, "ref": ref}
    ok = worst < 1e-12
    return ok, {"max_relative_error": worst, "tolerance": 1e-12, "worst_case": worst_case}


def suite_ode(config: dict) -> tuple[bool, dict]:
    """Assembled solutions satisfy the radial system to 1e-9 on the sampling grid.

    The residual is measured relative to the local solution magnitude: the
    mirrored-order branch reaches ~1e11 at (|k|, r) = (8, 0.05), where an
    absolute threshold would only measure the finite-difference noise floor.
    The derivative step shrinks with the local logarithmic derivative so the
    fourth-order Richardson truncation stays below the tolerance.
    """
    eigenvalues = [0.0] + [abs(l) for l in np.arange(-8, 9)] + [abs(l + 0.5) for l in range(-8, 8)]
    eigenvalues = sorted(set(float(a) for a in eigenvalues if a <= 8.0))
    radii = np.linspace(0.05, 2.0, 50)
    worst = 0.0
    worst_case = None
    for k in range(-8, 9):
        for a in eigenvalues:
            r = radii[a * radii <= radial.SUPPORTED_AR]
            h = 1e-3 * r / (abs(k) + 1.0 + a * r)
            stencil = np.stack([r, r + h, r - h, r + 2 * h, r - 2 * h])
            block = radial.branch_block(k, a, stencil)  # shared by both series solutions
            sols = [assemble_solution(k, a, 1.0 + 0.0j, 1.0 + 0.0j),
                    assemble_solution(k, a, 0.3 - 0.7j, -1.1 + 0.2j)]
            if a > 0.0:
                sols.append(decaying_solution(k, a))
            for sol in sols:
                comps = sol.value(stencil, block=block)  # per component: (stencil point, radius)
                val = [c[0] for c in comps]
                rhs_re = radial_rhs(k, a, (val[0].real, val[1].real), r)
                rhs_im = radial_rhs(k, a, (val[0].imag, val[1].imag), r)
                scale = np.maximum(1.0, np.maximum(np.abs(val[0]), np.abs(val[1])))
                resid = np.stack([
                    np.abs(_richardson_derivative(comps[c], h) - (rhs_re[c] + 1j * rhs_im[c])) / scale
                    for c in (0, 1)
                ])
                i, comp = divmod(int(np.argmax(resid.T)), 2)  # first maximum in (radius, component) order
                if resid[comp, i] > worst:
                    worst = float(resid[comp, i])
                    worst_case = {"k": k, "a": a, "r": float(r[i]), "component": comp,
                                  "u_plus": str(sol.u_plus), "u_minus": str(sol.u_minus)}
    ok = worst < 1e-9
    return ok, {"max_relative_residual": worst, "tolerance": 1e-9, "worst_case": worst_case}


def _green_pairs() -> list[tuple[list[RadialMode], list[RadialMode], str]]:
    """Mode-solution pairs for the Green-identity battery."""
    pairs = []
    m1 = Mode(1.0)
    m2 = Mode(-2.0)
    t1 = Mode(1.0, 0.0)
    t2 = Mode(1.0, 2.0)
    # matched kernel pairs, leading-coefficient inner term (traceable branches only)
    pairs.append(([assemble_solution(0, 1.0, 1.0, 0.3, link_mode=m1)],
                  [assemble_solution(0, 1.0, 0.5, -0.2j, link_mode=m1)], "leading"))
    pairs.append(([decaying_solution(0, 1.0, link_mode=m1)],
                  [assemble_solution(0, 1.0, 1.0, 1.0, link_mode=m1)], "leading"))
    pairs.append(([assemble_solution(1, 2.0, 1.0, 0.0, link_mode=m2)],
                  [assemble_solution(1, 2.0, 0.5j, 0.0, link_mode=m2)], "leading"))
    pairs.append(([assemble_solution(-1, 0.0, 0.0, 1.0, link_mode=m1)],
                  [assemble_solution(-1, 0.0, 0.0, 1.0, link_mode=m1)], "leading"))
    pairs.append(([assemble_solution(0, 1.0, 1.0, 0.0, link_mode=t1),
                   assemble_solution(1, math.sqrt(5.0), 0.5, 0.0, link_mode=t2)],
                  [assemble_solution(0, 1.0, 0.0, 1.0, link_mode=t1),
                   decaying_solution(0, math.sqrt(5.0), link_mode=t2)], "leading"))
    pairs.append(([decaying_solution(0, math.sqrt(5.0), link_mode=t2)],
                  [decaying_solution(0, math.sqrt(5.0), link_mode=t2)], "leading"))
    # mismatched radial content at one sector, identity taken on the quadrature annulus
    for aprime in (2.2, 5.0):
        pairs.append(([assemble_solution(0, 1.0, 1.0, 0.2, link_mode=m1)],
                      [RadialMode(k=0, a=aprime, u_plus=0.4 + 0.0j, u_minus=-0.3 + 0.1j,
                                  growth=radial.GROWTH_GROWING, link_mode=m1)], "edge"))
    pairs.append(([assemble_solution(1, 2.0, 1.0, 0.0, link_mode=m2)],
                  [RadialMode(k=1, a=1.0, u_plus=1.0 + 0.0j, u_minus=0.0j,
                              growth=radial.GROWTH_GROWING, link_mode=m2)], "edge"))
    pairs.append(([assemble_solution(0, math.sqrt(5.0), 1.0, 0.1, link_mode=t2)],
                  [RadialMode(k=0, a=1.2, u_plus=0.7 + 0.0j, u_minus=0.2 + 0.0j,
                              growth=radial.GROWTH_GROWING, link_mode=t2)], "edge"))
    return pairs


def suite_green(config: dict) -> tuple[bool, dict]:
    """Green-identity residuals below 1e-8 at the configured quadrature size,
    with at least second-order decrease under quadrature doubling."""
    quad_n = int(config.get("quad_n", 64))
    residuals = []
    ok = True
    for i, (v, w, inner) in enumerate(_green_pairs()):
        res = boundary.green_check(v, w, R=2.0, quad_n=quad_n, inner=inner)
        residuals.append({"pair": i, "inner": inner, "residual": res})
        ok = ok and res < 1e-8

    v = [assemble_solution(0, 1.0, 1.0, 0.2, link_mode=Mode(1.0))]
    w = [RadialMode(k=0, a=5.0, u_plus=0.4 + 0.0j, u_minus=-0.3 + 0.1j,
                    growth=radial.GROWTH_GROWING, link_mode=Mode(1.0))]
    ladder = [boundary.green_check(v, w, R=2.0, quad_n=n, inner="edge") for n in (4, 8, 16, 32, 64)]
    orders = []
    for r1, r2 in zip(ladder, ladder[1:]):
        if r1 < GREEN_FLOOR and r2 < GREEN_FLOOR:
            orders.append(math.inf)  # both at the floor: converged
        elif r2 <= 0:
            orders.append(math.inf)
        else:
            orders.append(math.log2(r1 / r2))
    ok = ok and all(o >= 2.0 for o in orders)
    return ok, {
        "quad_n": quad_n,
        "residuals": residuals,
        "tolerance": 1e-8,
        "convergence_ladder": ladder,
        "observed_orders": [None if o == math.inf else o for o in orders],
    }


def suite_splitting(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Projection algebra: idempotent, orthogonal, exact three-way sum.

    Each trial draws two balanced random fields X and Y and checks that
    projecting plus(X) and minus(X) again changes nothing, that plus(X) and
    minus(Y) are Hermitian-orthogonal, and that split(X) re-adds to X
    exactly.  A lattice's fields are drawn in one call, X and Y alternating
    as :func:`boundary.random_field` would draw them, and the trials go
    through the boundary row kernels in blocks of at most
    ``KERNEL_BLOCK_ROWS`` rows of X and Y.  Rows are compared with ``==``,
    which is field equality, since a field holds exactly its nonzero rows;
    the Hermitian pairing is summed in mode order with Python's complex
    products, bitwise :func:`boundary.pairing_hermitian`.  Failures are
    listed per trial in lattice and trial order.
    """
    samples = int(config.get("samples", 20))
    plus_tag, minus_tag = SubspaceTag.EXP_PLUS, SubspaceTag.EXP_MINUS
    failures = []
    orth_worst = 0.0
    for lattice in (
        ModeLattice(dim_link=1, offset_t=0.5, cutoff=6),
        ModeLattice(dim_link=1, offset_t=0.0, cutoff=5),
        ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=3),
        ModeLattice(dim_link=2, offset_t=0.5, offset_s=0.5, cutoff=3),
    ):
        modes = enumerate_modes(lattice)
        n = len(modes)
        drawn = boundary._draw_pairs(lattice, rng, True, 2 * samples)
        per_block = max(1, KERNEL_BLOCK_ROWS // (2 * n))
        for start in range(0, samples, per_block):
            X = drawn[2 * start:2 * (start + per_block):2]
            Y = drawn[2 * start + 1:2 * (start + per_block):2]
            k = len(X)
            at = np.tile(np.arange(n), k)
            xs = X.reshape(-1, 2)
            plus = boundary._project_rows(lattice, at, xs, plus_tag)
            minus, minus_y = np.split(
                boundary._project_rows(lattice, np.tile(at, 2), np.concatenate((xs, Y.reshape(-1, 2))), minus_tag), 2
            )
            idempotent = (boundary._project_rows(lattice, at, plus, plus_tag) == plus).all(axis=1) & (
                boundary._project_rows(lattice, at, minus, minus_tag) == minus
            ).all(axis=1)
            terms = boundary._cmul(plus, np.conj(minus_y)).sum(axis=1).reshape(k, n)
            cross = np.add.accumulate(terms, axis=1)[:, -1]  # in mode order, as the pairing's loop
            p, m, kpart = boundary._split_rows(lattice, at, xs)
            exact = ((p + m) + kpart == xs).all(axis=1)
            for i, (idem, total, adds_up) in enumerate(
                zip(idempotent.reshape(k, n).all(axis=1), cross.tolist(), exact.reshape(k, n).all(axis=1))
            ):
                trial = start + i
                if not idem:
                    failures.append({"lattice": str(lattice), "trial": trial, "what": "idempotency"})
                orth = abs(total)
                orth_worst = max(orth_worst, orth)
                # the threshold 1e-12 * max(1, |X| |Y|) is never below 1e-12: a passing trial builds no field
                if orth > 1e-12:
                    norms = boundary._unstack(lattice, modes, X[i]).norm()
                    norms *= boundary._unstack(lattice, modes, Y[i]).norm()
                    if orth > 1e-12 * max(1.0, norms):
                        failures.append({"lattice": str(lattice), "trial": trial, "what": "orthogonality",
                                         "value": orth})
                if not adds_up:
                    failures.append({"lattice": str(lattice), "trial": trial, "what": "sum-to-identity"})
    # decaying traces land exactly in the minus pattern
    big = ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=32)
    off_pattern = _trace_pattern_failures(big)
    trace_exact = not off_pattern
    failures += [{"what": "decaying-trace-pattern", "mode": mode.as_tuple()} for mode in off_pattern]
    ok = not failures and trace_exact
    return ok, {"failures": failures, "max_hermitian_cross": orth_worst, "trace_pattern_exact": trace_exact}


def _trace_pattern_failures(lattice: ModeLattice) -> list[Mode]:
    """Nonzero modes whose decaying trace the minus-pattern projection does not keep exactly.

    The traces of all nonzero modes go through the projection row kernel,
    ``KERNEL_BLOCK_ROWS`` rows a call; a row that comes back changed names
    its mode.
    """
    modes = enumerate_modes(lattice)
    at = np.array([i for i, mode in enumerate(modes) if not mode.is_zero], dtype=np.intp)
    traces = np.array([decaying_trace(modes[i]) for i in at], dtype=complex).reshape(-1, 2)
    failures = []
    for start in range(0, len(at), KERNEL_BLOCK_ROWS):
        rows = at[start:start + KERNEL_BLOCK_ROWS]
        block = traces[start:start + KERNEL_BLOCK_ROWS]
        kept = boundary._project_rows(lattice, rows, block, SubspaceTag.EXP_MINUS)
        failures += [modes[i] for i in rows[~(kept == block).all(axis=1)]]
    return failures


ALGEBRA_LATTICES = (
    ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
    ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4),
)
_Trial = tuple[int, engine.SymbolData, list[tuple[float, ...]], np.ndarray]


def _trial_blocks(lattice: ModeLattice, rng: np.random.Generator, samples: int) -> Iterator[list[_Trial]]:
    """A lattice's trials, drawn in trial order and handed out in blocks.

    A trial draws its symbol through the memo, then one uniform pair in
    [-1, 1) per mode of the box its symbol's bandwidth leaves inside the
    cutoff (its eta, or its c0), all in one call: the values and the
    generator state of one call per mode.  Nothing else draws, so every
    stream is the per-trial one.  A trial is (index, symbol, modes,
    coefficients).  A block holds the trials whose candidate matrix entries
    in the full-reach assembly (four columns per lattice mode, one term per
    symbol coefficient, a real and an imaginary part per term) fit in
    ``engine._GRID_CHUNK_POINTS``, and at least one trial.
    """
    bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
    columns = 8 * len(enumerate_modes(lattice))
    block: list[_Trial] = []
    held = 0
    for trial in range(samples):
        symbol = _random_symbol(lattice, rng, bandwidth)
        keys = engine._eta_modes(lattice, symbol, lattice.cutoff - math.ceil(symbol.bandwidth))
        coeffs = rng.uniform(-1.0, 1.0, 2 * len(keys)).view(complex)
        terms = columns * (len(symbol.d_plus) + len(symbol.d_minus))
        if block and held + terms > engine._GRID_CHUNK_POINTS:
            yield block
            block, held = [], 0
        block.append((trial, symbol, keys, coeffs))
        held += terms
    if block:
        yield block


def _field_groups(
    lattice: ModeLattice, block: list[_Trial], cokernel: bool
) -> Iterator[tuple[list[int], engine._SymbolStack, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The block's test fields, stacked by pattern: (trials, symbols, coefficient modes, coefficients, field modes, pairs).

    The kernel fields are (d+ eta, d- conj(eta)), built as
    ``pair_field(poly_mul(d+, eta), poly_mul(d-, poly_conj(eta)))`` builds
    them; the cokernel fields are (conj(c0) d+, c0 d-), as
    ``pair_field(poly_mul(poly_conj(c0), d+), poly_mul(c0, d-))``.  Trials
    are stacked by their symbols' keys (which fix their coefficient modes),
    then by field pattern (:func:`boundary._pair_stacks`); modes are doubled
    keys.
    """
    by_keys: dict[tuple, list[_Trial]] = {}
    for item in block:
        by_keys.setdefault((tuple(item[1].d_plus), tuple(item[1].d_minus)), []).append(item)
    for items in by_keys.values():
        symbols = engine._stack_symbols([symbol for _, symbol, _, _ in items])
        keys2 = engine._doubled(items[0][2], lattice.dim_link)
        coeffs = np.array([c for _, _, _, c in items]).reshape(len(items), -1)
        if cokernel:
            plus = engine._poly_products(-keys2, np.conj(coeffs), symbols.plus2, symbols.plus)
            minus = engine._poly_products(keys2, coeffs, symbols.minus2, symbols.minus)
        else:
            plus = engine._poly_products(symbols.plus2, symbols.plus, keys2, coeffs)
            minus = engine._poly_products(symbols.minus2, symbols.minus, -keys2, np.conj(coeffs))
        (plus2, plus_vals), (minus2, minus_vals) = plus, minus
        for at, modes, pairs in boundary._pair_stacks(
            list(map(tuple, plus2.tolist())), plus_vals, plus_vals != 0,
            list(map(tuple, minus2.tolist())), minus_vals, minus_vals != 0,
        ):
            lam2 = np.array(modes, dtype=np.int64).reshape(-1, lattice.dim_link)
            yield [items[i][0] for i in at], symbols.take(at), keys2, coeffs[at], lam2, pairs


def _realified(col_basis: list, lam2: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Realified coefficient vectors of stacked fields in a full-basis operator's column order, one row per trial.

    A full-basis operator has four columns per mode (comp1 re/im, comp2 re/im).
    """
    modes2 = engine._doubled([key for key, _, _ in col_basis[::4]], lam2.shape[1])
    _, rows = engine._key_rows(lam2, modes2)
    vec = np.zeros((len(pairs), len(col_basis)))
    vec[:, 4 * rows[:, None] + np.arange(4)] = np.stack((pairs.real, pairs.imag), axis=-1).reshape(len(pairs), -1, 4)
    return vec


def _distances(modes: list[tuple[float, ...]], got: np.ndarray, keys2: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per trial, the largest |got - want| over the modes of either, as the dict polynomials' distance gives it.

    ``got`` holds coefficients at ``modes``, zero where a mode is absent,
    and ``want`` coefficients at the doubled ``keys2``.
    """
    got2 = engine._doubled(modes, keys2.shape[1])
    table, rows = engine._key_rows(np.concatenate((got2, keys2)))
    diff = np.zeros((len(got), len(table)), dtype=complex)
    diff[:, rows[:len(got2)]] = got
    diff[:, rows[len(got2):]] -= want
    return np.hypot(diff.real, diff.imag).max(axis=1, initial=0.0)


def _kernel_residuals(lattice: ModeLattice, block: list[_Trial]) -> dict[int, float]:
    """Kernel-identity residual of each trial of a block, by trial index."""
    residuals = {}
    for trials, symbols, _, _, lam2, pairs in _field_groups(lattice, block, cokernel=False):
        row_basis, col_basis, trial, row, col, value = engine._full_reach(symbols, lattice, lattice.cutoff)
        shape = (len(row_basis), len(col_basis))
        bounds = np.searchsorted(trial, np.arange(len(trials) + 1))
        images = engine._image_maxima(symbols, lam2, pairs).tolist()
        for t, (vec, conv_resid) in enumerate(zip(_realified(col_basis, lam2, pairs), images)):
            entries = slice(bounds[t], bounds[t + 1])
            matrix = engine._dense(shape, row[entries], col[entries], value[entries])
            resid = float(np.max(np.abs(matrix @ vec))) if vec.size else 0.0
            residuals[trials[t]] = max(resid, conv_resid)
    return residuals


def suite_kernel_identity(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Fields (d+ eta, d- conj(eta)) are annihilated by the assembled matrix.

    Per trial, the residual is the larger of max |A v|, A the full-reach
    matrix and v the realified kernel field, and the largest coefficient of
    the field's convolution image.  The trials run through the kernels in
    blocks (:func:`_trial_blocks`): one stacked assembly, product and image
    pass per block and symbol key pattern; only the product A v is taken
    trial by trial, on each trial's dense matrix, as BLAS rounds it.
    """
    samples = int(config.get("samples", 50))
    worst = 0.0
    worst_case = None
    for lattice in ALGEBRA_LATTICES:
        for block in _trial_blocks(lattice, rng, samples):
            residuals = _kernel_residuals(lattice, block)
            for trial in sorted(residuals):
                if residuals[trial] > worst:
                    worst = residuals[trial]
                    worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "residual": worst}
    ok = worst < 1e-13
    return ok, {"max_residual": worst, "tolerance": 1e-13, "worst_case": worst_case}


def _round_trips(lattice: ModeLattice, block: list[_Trial], cokernel: bool) -> dict[int, float | Exception]:
    """Each trial's round-trip error, or its correspondence's error, by trial index.

    The fields go through :func:`engine._cokernel_stack` (cokernel fields)
    or :func:`engine._eta_stack` (kernel fields), the steps of
    :func:`engine.cokernel_correspondence` and :func:`engine.reconstruct_eta`.
    """
    outcomes: dict[int, float | Exception] = {}
    correspondence = engine._cokernel_stack if cokernel else engine._eta_stack
    for trials, symbols, keys2, coeffs, lam2, pairs in _field_groups(lattice, block, cokernel):
        modes, got, errors = correspondence(lattice, symbols, lam2, pairs)
        for trial, err, error in zip(trials, _distances(modes, got, keys2, coeffs).tolist(), errors):
            outcomes[trial] = error or err
    return outcomes


def suite_eta(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Reparametrization round trips below 1e-10.

    The trials run in blocks (:func:`_round_trips`); the first trial, in
    trial order, whose reconstruction fails raises its error.
    """
    samples = int(config.get("samples", 50))
    worst = 0.0
    worst_case = None
    for lattice in ALGEBRA_LATTICES:
        for block in _trial_blocks(lattice, rng, samples):
            outcomes = _round_trips(lattice, block, cokernel=False)
            for trial in sorted(outcomes):
                err = outcomes[trial]
                if isinstance(err, Exception):
                    raise err
                if err > worst:
                    worst = err
                    worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "error": err}
    ok = worst < 1e-10
    return ok, {"max_roundtrip_error": worst, "tolerance": 1e-10, "worst_case": worst_case}


def suite_cokernel(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Cokernel-scalar round trips below 1e-10 with duality residual below 1e-8.

    The trials run in blocks (:func:`_round_trips`); a trial whose
    correspondence fails is listed, in trial order, with its error.
    """
    samples = int(config.get("samples", 50))
    worst = 0.0
    worst_case = None
    failures = []
    for lattice in ALGEBRA_LATTICES:
        for block in _trial_blocks(lattice, rng, samples):
            outcomes = _round_trips(lattice, block, cokernel=True)
            for trial in sorted(outcomes):
                err = outcomes[trial]
                if isinstance(err, Exception):
                    failures.append({"lattice_dim": lattice.dim_link, "trial": trial, "error": str(err)})
                elif err > worst:
                    worst = err
                    worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "error": err}
    ok = worst < 1e-10 and not failures
    return ok, {
        "max_roundtrip_error": worst,
        "tolerance": 1e-10,
        "failures": failures,
        "worst_case": worst_case,
    }


def suite_decay(config: dict) -> tuple[bool, dict]:
    """Decaying solutions decay and their traces match the minus pattern exactly."""
    failures = []
    for k in (-2, 0, 3):
        for a in (0.5, 2.0):
            sol = decaying_solution(k, a)
            v1 = abs(sol.value(5.0 / a)[0]) + abs(sol.value(5.0 / a)[1])
            v2 = abs(sol.value(10.0 / a)[0]) + abs(sol.value(10.0 / a)[1])
            if not v2 < v1 * 1e-2:
                failures.append({"what": "decay", "k": k, "a": a})
    for lattice in (
        ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=32),
        ModeLattice(dim_link=1, offset_t=0.5, cutoff=32),
    ):
        failures += [{"what": "trace", "mode": mode.as_tuple()} for mode in _trace_pattern_failures(lattice)]
    return not failures, {"failures": failures}


def suite_e0_probe(config: dict) -> tuple[bool, dict]:
    """Informational convention probe; passes when it finds a realizing convention."""
    report = convention_probe()
    return bool(report["lagrangian_realized_by"]), report


SUITES: dict[str, Callable] = {
    "bessel": suite_bessel,
    "ode": suite_ode,
    "green": suite_green,
    "splitting": suite_splitting,
    "kernel-identity": suite_kernel_identity,
    "eta": suite_eta,
    "cokernel": suite_cokernel,
    "decay": suite_decay,
    "e0-probe": suite_e0_probe,
}

RANDOMIZED_SUITES = {"splitting", "kernel-identity", "eta", "cokernel"}


def run_suite(name: str, config: dict, rng: np.random.Generator | None) -> tuple[bool, dict]:
    if name not in SUITES:
        raise DomainError(f"unknown verify suite {name!r}; known: {sorted(SUITES)}")
    fn = SUITES[name]
    if name in RANDOMIZED_SUITES:
        if rng is None:
            raise DomainError(f"suite {name!r} is randomized and needs a seed")
        return fn(config, rng)
    return fn(config)
