"""Named invariant suites behind the command-line ``verify`` command.

Each suite returns ``(passed, payload)``; on failure the payload carries
the failing case in replayable form.  Randomized suites draw from a seeded
generator passed in by the caller.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import boundary, engine, radial
from .boundary import SubspaceTag, convention_probe, pair_field
from .errors import DomainError, NumericError
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


def suite_kernel_identity(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Fields (d+ eta, d- conj(eta)) are annihilated by the assembled matrix."""
    samples = int(config.get("samples", 50))
    worst = 0.0
    worst_case = None
    for lattice in (
        ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
        ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4),
    ):
        bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
        for trial in range(samples):
            symbol = _random_symbol(lattice, rng, bandwidth)
            eta_bw = lattice.cutoff - math.ceil(symbol.bandwidth)
            eta = {
                key: complex(*rng.uniform(-1.0, 1.0, 2))
                for key in engine._eta_modes(lattice, symbol, eta_bw)
            }
            kernel_field = pair_field(
                lattice, engine.poly_mul(symbol.d_plus, eta), engine.poly_mul(symbol.d_minus, engine.poly_conj(eta))
            )
            op = engine.build_T_full(symbol, lattice, lattice.cutoff)
            vec = realify_field(kernel_field, op)
            resid = float(np.max(np.abs(op.matrix @ vec))) if vec.size else 0.0
            image = engine.apply_T(symbol, kernel_field)
            conv_resid = max((abs(v) for v in image.values()), default=0.0)
            resid = max(resid, conv_resid)
            if resid > worst:
                worst = resid
                worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "residual": resid}
    ok = worst < 1e-13
    return ok, {"max_residual": worst, "tolerance": 1e-13, "worst_case": worst_case}


def realify_field(fld, op) -> np.ndarray:
    """Realified coefficient vector of a field in a full-basis operator's column order.

    A full-basis operator has four columns per mode (comp1 re/im, comp2 re/im).
    """
    dim = fld.lattice.dim_link
    modes2 = engine._doubled([key for key, _, _ in op.col_basis[::4]], dim)
    _, rows = engine._key_rows(engine._doubled([mode.as_tuple() for mode in fld.coefficients], dim), modes2)
    pairs = np.array(list(fld.coefficients.values()), dtype=complex).reshape(-1, 2)
    vec = np.zeros(len(op.col_basis))
    vec[4 * rows[:, None] + np.arange(4)] = np.stack((pairs.real, pairs.imag), axis=-1).reshape(-1, 4)
    return vec


def suite_eta(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Reparametrization round trips below 1e-10."""
    samples = int(config.get("samples", 50))
    worst = 0.0
    worst_case = None
    for lattice in (
        ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
        ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4),
    ):
        bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
        for trial in range(samples):
            symbol = _random_symbol(lattice, rng, bandwidth)
            eta_bw = lattice.cutoff - math.ceil(symbol.bandwidth)
            eta = {
                key: complex(*rng.uniform(-1.0, 1.0, 2))
                for key in engine._eta_modes(lattice, symbol, eta_bw)
            }
            u = pair_field(
                lattice, engine.poly_mul(symbol.d_plus, eta), engine.poly_mul(symbol.d_minus, engine.poly_conj(eta))
            )
            got = engine.reconstruct_eta(u, symbol)
            err = _poly_distance(got, eta)
            if err > worst:
                worst = err
                worst_case = {"lattice_dim": lattice.dim_link, "trial": trial, "error": err}
    ok = worst < 1e-10
    return ok, {"max_roundtrip_error": worst, "tolerance": 1e-10, "worst_case": worst_case}


def _poly_distance(a: engine.TrigPoly, b: engine.TrigPoly) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), default=0.0)


def suite_cokernel(config: dict, rng: np.random.Generator) -> tuple[bool, dict]:
    """Cokernel-scalar round trips below 1e-10 with duality residual below 1e-8."""
    samples = int(config.get("samples", 50))
    worst = 0.0
    worst_case = None
    failures = []
    for lattice in (
        ModeLattice(dim_link=1, offset_t=0.5, cutoff=8),
        ModeLattice(dim_link=2, offset_t=0.0, offset_s=0.0, cutoff=4),
    ):
        bandwidth = 1.5 if lattice.offset_t == 0.5 else 1.0
        for trial in range(samples):
            symbol = _random_symbol(lattice, rng, bandwidth)
            c_bw = lattice.cutoff - math.ceil(symbol.bandwidth)
            c0 = {
                key: complex(*rng.uniform(-1.0, 1.0, 2))
                for key in engine._eta_modes(lattice, symbol, c_bw)
            }
            u = pair_field(
                lattice, engine.poly_mul(engine.poly_conj(c0), symbol.d_plus), engine.poly_mul(c0, symbol.d_minus)
            )
            try:
                got = engine.cokernel_correspondence(u, symbol)
            except (DomainError, NumericError) as exc:
                failures.append({"lattice_dim": lattice.dim_link, "trial": trial, "error": str(exc)})
                continue
            err = _poly_distance(got, c0)
            if err > worst:
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
