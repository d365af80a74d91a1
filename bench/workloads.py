"""Seeded CLI configs for each benchmark workload and independent checks of their reports.

A workload is one *pass*: a fixed list of ``diraclab`` invocations run one
after another.  Every config is a pure function of the benchmark seed.  The
checks compare reports against outcomes derived here, not against stored
reports: the paper's index values, the link-kernel dimension worked out from
the lattice offsets, the truncation sizes of the cutoff box, and the
tolerances the reports state.

Regenerate the configs of one pass without running anything:

    python3 bench/workloads.py --workload ladders --seed 3 --out /tmp/ladders-configs
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

Check = Callable[[dict], list[str]]

CIRCLE_CUTOFFS = [64, 128, 256]
CIRCLE_SYMBOLS = 3
CIRCLE_BANDWIDTH = 3.0
TORUS_CUTOFFS = [8, 12, 16]
TORUS_OFFSETS = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
RADIAL_SUITES = ["bessel", "ode", "green", "decay"]
ALGEBRA_SUITES = ["splitting", "kernel-identity", "eta", "cokernel", "e0-probe"]
ALGEBRA_SAMPLES = 50

# `diraclab ledger` on a fixed 4D config: interpreter start, import, config
# load and report write, with no numerical work.  Its time is setup_s.
LEDGER_CONFIG = {
    "mode": "4D",
    "ahat_integral": 3,
    "dim_ker_dsigma": 2,
    "dim_ker_dminus_l21": 1,
    "index_t_exp_minus": -1,
}


@dataclass
class Invocation:
    """One CLI process: ``diraclab <command> --config <name>.json --out <name>.report.json``."""

    name: str
    command: str
    config: dict
    check: Check


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    # invocation names whose reports must agree byte for byte outside `generated_at`
    identical: list[tuple[str, str]] = field(default_factory=list)
    # compare the package's radial functions with scipy.special in the same run
    radial_reference: bool = False


# ---------------------------------------------------------------------------
# checks


def _axis_count(offset: float, cutoff: int) -> int:
    """Coordinates n + offset with |n + offset| <= cutoff."""
    return 2 * cutoff if offset == 0.5 else 2 * cutoff + 1


def _link_kernel_dim(offsets: tuple[float, ...]) -> int:
    """Complex dimension of ker D_Sigma: the two spinor components of the
    constant mode, present only when every spin-structure offset is trivial."""
    return 2 if all(o == 0.0 for o in offsets) else 0


def _check_index(offsets: tuple[float, ...], cutoffs: list[int]) -> Check:
    """Stable ladder with index_complex = -(1/2) dim ker D_Sigma, the paper's
    outcome (0 on a circle link and on half-integer torus offsets, -1 on the
    trivial torus), on matrices of the size the cutoff box dictates."""
    kernel = _link_kernel_dim(offsets)
    expected = -kernel / 2.0

    def check(report: dict) -> list[str]:
        res = report["result"]
        problems = []
        if not res["stable"] or res["verdict"] != "stable":
            problems.append(f"verdict {res['verdict']}, gaps {[c['spectral_gap'] for c in res['per_cutoff']]}")
        if res["index_complex"] != expected or res["index_real"] != 2 * expected:
            problems.append(f"index {res['index_real']}/{res['index_complex']}, expected complex {expected}")
        if [c["cutoff"] for c in res["per_cutoff"]] != cutoffs:
            problems.append("per-cutoff records do not follow the ladder")
        for c in res["per_cutoff"]:
            modes = math.prod(_axis_count(o, c["cutoff"]) for o in offsets)
            # ExpMinus keeps one complex parameter per nonzero mode; the codomain
            # window keeps as many modes as the full field box.
            cols, rows = 2 * (modes - (1 if kernel else 0)), 2 * modes
            if (c["rows"], c["cols"]) != (rows, cols):
                problems.append(f"N={c['cutoff']}: matrix {c['rows']}x{c['cols']}, expected {rows}x{cols}")
            if c["dim_ker"] - c["dim_coker"] != c["index_real"] or c["index_real"] % 2:
                problems.append(f"N={c['cutoff']}: inconsistent counts {c}")
            if kernel and c["dim_ker"] != 0:
                problems.append(f"N={c['cutoff']}: dim_ker {c['dim_ker']} on the trivial torus, expected 0")
        return problems

    return check


def _below(payload: dict, key: str) -> list[str]:
    value, tol = payload[key], payload["tolerance"]
    return [] if value < tol else [f"{key} {value} not below {tol}"]


def _green(payload: dict) -> list[str]:
    tol = payload["tolerance"]
    problems = [f"pair {r['pair']} residual {r['residual']}" for r in payload["residuals"] if not r["residual"] < tol]
    problems += [f"convergence order {o} below 2" for o in payload["observed_orders"] if o is not None and o < 2.0]
    return problems


def _no_failures(payload: dict) -> list[str]:
    return [f"failures {payload['failures']}"] if payload["failures"] else []


SUITE_CHECKS: dict[str, Check] = {
    "bessel": lambda p: _below(p, "max_relative_error"),
    "ode": lambda p: _below(p, "max_relative_residual"),
    "green": _green,
    "decay": _no_failures,
    "splitting": lambda p: _no_failures(p) + ([] if p["trace_pattern_exact"] else ["trace pattern inexact"]),
    "kernel-identity": lambda p: _below(p, "max_residual"),
    "eta": lambda p: _below(p, "max_roundtrip_error"),
    "cokernel": lambda p: _below(p, "max_roundtrip_error") + _no_failures(p),
    # the README's convention note: the real Hermitian form on the conjugated minus pattern
    "e0-probe": lambda p: [] if "hermitian-real/conjugated" in p["lagrangian_realized_by"] else
    [f"Lagrangian realized by {p['lagrangian_realized_by']}"],
}


def _check_verify(suites: list[str]) -> Check:
    def check(report: dict) -> list[str]:
        res = report["result"]
        problems = [] if res["all_pass"] else ["all_pass is false"]
        if sorted(res["suites"]) != sorted(suites):
            return problems + [f"suites {sorted(res['suites'])}, expected {sorted(suites)}"]
        for name in suites:
            payload = res["suites"][name]
            if not payload["pass"]:
                problems.append(f"{name}: pass is false")
            problems += [f"{name}: {p}" for p in SUITE_CHECKS[name](payload)]
        return problems

    return check


def check_ledger(report: dict) -> list[str]:
    """4D chain with index(T|minus-half) = -(1/2) dim ker D_Sigma returns the genus input."""
    got = report["result"]["virtual_dim"]
    want = LEDGER_CONFIG["ahat_integral"]
    return [] if got == want else [f"virtual_dim {got}, expected {want}"]


LEDGER = Invocation("ledger", "ledger", LEDGER_CONFIG, check_ledger)


# ---------------------------------------------------------------------------
# workloads


def circle_ladder(seed: int) -> Workload:
    """Seeded random bandwidth-3 symbols on the half-integer circle link, N up to 256.

    The first symbol runs twice: the README promises byte-identical reports
    for identical config and seed.
    """
    check = _check_index((0.5,), CIRCLE_CUTOFFS)
    invocations = [
        Invocation(
            f"circle-{i}",
            "index",
            {
                "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": CIRCLE_CUTOFFS[-1]},
                "symbol": {"random": {"bandwidth": CIRCLE_BANDWIDTH}},
                "cutoffs": CIRCLE_CUTOFFS,
                "domain": "ExpMinus",
                "seed": CIRCLE_SYMBOLS * seed + i,
            },
            check,
        )
        for i in range(CIRCLE_SYMBOLS)
    ]
    invocations.append(Invocation("circle-0-again", "index", invocations[0].config, check))
    return Workload("circle-ladder", invocations, identical=[("circle-0", "circle-0-again")])


def torus_ladder(seed: int) -> Workload:
    """The four explicit torus cases: each offset with its minimal exponential d-.

    The seed draws a nonzero complex scale for d-; the index does not depend
    on it, the matrices' singular values scale with it.
    """
    rng = np.random.default_rng(seed)
    invocations = []
    for offsets in TORUS_OFFSETS:
        coeff = rng.uniform(0.5, 2.0) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        invocations.append(
            Invocation(
                "torus-{}-{}".format(*("h" if o else "0" for o in offsets)),
                "index",
                {
                    "lattice": {"dim_link": 2, "offset_t": offsets[0], "offset_s": offsets[1],
                                "cutoff": TORUS_CUTOFFS[-1]},
                    "symbol": {"d_minus": [{"mode": list(offsets), "re": coeff.real, "im": coeff.imag}]},
                    "cutoffs": TORUS_CUTOFFS,
                    "domain": "ExpMinus",
                },
                _check_index(offsets, TORUS_CUTOFFS),
            )
        )
    return Workload("torus-ladder", invocations)


def ladders(seed: int) -> Workload:
    """The circle ladder, then the torus ladder: window-and-assembly bound, then SVD bound."""
    circle, torus = circle_ladder(seed), torus_ladder(seed)
    return Workload("ladders", circle.invocations + torus.invocations, identical=circle.identical)


def verify(seed: int) -> Workload:
    """The radial suites, then the algebra suites: scalar radial evaluation, then many small symbols.

    The radial suites draw no random numbers, so the seed only lands in their config.
    """
    radial = {"suites": RADIAL_SUITES, "quad_n": 64, "seed": seed}
    algebra = {"suites": ALGEBRA_SUITES, "samples": ALGEBRA_SAMPLES, "seed": seed}
    invocations = [
        Invocation("radial", "verify", radial, _check_verify(RADIAL_SUITES)),
        Invocation("algebra", "verify", algebra, _check_verify(ALGEBRA_SUITES)),
    ]
    return Workload("verify", invocations, radial_reference=True)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "ladders": ladders,
    "verify": verify,
}


def write_configs(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inv in [LEDGER, *workload.invocations]:
        (directory / f"{inv.name}.json").write_text(json.dumps(inv.config, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# radial reference values


def scipy_radial_check() -> list[str]:
    """Compare the package's radial functions with scipy.special at half-odd orders.

    J[p, a](r) = a^-p I_p(a r), and K_p(x) for the closed form; both to 1e-12
    relative over a*r in [0.05, 20].
    """
    from scipy import special

    from diraclab import radial

    worst = {"bessel_series": (0.0, ""), "modified_bessel_k_half": (0.0, "")}

    def compare(name: str, got: float, ref: float, where: str) -> None:
        err = abs(got - ref) / abs(ref)
        if err > worst[name][0]:
            worst[name] = (err, where)

    for p in (0.5, -0.5, 1.5, -1.5, 2.5, 4.5):
        for x in np.geomspace(0.05, 20.0, 12):
            for a in (0.5, 1.0, 2.0):
                got = radial.bessel_series(p, a, float(x / a))
                compare("bessel_series", got, a ** (-p) * special.iv(p, x), f"p={p}, a={a}, r={x / a}")
            compare("modified_bessel_k_half", radial.modified_bessel_k_half(p, float(x)), special.kv(p, x),
                    f"p={p}, x={x}")
    return [f"{name} differs from scipy.special by {err:.2e} relative at {where}"
            for name, (err, where) in worst.items() if not err <= 1e-12]


def main() -> int:
    parser = argparse.ArgumentParser(description="Write the configs of one workload pass.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the JSON configs")
    args = parser.parse_args()
    write_configs(WORKLOADS[args.workload](args.seed), Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
