"""Command-line front end: index, verify, ledger, and sweep runs.

Every run is driven by a single JSON config (archivable, replayable); the
only flags are --config, --out, and --seed-override.  Reports are written
atomically (temp file + rename).  Exit codes: 0 success, 1 input/domain
error, 2 verification or stability failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .boundary import SubspaceTag
from .engine import (
    LedgerInput,
    SymbolData,
    build_T,
    numerical_index,
    random_symbol,
    stabilized_index,
    virtual_dimension_ledger,
    winding_number,
)
from .errors import ConfigError, DomainError, NumericError
from .lattice import ModeLattice, ZeroModePolicy

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFICATION = 2


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _as_int(value: object, what: str, minimum: int | None = None) -> int:
    """A JSON integer (not a boolean), at least ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value}")
    return value


def _as_number(value: object, what: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _require_object(config: dict, key: str) -> dict:
    obj = config.get(key)
    if not isinstance(obj, dict):
        raise ConfigError(f"run config needs a {key!r} object, got {obj!r}")
    return obj


def _parse_lattice(obj: dict) -> ModeLattice:
    _check_keys(obj, {"dim_link", "offset_t", "offset_s", "cutoff", "zero_mode_policy"}, "lattice")
    try:
        return ModeLattice(
            dim_link=int(obj["dim_link"]),
            offset_t=float(obj["offset_t"]),
            offset_s=float(obj.get("offset_s", 0.0)),
            cutoff=int(obj.get("cutoff", 8)),
            zero_mode_policy=ZeroModePolicy(obj.get("zero_mode_policy", "separate")),
        )
    except KeyError as exc:
        raise ConfigError(f"lattice config missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lattice config has a malformed value: {exc}") from exc


def _parse_poly(entries: list, dim: int, where: str) -> dict:
    if not isinstance(entries, list):
        raise ConfigError(f"{where} must be a list of mode objects, got {entries!r}")
    poly = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: entry {entry!r} is not an object with 'mode', 're', 'im'")
        _check_keys(entry, {"mode", "re", "im"}, where)
        try:
            mode = tuple(float(x) for x in entry["mode"])
        except KeyError as exc:
            raise ConfigError(f"{where}: entry {entry!r} has no 'mode'") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: mode of entry {entry!r} is not a list of numbers: {exc}") from exc
        if len(mode) != dim:
            raise ConfigError(f"{where}: mode {mode} has wrong dimension (expected {dim})")
        try:
            poly[mode] = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: coefficient of mode {mode} is not a number: {exc}") from exc
    return {k: v for k, v in poly.items() if v != 0}


def _parse_symbol(obj: dict, lattice: ModeLattice, rng: np.random.Generator | None) -> SymbolData:
    _check_keys(obj, {"d_plus", "d_minus", "file", "random"}, "symbol")
    if "file" in obj:
        sub = _load_config(obj["file"])
        return _parse_symbol(sub, lattice, rng)
    if "random" in obj:
        spec = _require_object(obj, "random")
        _check_keys(spec, {"bandwidth", "offsets"}, "symbol.random")
        if rng is None:
            raise ConfigError("random symbols need a seed in the config")
        bandwidth = _as_number(spec.get("bandwidth", 1.0), "'symbol.random.bandwidth'")
        offsets = spec.get("offsets")
        if offsets is not None and (
            not isinstance(offsets, list)
            or len(offsets) != lattice.dim_link
            or any(isinstance(x, bool) or x not in (0, 0.5) for x in offsets)
        ):
            raise ConfigError(
                f"'symbol.random.offsets' must list {lattice.dim_link} values, each 0 or 0.5, got {offsets!r}"
            )
        return random_symbol(lattice, rng, bandwidth, offsets=None if offsets is None else tuple(map(float, offsets)))
    dim = lattice.dim_link
    return SymbolData(
        dim=dim,
        d_plus=_parse_poly(obj.get("d_plus", []), dim, "symbol.d_plus"),
        d_minus=_parse_poly(obj.get("d_minus", []), dim, "symbol.d_minus"),
    )


def _parse_run(config: dict, seed: int | None) -> tuple[ModeLattice, SymbolData, list[int], SubspaceTag, float]:
    """Lattice, symbol, cutoffs, domain tag and SVD tolerance shared by `index` and `sweep`."""
    lattice = _parse_lattice(_require_object(config, "lattice"))
    rng = np.random.default_rng(seed) if seed is not None else None
    symbol = _parse_symbol(_require_object(config, "symbol"), lattice, rng)
    cutoffs = config.get("cutoffs")
    if not isinstance(cutoffs, list):
        raise ConfigError(f"'cutoffs' must be a list of integers, got {cutoffs!r}")
    try:
        cutoffs = [int(n) for n in cutoffs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'cutoffs' must be a list of integers: {exc}") from exc
    try:
        tag = SubspaceTag(config.get("domain", "ExpMinus"))
    except ValueError as exc:
        raise ConfigError(f"unknown domain {config['domain']!r}; known: {[t.value for t in SubspaceTag]}") from exc
    tol = _as_number(config.get("tol_rel", 1e-8), "'tol_rel'")
    if not tol > 0.0:
        raise ConfigError(f"'tol_rel' must be positive, got {tol}")
    return lattice, symbol, cutoffs, tag, tol


def _write_atomic(path: str, data: str) -> None:
    """Write ``data`` to ``path`` through a temporary file and a rename; an OS error is a ConfigError."""
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, str(target))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _require_writable(path: str, directory: Path | None = None) -> None:
    """Make the directory of ``path`` and a temporary file in it, then remove the file.

    ``directory`` defaults to the parent of ``path``.  Run before any
    computation, so an unusable output path fails at once, as a ConfigError
    with the message the write of ``path`` would give.
    """
    directory = Path(path).parent if directory is None else directory
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _plain(obj):
    """Coerce numpy scalars and other non-JSON leaves to plain Python types."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _emit_report(command: str, config: dict, result: dict, out: str | None) -> None:
    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config,
        "result": result,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _symbol_windings(symbol: SymbolData) -> dict:
    if symbol.dim != 1:
        return {}
    return {
        "winding_d_plus": winding_number(symbol.d_plus) if symbol.d_plus else None,
        "winding_d_minus": winding_number(symbol.d_minus) if symbol.d_minus else None,
    }


def cmd_index(config: dict, out: str | None, seed: int | None) -> int:
    _check_keys(
        config,
        {"lattice", "symbol", "cutoffs", "domain", "tol_rel", "seed",
         "expect_index_real", "expect_index_complex", "dump_matrices"},
        "index config",
    )
    lattice, symbol, cutoffs, tag, tol = _parse_run(config, seed)
    if "expect_index_real" in config:
        _as_int(config["expect_index_real"], "'expect_index_real'")
    if "expect_index_complex" in config:
        _as_number(config["expect_index_complex"], "'expect_index_complex'")
    dump = config.get("dump_matrices")
    if dump is not None and not isinstance(dump, str):
        raise ConfigError(f"'dump_matrices' must be a directory path string, got {dump!r}")
    if out:
        _require_writable(out)
    if dump:
        _require_writable(str(Path(dump) / f"matrix_N{cutoffs[0]}.csv"), Path(dump))
    report = stabilized_index(symbol, lattice, cutoffs, tag, tol_rel=tol)

    result = report.to_dict()
    result.update(_symbol_windings(symbol))
    result["symbol"] = {
        "d_plus": [{"mode": list(k), "re": v.real, "im": v.imag} for k, v in sorted(symbol.d_plus.items())],
        "d_minus": [{"mode": list(k), "re": v.real, "im": v.imag} for k, v in sorted(symbol.d_minus.items())],
    }
    if dump:
        for n in cutoffs:
            op = build_T(symbol, lattice, n, tag)
            buf = io.StringIO()
            writer = csv.writer(buf)
            for row in op.matrix:
                writer.writerow([f"{x:.17g}" for x in row])
            _write_atomic(str(Path(dump) / f"matrix_N{n}.csv"), buf.getvalue())

    code = EXIT_OK
    if not report.stable:
        result["verdict"] = "unstable"
        code = EXIT_VERIFICATION
        sys.stderr.write(
            f"unstable: per-cutoff real indices {[c.index_real for c in report.per_cutoff]}, "
            f"gaps {[f'{g:.3g}' for g in report.spectral_gap]}\n"
        )
    else:
        result["verdict"] = "stable"
        if "expect_index_real" in config and report.index_real != int(config["expect_index_real"]):
            result["verdict"] = "stable-but-mismatched"
            code = EXIT_VERIFICATION
            sys.stderr.write(
                f"index mismatch: got {report.index_real}, expected {config['expect_index_real']}\n"
            )
        if "expect_index_complex" in config and report.index_complex != float(config["expect_index_complex"]):
            result["verdict"] = "stable-but-mismatched"
            code = EXIT_VERIFICATION
            sys.stderr.write(
                f"index mismatch: got complex {report.index_complex}, "
                f"expected {config['expect_index_complex']}\n"
            )
    _emit_report("index", config, result, out)
    return code


def cmd_verify(config: dict, out: str | None, seed: int | None) -> int:
    _check_keys(config, {"suites", "seed", "quad_n", "samples"}, "verify config")
    suites = config.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ConfigError(f"verify config needs a nonempty 'suites' list, got {suites!r}")
    unknown = [name for name in suites if not isinstance(name, str) or name not in verify_mod.SUITES]
    if unknown:
        raise ConfigError(f"unknown verify suites {unknown}; known: {sorted(verify_mod.SUITES)}")
    for key in ("samples", "quad_n"):
        if key in config:
            _as_int(config[key], f"'{key}'", minimum=1)
    needs_seed = any(name in verify_mod.RANDOMIZED_SUITES for name in suites)
    if needs_seed and seed is None:
        raise ConfigError("a seed is mandatory for randomized suites")
    if out:
        _require_writable(out)
    results = {}
    all_ok = True
    verify_mod.reset_symbol_memo()
    for name in suites:
        rng = np.random.default_rng(seed) if seed is not None else None
        ok, payload = verify_mod.run_suite(name, config, rng)
        results[name] = {"pass": ok, **payload}
        all_ok = all_ok and ok
    _emit_report("verify", config, {"suites": results, "all_pass": all_ok}, out)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_ledger(config: dict, out: str | None) -> int:
    _check_keys(
        config,
        {"mode", "ahat_integral", "dim_ker_dsigma", "dim_ker_dminus_l21", "index_t_exp_minus"},
        "ledger config",
    )
    mode = config.get("mode")
    if mode not in ("3D", "4D"):
        raise ConfigError("ledger config needs mode '3D' or '4D'")
    names = ("ahat_integral", "dim_ker_dsigma", "dim_ker_dminus_l21", "index_t_exp_minus")
    inp = LedgerInput(**{name: _as_int(config.get(name, 0), f"'{name}'") for name in names})
    result = virtual_dimension_ledger(inp, mode)
    for line in result["chain"]:
        sys.stdout.write(line + "\n")
    _emit_report("ledger", config, result, out)
    return EXIT_OK


def cmd_sweep(config: dict, out: str | None, seed: int | None) -> int:
    _check_keys(config, {"lattice", "symbol", "cutoffs", "domain", "tol_rel", "seed"}, "sweep config")
    lattice, symbol, cutoffs, tag, tol = _parse_run(config, seed)
    if len(cutoffs) < 2:
        raise ConfigError("sweep needs at least 2 cutoffs")
    if out:
        _require_writable(out)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["cutoff", "dim_ker", "dim_coker", "index_real", "gap"])
    for n in cutoffs:
        rec = numerical_index(build_T(symbol, lattice, n, tag), tol, cutoff=n)
        writer.writerow([rec.cutoff, rec.dim_ker, rec.dim_coker, rec.index_real, f"{rec.spectral_gap:.6g}"])
    if out:
        _write_atomic(out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Index and verification runs for the flat-model boundary operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("index", "verify", "ledger", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="report path (stdout if omitted)")
        p.add_argument("--seed-override", type=int, default=None, help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # keep the documented 0/1/2 exit contract
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT

    try:
        config = _load_config(args.config)
        seed = args.seed_override if args.seed_override is not None else config.get("seed")
        seed = _as_int(seed, "'seed'", minimum=0) if seed is not None else None
        if args.command == "index":
            return cmd_index(config, args.out, seed)
        if args.command == "verify":
            return cmd_verify(config, args.out, seed)
        if args.command == "ledger":
            return cmd_ledger(config, args.out)
        return cmd_sweep(config, args.out, seed)
    except (ConfigError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
