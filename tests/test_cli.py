import json

import pytest

from diraclab.cli import main


def write_config(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def load_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


INDEX_3D = {
    "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 32},
    "symbol": {"d_minus": [{"mode": [0.0], "re": 1.0}]},
    "cutoffs": [8, 16, 32],
    "domain": "ExpMinus",
    "expect_index_real": 0,
}


def test_cmd_index_half_integer_identity(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", INDEX_3D)
    out = tmp_path / "report.json"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    report = load_report(out)
    assert report["result"]["stable"] is True
    assert report["result"]["index_real"] == 0
    assert report["result"]["verdict"] == "stable"
    assert report["result"]["winding_d_minus"] == 0.0


def test_cmd_index_torus_trivial_case(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"dim_link": 2, "offset_t": 0.0, "offset_s": 0.0, "cutoff": 8},
            "symbol": {"d_minus": [{"mode": [0.0, 0.0], "re": 1.0}]},
            "cutoffs": [2, 4, 8],
            "expect_index_complex": -1.0,
        },
    )
    out = tmp_path / "report.json"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    report = load_report(out)
    assert report["result"]["index_complex"] == -1.0


def test_cmd_index_vanishing_symbol_is_input_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 8},
            "symbol": {"d_plus": [], "d_minus": []},
            "cutoffs": [2, 4, 8],
        },
    )
    assert main(["index", "--config", cfg]) == 1


def test_cmd_index_expectation_mismatch_exits_2(tmp_path):
    cfg = dict(INDEX_3D)
    cfg["expect_index_real"] = 4
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "report.json"
    assert main(["index", "--config", path, "--out", str(out)]) == 2
    assert load_report(out)["result"]["verdict"] == "stable-but-mismatched"


def test_cmd_index_unknown_key_rejected(tmp_path):
    cfg = dict(INDEX_3D)
    cfg["typo_field"] = 1
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["index", "--config", path]) == 1


def test_cmd_index_random_symbol_requires_seed(tmp_path):
    cfg = {
        "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 16},
        "symbol": {"random": {"bandwidth": 1.5}},
        "cutoffs": [4, 8, 16],
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["index", "--config", path]) == 1
    cfg["seed"] = 11
    path = write_config(tmp_path / "cfg2.json", cfg)
    out = tmp_path / "r.json"
    assert main(["index", "--config", path, "--out", str(out)]) == 0
    assert load_report(out)["result"]["index_real"] == 0


def test_reports_are_reproducible_modulo_timestamp(tmp_path):
    cfg = {
        "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 16},
        "symbol": {"random": {"bandwidth": 1.5}},
        "cutoffs": [4, 8, 16],
        "seed": 3,
    }
    path = write_config(tmp_path / "cfg.json", cfg)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["index", "--config", path, "--out", str(out1)]) == 0
    assert main(["index", "--config", path, "--out", str(out2)]) == 0
    t1 = strip_timestamp(out1.read_text(encoding="utf-8"))
    t2 = strip_timestamp(out2.read_text(encoding="utf-8"))
    assert t1 == t2
    # the seed override changes the drawn symbol, hence the report body
    out3 = tmp_path / "r3.json"
    assert main(["index", "--config", path, "--out", str(out3), "--seed-override", "4"]) == 0
    assert strip_timestamp(out3.read_text(encoding="utf-8")) != t1


def test_cmd_ledger_threedim(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"mode": "3D", "dim_ker_dminus_l21": 3})
    out = tmp_path / "ledger.json"
    assert main(["ledger", "--config", cfg, "--out", str(out)]) == 0
    report = load_report(out)
    assert report["result"]["virtual_dim"] == 0
    printed = capsys.readouterr().out
    assert "virtual dim" in printed


def test_cmd_ledger_parity_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"mode": "4D", "dim_ker_dsigma": 3})
    assert main(["ledger", "--config", cfg]) == 1


def test_cmd_sweep_csv_columns(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 16},
            "symbol": {"d_minus": [{"mode": [0.0], "re": 1.0}], "d_plus": [{"mode": [1.0], "re": 1.0}]},
            "cutoffs": [4, 8, 16],
        },
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "cutoff,dim_ker,dim_coker,index_real,gap"
    assert len(lines) == 4
    assert lines[1].startswith("4,1,1,0,")


def test_cmd_sweep_single_cutoff_rejected(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 16},
            "symbol": {"d_minus": [{"mode": [0.0], "re": 1.0}]},
            "cutoffs": [16],
        },
    )
    assert main(["sweep", "--config", cfg]) == 1


def test_cmd_verify_bessel_suite(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"suites": ["bessel"]})
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = load_report(out)
    assert report["result"]["suites"]["bessel"]["pass"] is True


def test_cmd_verify_randomized_suite_needs_seed(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"suites": ["kernel-identity"]})
    assert main(["verify", "--config", cfg]) == 1
    cfg2 = write_config(
        tmp_path / "cfg2.json", {"suites": ["kernel-identity"], "seed": 5, "samples": 5}
    )
    assert main(["verify", "--config", cfg2]) == 0


def test_cmd_verify_unknown_suite(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"suites": ["no-such-suite"]})
    assert main(["verify", "--config", cfg]) == 1


def test_symbol_from_file(tmp_path):
    sym_path = tmp_path / "symbol.json"
    sym_path.write_text(json.dumps({"d_minus": [{"mode": [0.0], "re": 1.0}]}), encoding="utf-8")
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 8},
            "symbol": {"file": str(sym_path)},
            "cutoffs": [2, 4, 8],
        },
    )
    out = tmp_path / "r.json"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0


def test_matrix_dump_flag(tmp_path):
    cfg = dict(INDEX_3D)
    cfg["cutoffs"] = [2, 3, 4]
    cfg["dump_matrices"] = str(tmp_path / "mats")
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["index", "--config", path, "--out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "mats" / "matrix_N4.csv").exists()


def test_cmd_verify_failing_suite_exits_2(tmp_path):
    # an absurdly coarse quadrature cannot meet the stated residuals
    cfg = write_config(tmp_path / "cfg.json", {"suites": ["green"], "quad_n": 2})
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    report = load_report(out)
    assert report["result"]["suites"]["green"]["pass"] is False


def test_cmd_index_unstable_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "lattice": {"dim_link": 1, "offset_t": 0.5, "cutoff": 16},
            "symbol": {
                "d_plus": [{"mode": [1.0], "re": 1.0}, {"mode": [0.0], "re": 3e-4}],
                "d_minus": [{"mode": [0.0], "re": 1.0}],
            },
            "cutoffs": [4, 8, 16],
        },
    )
    out = tmp_path / "r.json"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 2
    assert load_report(out)["result"]["verdict"] == "unstable"
    assert "unstable" in capsys.readouterr().err


def _run_expect_input_error(tmp_path, capsys, command, config, extra=()):
    cfg = write_config(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["index", "sweep"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_symbol_coefficient_is_input_error(tmp_path, capsys, command, bad):
    config = dict(INDEX_3D, symbol={"d_plus": [{"mode": [1.0], "re": 1.0, "im": bad}],
                                    "d_minus": [{"mode": [0.0], "re": 1.0}]})
    config.pop("expect_index_real")
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert "finite" in err


@pytest.mark.parametrize("command", ["index", "sweep"])
@pytest.mark.parametrize("cutoffs", ["abc", ["8", "x"], None])
def test_malformed_cutoffs_are_input_error(tmp_path, capsys, command, cutoffs):
    config = dict(INDEX_3D, cutoffs=cutoffs)
    config.pop("expect_index_real")
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert "cutoffs" in err


@pytest.mark.parametrize("command", ["index", "sweep"])
@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf"), "abc", True])
def test_bad_tol_rel_is_input_error(tmp_path, capsys, command, tol):
    config = dict(INDEX_3D, tol_rel=tol)
    config.pop("expect_index_real")
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert "tol_rel" in err


def test_non_integer_expected_index_is_input_error(tmp_path, capsys):
    config = dict(INDEX_3D, expect_index_real="x")
    assert "'expect_index_real'" in _run_expect_input_error(tmp_path, capsys, "index", config)


@pytest.mark.parametrize("command", ["index", "sweep"])
@pytest.mark.parametrize(
    "spec, named", [({"bandwidth": "wide"}, "bandwidth"), ({"offsets": 5}, "offsets")], ids=["bandwidth", "offsets"]
)
def test_malformed_random_symbol_is_input_error(tmp_path, capsys, command, spec, named):
    config = dict(INDEX_3D, symbol={"random": spec}, seed=3)
    config.pop("expect_index_real")
    assert named in _run_expect_input_error(tmp_path, capsys, command, config)


@pytest.mark.parametrize("command", ["index", "sweep"])
def test_unknown_domain_is_input_error(tmp_path, capsys, command):
    config = dict(INDEX_3D, domain="Bogus")
    config.pop("expect_index_real")
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert "Bogus" in err


def test_non_numeric_symbol_coefficient_is_input_error(tmp_path, capsys):
    config = dict(INDEX_3D, symbol={"d_minus": [{"mode": [0.0], "re": "abc"}]})
    _run_expect_input_error(tmp_path, capsys, "index", config)


@pytest.mark.parametrize("command", ["index", "sweep"])
@pytest.mark.parametrize("key", ["lattice", "symbol"])
def test_missing_lattice_or_symbol_is_input_error(tmp_path, capsys, command, key):
    config = dict(INDEX_3D)
    config.pop("expect_index_real")
    config.pop(key)
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert repr(key) in err


@pytest.mark.parametrize("command", ["index", "sweep"])
@pytest.mark.parametrize("d_minus", [[1], 1, [{"re": 1.0}], [{"mode": "ab", "re": 1.0}]])
def test_malformed_polynomial_entry_is_input_error(tmp_path, capsys, command, d_minus):
    config = dict(INDEX_3D, symbol={"d_minus": d_minus})
    config.pop("expect_index_real")
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert "symbol.d_minus" in err


@pytest.mark.parametrize("command", ["index", "sweep"])
def test_non_numeric_lattice_value_is_input_error(tmp_path, capsys, command):
    config = dict(INDEX_3D, lattice={"dim_link": 1, "offset_t": "x", "cutoff": 32})
    config.pop("expect_index_real")
    err = _run_expect_input_error(tmp_path, capsys, command, config)
    assert "lattice" in err


@pytest.mark.parametrize(
    "config, named",
    [
        ({"suites": ["eta"], "samples": 0, "seed": 1}, "'samples'"),
        ({"suites": ["eta"], "samples": "abc", "seed": 1}, "'samples'"),
        ({"suites": ["eta"], "samples": 2, "seed": "abc"}, "'seed'"),
        ({"suites": ["green"], "quad_n": 0}, "'quad_n'"),
        ({"suites": "ode"}, "'suites' list"),
        ({"suites": ["bessel", ["ode"]]}, "['ode']"),
    ],
    ids=["zero-samples", "non-numeric-samples", "non-numeric-seed", "zero-quad-n", "suites-string",
         "non-string-suite"],
)
def test_malformed_verify_config_is_input_error(tmp_path, capsys, config, named):
    assert named in _run_expect_input_error(tmp_path, capsys, "verify", config)


@pytest.mark.parametrize("key", ["ahat_integral", "dim_ker_dsigma", "dim_ker_dminus_l21", "index_t_exp_minus"])
def test_non_integer_ledger_input_is_input_error(tmp_path, capsys, key):
    err = _run_expect_input_error(tmp_path, capsys, "ledger", {"mode": "4D", key: "x"})
    assert key in err


def test_each_verify_run_draws_its_own_symbols(tmp_path):
    from diraclab import verify

    for seed in (1, 2):
        cfg = write_config(tmp_path / f"cfg{seed}.json", {"suites": ["eta"], "samples": 1, "seed": seed})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / f"r{seed}.json")]) == 0
        assert len(verify._symbol_memo) == 2  # one symbol per lattice, none kept from the earlier run


BLOCKED = "<under a regular file>"


@pytest.mark.parametrize(
    "command, config, extra, named",
    [
        ("verify", {"suites": ["eta"], "samples": 1, "seed": -1}, [], "'seed'"),
        ("verify", {"suites": ["eta"], "samples": 1, "seed": 1}, ["--seed-override", "-1"], "'seed'"),
        ("verify", {"suites": ["bessel"]}, ["--out", BLOCKED], "cannot write"),
        ("index", dict(INDEX_3D, dump_matrices=5), [], "'dump_matrices'"),
        ("index", dict(INDEX_3D, dump_matrices=True), [], "'dump_matrices'"),
        ("index", dict(INDEX_3D, dump_matrices=BLOCKED), [], "cannot write"),
        ("index", INDEX_3D, ["--out", BLOCKED], "cannot write"),
        ("sweep", {k: v for k, v in INDEX_3D.items() if k != "expect_index_real"}, ["--out", BLOCKED],
         "cannot write"),
    ],
    ids=["negative-seed", "negative-seed-override", "unwritable-out", "numeric-dump-matrices",
         "boolean-dump-matrices", "unwritable-dump-matrices", "index-unwritable-out", "sweep-unwritable-out"],
)
def test_unusable_seed_or_output_path_is_input_error(tmp_path, capsys, monkeypatch, command, config, extra, named):
    """Each input exits 1 with a one-line message instead of a traceback, before any ladder or suite runs."""
    from diraclab import cli, verify

    def no_computation(*args, **kwargs):
        raise AssertionError("computation ran before the input error")

    for module, name in ((cli, "stabilized_index"), (cli, "numerical_index"), (verify, "run_suite")):
        monkeypatch.setattr(module, name, no_computation)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")  # a directory cannot be made inside a regular file

    def unblock(value):
        return str(blocker / "sub") if value == BLOCKED else value

    config = {key: unblock(value) for key, value in config.items()}
    err = _run_expect_input_error(tmp_path, capsys, command, config, [unblock(arg) for arg in extra])
    assert named in err
    assert err.count("\n") == 1
