import json
import random

import pytest

from diotrans import harness
from diotrans.cli import build_parser, run
from diotrans.geometry import DEFAULT_ENUM_BUDGET
from diotrans.presets import random_system


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_delta_table_json(capsys):
    code, out, _ = _run(capsys, "delta", "--dmax", "6")
    assert code == 0
    rows = json.loads(out)
    assert [r["d"] for r in rows] == [2, 3, 4, 5, 6]
    assert rows[1]["delta_num"] == 3 and rows[1]["delta_den"] == 4
    assert all(r["bounds_ok"] for r in rows)


def test_delta_table_csv(capsys):
    code, out, _ = _run(capsys, "delta", "--dmax", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "d,delta_num,delta_den,decimal,bounds_ok"


def test_usage_error_exit_1(capsys):
    code, _, err = _run(capsys, "delta", "--dmax")  # missing value
    assert code == 1 and "usage" in err.lower()
    code, _, err = _run(capsys, "estimate")  # no system source
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("best-approx", "--random", "1", "--n", "0", "--m", "2"),
        ("transfer", "asymmetric", "--theta", "1/2", "--n", "1", "--m", "1",
         "--X", "10", "--U", "1/10", "--k", "9"),
        ("transfer", "alphas-core", "--preset", "plastic", "--phi", "power:1:-1/2",
         "--psi", "power:1/100:-2", "--h", "0"),
        ("transfer", "semicore", "--preset", "plastic", "--t", "0", "--Phi", "1", "--Psi", "1"),
        ("transfer", "semicore", "--preset", "plastic", "--t", "-2", "--Phi", "1", "--Psi", "1"),
        ("transfer", "lemma", "--preset", "plastic", "--v1", "1,0", "--v2", "0,1,0",
         "--h", "1", "--r", "1"),
        ("transfer", "lemma3d", "--preset", "plastic", "--v1", "1,0,0", "--v2", "0,1,0,0",
         "--h", "1", "--r", "1"),
    ],
)
def test_input_the_library_rejects_is_a_usage_error(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("transfer", "mahler", "--preset", "plastic_dual", "--X", "0", "--U", "1"),
        ("transfer", "mahler", "--preset", "golden", "--X", "0", "--U", "1"),
        ("transfer", "mahler", "--preset", "golden", "--X", "10", "--U=-1/10"),
        ("transfer", "asymmetric", "--preset", "golden", "--X=-10", "--U", "1/10", "--k", "0"),
        ("campaign", "--family", "mahler", "--dims", "1", "--trials", "1"),
        ("campaign", "--family", "main-lemma", "--dims", "3", "0", "--trials", "1"),
        ("campaign", "--family", "inequalities", "--n", "0", "--m", "1", "--trials", "1"),
        ("campaign", "--family", "inequalities", "--n", "1", "--m", "-2", "--trials", "1"),
        ("transfer", "lemma", "--preset", "plastic", "--v1", "1,0,0", "--v2", "0,1,0",
         "--h", "-4", "--r", "-4"),
        ("transfer", "lemma3d", "--preset", "plastic", "--v1", "1,0,0", "--v2", "0,1,0",
         "--h", "-4", "--r", "-4"),
        ("transfer", "lemma", "--preset", "plastic", "--v1", "1,0,0", "--v2", "0,1,0",
         "--h", "4", "--r", "0"),
        ("best-approx", "--preset", "golden", "--t-max", "-5"),
        ("best-approx", "--preset", "golden", "--t-max", "0"),
        ("estimate", "--preset", "golden", "--t-max", "0"),
        ("estimate", "--preset", "golden", "--t-max", "1"),
        ("campaign", "--family", "dominions", "--trials", "-1"),
        ("campaign", "--family", "dominions", "--trials", "0"),
        ("transfer", "mahler", "--theta", "1/2", "--n", "1", "--m", "1",
         "--X", "10", "--U", "1/10", "--budget", "-4"),
        ("transfer", "mahler", "--theta", "1/2", "--n", "1", "--m", "1",
         "--X", "10", "--U", "1/10", "--budget", "0"),
        ("delta", "--dmax", "1"),
    ],
)
def test_nonpositive_radii_and_sizes_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")


def test_hypothesis_violation_exit_2(capsys):
    code, _, err = _run(
        capsys,
        "transfer", "lemma3d", "--preset", "plastic",
        "--v1", "1,0,0", "--v2", "0,1,0", "--h", "1/1000", "--r", "1/1000",
    )
    assert code == 2 and "hypothesis" in err.lower()


def test_budget_exceeded_exit_3(capsys):
    code, _, err = _run(
        capsys,
        "transfer", "mahler", "--theta", "1/2", "--n", "1", "--m", "1",
        "--X", "10", "--U", "1/10", "--budget", "1",
    )
    assert code == 3 and "budget" in err.lower()


def test_estimate_output_parses(capsys):
    code, out, _ = _run(
        capsys, "estimate", "--preset", "golden", "--t-max", "2000"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"primal", "dual"}
    assert abs(data["primal"]["alpha_fit"] - 1.0) < 0.1


def test_theta_and_random_sources(capsys):
    code, out, _ = _run(
        capsys,
        "best-approx", "--theta", "1/3,1/5", "--n", "1", "--m", "2",
        "--t-max", "30",
    )
    assert code == 0 and '"records"' in out
    code, _, _ = _run(
        capsys, "best-approx", "--random", "7", "--n", "1", "--m", "1",
        "--t-max", "50",
    )
    assert code == 0


def test_transfer_and_verify_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, out, _ = _run(
        capsys,
        "transfer", "mahler", "--theta", "1/2", "--n", "1", "--m", "1",
        "--X", "10", "--U", "1/10", "--output", str(cert_file),
    )
    assert code == 0
    code, out, _ = _run(capsys, "verify-certificate", str(cert_file))
    assert code == 0
    assert json.loads(out)["verified"] is True
    # tamper with the stored point and the checker must reject it
    data = json.loads(cert_file.read_text())
    data["output_point"] = [v + 99 for v in data["output_point"]]
    cert_file.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "verify-certificate", str(cert_file))
    assert code == 2
    assert json.loads(out)["verified"] is False


def test_campaign_exit_codes_and_determinism(capsys):
    code, out1, _ = _run(capsys, "campaign", "--family", "uniform-bounds")
    assert code == 0
    _, out2, _ = _run(capsys, "campaign", "--family", "uniform-bounds")
    assert out1 == out2


def test_campaign_csv_details(capsys):
    code, out, _ = _run(
        capsys, "campaign", "--family", "uniform-bounds", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "classical" in header and "sharpened" in header


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "diotrans.cfg"
    cfg.write_text("dmax = 3\nformat = csv  # comment\n")
    code, out, _ = _run(capsys, "delta", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,") and len(lines) == 3  # d = 2, 3
    # explicit flag beats the config value
    code, out, _ = _run(capsys, "delta", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["d"] == 2


def test_unreadable_config_is_usage_error(capsys):
    code, _, err = _run(capsys, "delta", "--config", "/nonexistent/path.cfg")
    assert code == 1


def _subcommands() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {"diotrans": parser, **sub.choices}


SYSTEM_FLAGS = ["--preset", "--theta", "--random", "--n", "--m"]
CLI_SURFACE = {
    "diotrans": ["--config"],
    "delta": ["--dmax", "--format", "--output"],
    "best-approx": SYSTEM_FLAGS + ["--side", "--t-max", "--format", "--output"],
    "estimate": SYSTEM_FLAGS + ["--side", "--t-max", "--output"],
    "transfer": SYSTEM_FLAGS + ["--X", "--U", "--k", "--v1", "--v2", "--h", "--r", "--t",
                                "--Phi", "--Psi", "--direction", "--phi", "--psi",
                                "--budget", "--output"],
    "verify-certificate": ["--output"],
    "campaign": ["--family", "--trials", "--seed", "--dims", "--tier", "--n", "--m",
                 "--format", "--output"],
}


def test_cli_surface_is_pinned():
    surface = {
        name: sorted(flag for action in p._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
        for name, p in _subcommands().items()
    }
    assert surface == {name: sorted(flags) for name, flags in CLI_SURFACE.items()}


def test_budget_defaults_are_the_library_constants():
    subs = _subcommands()
    assert subs["transfer"].get_default("budget") == DEFAULT_ENUM_BUDGET
    assert subs["best-approx"].get_default("budget") is None
    assert subs["estimate"].get_default("budget") is None


@pytest.mark.parametrize(
    "argv",
    [
        ("delta", "--budget", "5"),
        ("best-approx", "--preset", "golden", "--t-max", "50", "--budget", "5"),
        ("estimate", "--preset", "golden", "--t-max", "50", "--budget", "5"),
        ("estimate", "--preset", "golden", "--t-max", "50", "--format", "csv"),
        ("transfer", "mahler", "--theta", "1/2", "--n", "1", "--m", "1",
         "--X", "10", "--U", "1/10", "--format", "json"),
        ("verify-certificate", "cert.json", "--budget", "5"),
        ("verify-certificate", "cert.json", "--format", "json"),
        ("campaign", "--family", "uniform-bounds", "--budget", "5"),
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_config_setting_a_removed_flag_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "diotrans.cfg"
    cfg.write_text("budget = 5\n")
    code, _, err = _run(capsys, "delta", "--config", str(cfg))
    assert code == 1 and err.startswith("usage error:")


def test_config_file_that_is_not_utf_8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "diotrans.cfg"
    cfg.write_bytes(b"dmax = 3\nformat = \xff\n")
    code, _, err = _run(capsys, "delta", "--config", str(cfg))
    assert code == 1 and err.startswith("usage error:")
    assert "Traceback" not in err


def test_certificate_rationals_as_json_integers_verify(tmp_path, capsys):
    fields = {**MAHLER_FIELDS, "theta": [[1]], "target": {"side": "dual", "h": 1, "r": 1}}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(fields))
    code, out, _ = _run(capsys, "verify-certificate", str(cert_file))
    assert code == 0 and json.loads(out)["verified"]


@pytest.mark.parametrize(
    "argv",
    [
        # two free variables beyond the enumeration budget's t = 1580
        ("best-approx", "--preset", "plastic", "--t-max", "1600"),
        ("estimate", "--preset", "plastic", "--t-max", "3000"),
    ],
)
def test_scans_run_past_the_enumeration_budget_limit(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)


def test_scans_of_three_free_variables_run_at_the_deep_tier(capsys):
    # (2 * 500 + 1)^3 > 10^9: the lattice search visits no such box
    ep, ed = harness.exponents_for_system(random_system(random.Random(1), 1, 3), "deep")
    assert (ep.t_max, ed.t_max) == (500, 10**6) and ep.n_records and ed.n_records
    code, out, err = _run(capsys, "best-approx", "--random", "3", "--n", "1", "--m", "3",
                          "--t-max", "500")
    assert code == 0, err
    assert json.loads(out)["records"]


MAHLER_FIELDS = {"kind": "mahler", "n": 1, "m": 1, "theta": [["1/2"]], "params": {},
                 "inputs": {}, "output_point": [1, 0],
                 "target": {"side": "dual", "h": "1", "r": "1"}, "checks": []}


@pytest.mark.parametrize(
    "text",
    [
        "",
        '{"kind": "x"}',
        json.dumps({**MAHLER_FIELDS, "theta": [["1/2", "1/3"]]}),
        json.dumps({**MAHLER_FIELDS, "theta": [["1/0"]]}),
        json.dumps({**MAHLER_FIELDS, "inputs": []}),
        json.dumps({**MAHLER_FIELDS, "inputs": {"v1": ["x", 0]}}),
        json.dumps({**MAHLER_FIELDS, "target": {"h": "1", "r": "1"}}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "dual", "h": "1", "r": "x"}}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "up", "h": "1", "r": "1"}}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "dual", "hbounds": ["1", "1"],
                                                 "rbounds": ["1"]}}),
        json.dumps({**MAHLER_FIELDS, "output_point": [1.5, 0]}),
        json.dumps({**MAHLER_FIELDS, "n": 1.7}),
        b'{"kind": "mahler\xff"}',
        json.dumps({**MAHLER_FIELDS, "theta": [[float("inf")]]}),
        json.dumps({**MAHLER_FIELDS, "theta": [[0.5]]}),
        json.dumps({**MAHLER_FIELDS, "theta": [[True]]}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "dual", "h": float("inf"), "r": "1"}}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "dual", "h": 0.1, "r": "1"}}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "dual", "h": "1e5", "r": "1"}}),
        json.dumps({**MAHLER_FIELDS, "target": {"side": "dual", "hbounds": [True],
                                                 "rbounds": ["1"]}}),
    ],
    ids=["empty", "no-fields", "theta-shape", "theta-zero-denominator", "inputs-not-object",
         "input-entry-not-integer", "target-without-side", "target-bound-not-rational", "target-side-unknown",
         "target-bounds-wrong-length", "output-point-not-integer", "n-not-integer", "not-utf-8",
         "theta-infinity", "theta-float", "theta-boolean", "target-bound-infinity",
         "target-bound-float", "target-bound-exponent", "target-bound-boolean"],
)
def test_malformed_certificate_is_an_error(tmp_path, capsys, text):
    cert_file = tmp_path / "cert.json"
    cert_file.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = _run(capsys, "verify-certificate", str(cert_file))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed certificate: ")
    assert "Traceback" not in err
