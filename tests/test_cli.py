"""End-to-end checks of the command-line interface.

Most tests drive `cli.run` in-process, which exercises the same code path as
the installed console script minus process startup.  One subprocess test
confirms the module entry point itself.
"""

import importlib.resources
import inspect
import json
import math
import pathlib
import shlex
import subprocess
import sys

import jsonschema
import pytest

from diamond_forests import cli
from diamond_forests.expansions import DEFAULT_MAX_ORDER_CAP
from diamond_forests.mc import MAX_PATHS
from diamond_forests import verification
from diamond_forests.verification import Check, SuiteReport


def run_json(argv):
    out, code = cli.run(argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture(scope="module")
def envelope_schema():
    text = (
        importlib.resources.files("diamond_forests")
        .joinpath("schema/diamond-forests-1.schema.json")
        .read_text()
    )
    return json.loads(text)


# ---------------------------------------------------------------------------
# envelope and rendering


def test_envelope_matches_packaged_schema(envelope_schema):
    for argv in (
        ["expand", "--kind", "K", "--order", "4"],
        ["levy", "--order", "8", "--T", "0.3"],
        ["bessel", "--delta", "1", "--lambda", "0.3", "--T", "1"],
        ["cameron-martin", "--order", "6"],
        ["chaos2", "--flat", "1.0", "--grid", "32", "--order", "3"],
        ["signature", "--left", "12", "--right", "21", "--mode", "ito"],
        ["riccati", "--kernel", "exp", "--nu", "0.3", "--lambda", "1.0",
         "--rho", "-0.7", "--a", "0.25", "--b", "0.1", "--T", "1",
         "--steps", "32"],
        ["mc", "--model", "BMdrift", "--paths", "200", "--seed", "1"],
        ["verify", "reorder"],
    ):
        doc = run_json(argv)
        jsonschema.validate(doc, envelope_schema)
        assert doc["schema"] == "diamond-forests/1"
        assert doc["command"] == argv[0]


def test_output_is_byte_deterministic():
    argv = ["mc", "--model", "LevyArea", "--paths", "500", "--steps", "16",
            "--seed", "11"]
    first, _ = cli.run(argv)
    second, _ = cli.run(argv)
    assert first == second


def test_csv_render_of_riccati_grid():
    out, code = cli.run(
        ["riccati", "--kernel", "exp", "--nu", "0.3", "--lambda", "1.0",
         "--rho", "-0.7", "--a", "0.25", "--b", "0.1", "--T", "1",
         "--steps", "8", "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,g"
    assert len(lines) == 1 + 9  # header plus steps+1 grid nodes
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 0.00625) < 1e-12  # a(a-1)/2 + b at tau=0


def test_text_render_mentions_fields():
    out, code = cli.run(["levy", "--order", "6", "--T", "0.5",
                         "--output", "text"])
    assert code == 0
    assert "closed_form" in out
    assert "alpha.4" in out


# ---------------------------------------------------------------------------
# per-command behaviour


def test_expand_known_low_order_coefficients():
    doc = run_json(["expand", "--kind", "K", "--order", "5"])
    orders = doc["result"]["orders"]
    assert [t["coeff"] for t in orders["1"]] == ["1"]
    assert [t["coeff"] for t in orders["2"]] == ["1/2"]
    assert [t["coeff"] for t in orders["3"]] == ["1/2"]
    assert {t["coeff"] for t in orders["4"]} == {"1/2", "1/8"}
    assert doc["result"]["shape_counts"] == {
        "1": 1, "2": 1, "3": 1, "4": 2, "5": 3,
    }


def test_expand_binding_cancels_variance_exponent():
    doc = run_json(["expand", "--kind", "G", "--order", "8",
                    "--bind", "b=-1/2*a^2"])
    assert doc["result"]["all_zero"] is True


def test_expand_rejects_malformed_binding():
    assert cli.main(["expand", "--kind", "G", "--order", "4",
                     "--bind", "nonsense"]) == 2


def test_expand_refuses_a_truncated_binding(capsys):
    assert cli.main(["expand", "--kind", "G", "--order", "3", "--bind", "b=a^"]) == 2
    assert "cannot parse binding 'b=a^'" in capsys.readouterr().err


def test_levy_partial_sum_approaches_closed_form():
    doc = run_json(["levy", "--order", "20", "--T", "0.5"])
    res = doc["result"]
    assert res["alpha"]["2"] == "1"
    assert res["alpha"]["4"] == "1/3"
    assert res["alpha"]["5"] == "0"
    assert abs(res["closed_form"] + math.log(math.cos(0.5))) < 1e-15
    assert res["gap"] < 1e-9


def test_bessel_series_matches_closed_form():
    doc = run_json(["bessel", "--delta", "2", "--lambda", "0.5", "--T", "1",
                    "--x", "1"])
    assert doc["result"]["gap"] <= 1e-10


def test_cameron_martin_leading_coefficients():
    doc = run_json(["cameron-martin", "--order", "6", "--lam", "0.5"])
    coeffs = doc["result"]["cgf_coefficients"]
    assert coeffs["1"] == "-1/2"
    assert coeffs["2"] == "1/6"
    assert coeffs["3"] == "-4/45"
    closed = -0.5 * math.log(math.cosh(math.sqrt(1.0)))
    assert abs(doc["result"]["closed_form"] - closed) < 1e-15


def test_cameron_martin_negative_lambda_uses_the_cosine_branch():
    # -1/2 log cos sqrt(2) = 0.92913...; at lambda < 0 every term of the series
    # is positive and the order-40 tail is about 1.1e-5 (ratio 8/pi^2 per order)
    res = run_json(["cameron-martin", "--order", "40", "--lam", "-1"])["result"]
    assert abs(res["closed_form"] - 0.92913) < 1e-5
    assert 0.0 < res["closed_form"] - res["cgf_value"] <= 2e-5


def test_cameron_martin_outside_the_radius_is_domain_error(capsys):
    # the series diverges at |lambda| >= pi^2/8; it used to print 1 891 750
    assert cli.main(["cameron-martin", "--order", "40", "--lam", "2"]) == 3
    assert "pi^2/8" in capsys.readouterr().err


def test_signature_strat_square_value():
    doc = run_json(["signature", "--left", "11", "--right", "11",
                    "--mode", "strat", "--T", "0.5"])
    res = doc["result"]
    assert res["sigma_left"] == "1/2"
    # <11,11> at time zero is sigma^2 * T^2 / something fixed by the product
    assert abs(res["time_zero_value"] - 0.125) < 1e-15


def test_signature_deep_strat_pair_prints_exact_bracket():
    doc = run_json(["signature", "--left", "11", "--right", "1111",
                    "--mode", "strat", "--T", "1"])
    res = doc["result"]
    assert {"coeff": "1/6", "words": [], "dt_power": "3"} in res["terms"]
    assert res["time_zero_value"] == pytest.approx(1 / 6, rel=1e-15)


def test_signature_twelve_letter_words_return():
    for mode in ("ito", "strat"):
        doc = run_json(["signature", "--left", "112211221122",
                        "--right", "221122112112", "--mode", mode, "--T", "1"])
        assert doc["result"]["terms"]


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("kernel", "w,v,f\n0.0,0.5\n", "bad.csv:2: expected 3 columns (w, v, value)"),
        ("kernel", "0.0,x,1.0\n", "bad.csv:1: non-numeric entry ['0.0', 'x', '1.0']"),
        ("kernel", "# only a comment\n", "bad.csv: no kernel samples found"),
        ("curve", "u,xi\n0.0,0.04,1\n", "bad.csv:2: expected 2 columns (u, xi)"),
        ("curve", "0.0,y\n", "bad.csv:1: non-numeric entry ['0.0', 'y']"),
        ("curve", "\n", "bad.csv: no curve samples found"),
    ],
)
def test_csv_readers_report_row_errors(tmp_path, reader, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    read = {"kernel": lambda p: cli.read_kernel_csv(p, 1.0), "curve": cli.read_curve_csv}
    with pytest.raises(cli.UsageError) as info:
        read[reader](str(path))
    assert str(info.value) == f"{tmp_path}/{message}"
    with pytest.raises(cli.UsageError, match=f"cannot read {reader} file"):
        read[reader](str(tmp_path / "missing.csv"))


def test_chaos2_kernel_csv_round_trip(tmp_path):
    # A constant kernel written through the CSV path must reproduce --flat.
    M, T, value = 24, 1.0, 0.7
    h = T / M
    path = tmp_path / "kern.csv"
    with path.open("w") as fh:
        fh.write("w,v,f\n")
        for i in range(M):
            for j in range(i + 1, M):
                fh.write(f"{i * h},{j * h},{value}\n")
    from_csv = run_json(["chaos2", "--kernel", str(path), "--order", "4"])
    flat = run_json(["chaos2", "--flat", str(value), "--grid", str(M),
                     "--order", "4"])
    assert from_csv["result"]["grid_points"] == M
    for n in "1234":
        assert from_csv["result"]["cumulants"][n] == pytest.approx(
            flat["result"]["cumulants"][n], abs=1e-14)


def test_chaos2_rejects_nonzero_diagonal(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("w,v,f\n0.0,0.0,1.0\n0.0,0.5,1.0\n")
    assert cli.main(["chaos2", "--kernel", str(path), "--order", "2"]) == 2


def test_riccati_result_keys_and_residual():
    doc = run_json(["riccati", "--kernel", "exp", "--nu", "0.3",
                    "--lambda", "1.0", "--rho", "-0.7", "--a", "0.25",
                    "--b", "0.1", "--T", "1", "--steps", "256"])
    res = doc["result"]
    for key in ("grid", "g", "mgf", "residual", "boundary"):
        assert key in res
    assert len(res["grid"]) == len(res["g"]) == 257
    assert res["residual"] < 1e-8
    assert res["mgf"] != 0.0


def test_riccati_power_kernel_runs():
    doc = run_json(["riccati", "--kernel", "power", "--alpha", "0.6",
                    "--nu", "0.3", "--rho", "-0.7", "--a", "0.25",
                    "--b", "0.1", "--T", "1", "--steps", "256"])
    assert doc["result"]["residual"] < 1e-6


@pytest.mark.parametrize(
    "kernel, read, unread",
    [("power", ["--alpha", "0.6"], ["--lambda", "1"]),
     ("exp", ["--lambda", "1"], ["--alpha", "0.6"])],
    ids=["power-lambda", "exp-alpha"],
)
def test_riccati_refuses_the_flag_its_kernel_does_not_read(kernel, read, unread, capsys):
    argv = ["riccati", "--kernel", kernel, *read, *unread, "--nu", "0.3", "--rho", "-0.7",
            "--a", "0.25", "--b", "0.1", "--T", "1", "--steps", "32"]
    assert cli.main(argv) == 2
    assert f"kernel takes no {unread[0]}" in capsys.readouterr().err


def test_mc_bmdrift_estimates_near_truth():
    doc = run_json(["mc", "--model", "BMdrift", "--paths", "200000",
                    "--seed", "5", "--param", "mu=0.2", "--T", "1.0",
                    "--max-order", "2"])
    by_order = {e["order"]: e for e in doc["result"]["estimates"]}
    for order, truth in ((1, 0.2), (2, 1.0)):
        e = by_order[order]
        assert abs(e["value"] - truth) <= 3.5 * e["std_error"]


def test_mc_mgf_weights_on_brownian_motion():
    # E exp(X_T) with X_T ~ N(mu T, T): log-mgf = mu T + T/2.
    doc = run_json(["mc", "--model", "BMdrift", "--paths", "200000",
                    "--seed", "9", "--param", "mu=0.1", "--T", "1.0",
                    "--mgf", "1,0,0"])
    mgf = doc["result"]["mgf"]
    want = math.exp(0.1 + 0.5)
    assert abs(mgf["value"] - want) <= 3.5 * mgf["std_error"]
    assert mgf["log_value"] == pytest.approx(math.log(mgf["value"]))


def test_mc_mgf_log_value_where_every_weight_underflows():
    # exp(-1000 X) underflows to 0 on every path; the log-mean-exp does not.
    # Exact: -1000 mu + 1000^2 sigma^2 / 2 = -999.5 (SE of the log-mean about
    # 0.0093 at 20 000 paths).
    doc = run_json(["mc", "--model", "BMdrift", "--paths", "20000", "--param", "mu=1",
                    "--param", "sigma=0.001", "--mgf=-1000,0,0"])
    mgf = doc["result"]["mgf"]
    assert mgf["value"] == 0.0
    assert abs(mgf["log_value"] + 999.5) <= 0.05
    # std_error / value is 0/0 here; the log's own standard error is not
    assert mgf["std_error"] == 0.0
    assert 0.005 <= mgf["log_std_error"] <= 0.015


def test_mc_unknown_model_is_usage_error():
    assert cli.main(["mc", "--model", "Nope", "--paths", "200"]) == 2


def test_mc_misspelt_parameter_is_usage_error(capsys):
    argv = ["mc", "--model", "BMdrift", "--paths", "100", "--param", "muu=5"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "'muu'" in err and "mu, sigma" in err


def test_signature_negative_time_to_horizon_is_domain_error(capsys):
    argv = ["signature", "--left", "1", "--right", "1", "--mode", "strat", "--T", "-1"]
    assert cli.main(argv) == 3
    assert "dt must be >= 0" in capsys.readouterr().err


def test_mc_unknown_column_is_usage_error(capsys):
    assert cli.main(["mc", "--model", "BMdrift", "--paths", "200", "--column", "Y"]) == 2
    assert "--column" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify plumbing and exit codes


def test_verify_reorder_passes():
    doc = run_json(["verify", "reorder"])
    assert doc["result"]["passed"] is True
    assert all(c["passed"] for c in doc["result"]["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bessel", "--paths", "2000"],
        ["verify", "mc-cross", "--paths", "2000", "--steps", "16"],
    ],
)
def test_verify_monte_carlo_suites_serialize(argv):
    # Check.passed is a numpy bool for the MC checks; it must render as JSON
    doc = run_json(argv)
    assert doc["result"]["passed"] is True
    assert all(c["passed"] is True for c in doc["result"]["checks"])


def test_verify_levy_small_monte_carlo_passes():
    doc = run_json(["verify", "levy", "--paths", "2000"])
    assert doc["result"]["passed"] is True
    assert len(doc["result"]["checks"]) == 3
    # flags that were not given are neither forwarded nor echoed
    assert doc["config"] == {"paths": 2000, "suite": "levy"}


def test_verify_forwards_exactly_the_given_flags(monkeypatch):
    calls = []

    def suite(steps=4096, seed=7):
        calls.append({"steps": steps, "seed": seed})
        return SuiteReport("heston-riccati", [Check("ok", 0.0, 0.0)])

    monkeypatch.setitem(verification.SUITES, "heston-riccati", suite)
    run_json(["verify", "heston-riccati"])
    run_json(["verify", "heston-riccati", "--steps", "64", "--seed", "3"])
    assert calls == [{"steps": 4096, "seed": 7}, {"steps": 64, "seed": 3}]


def test_verify_flag_the_suite_does_not_take_is_usage_error(capsys):
    assert cli.main(["verify", "chaos2", "--order", "3"]) == 2
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["riccati", "--kernel", "exp", "--nu", "0.3", "--lambda", "1", "--rho", "-0.7",
         "--a", "0.25", "--b", "0.1", "--T", "1", "--steps", "4"],
        ["verify", "heston-riccati", "--steps", "4"],
    ],
    ids=["riccati", "verify"],
)
def test_too_few_riccati_steps_name_the_flag(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--steps" in err and "n_steps" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["riccati", "--kernel", "exp", "--nu", "0.3", "--lambda", "1", "--rho", "-0.7",
         "--a", "0.25", "--b", "0.1", "--T", "1", "--steps", "65537"],
        ["verify", "heston-riccati", "--steps", "65537"],
    ],
    ids=["riccati", "verify"],
)
def test_too_many_riccati_steps_name_the_flag(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--steps" in err and "65536" in err and "n_steps" not in err


def test_riccati_step_cap_is_accepted_at_the_flag_check():
    cap = cli.MAX_STEPS
    assert cli._flag("steps", cap, cli.MIN_STEPS, "the Riccati solve", cap) == cap


@pytest.mark.parametrize(
    "flag, value, name",
    [("--a", "nan", "a"), ("--T", "inf", "horizon T"), ("--delta", "nan", "delta"),
     ("--nu", "inf", "nu"), ("--lambda", "inf", "lam"), ("--x", "nan", "x"),
     ("--zeta", "inf", "zeta"), ("--xi0", "inf", "xi0")],
)
def test_non_finite_riccati_inputs_are_refused(flag, value, name, capsys):
    argv = {"--kernel": "exp", "--nu": "0.3", "--lambda": "1", "--rho": "-0.7",
            "--a": "0.25", "--b": "0.1", "--T": "1", "--steps": "32"}
    argv[flag] = value
    assert cli.main(["riccati", *(t for item in argv.items() for t in item)]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["levy", "--T", "nan"], "T"),
        (["cameron-martin", "--lam", "nan"], "lam"),
        (["bessel", "--delta", "2", "--lambda", "0.5", "--T", "1", "--x", "nan"], "x"),
        (["bessel", "--delta", "nan", "--lambda", "0.5", "--T", "1"], "delta"),
        (["bessel", "--delta", "2", "--lambda", "nan", "--T", "1"], "lam"),
        (["bessel", "--delta", "2", "--lambda", "0.5", "--T", "nan"], "T"),
        (["signature", "--left", "1", "--right", "2", "--T", "nan"], "dt"),
        (["mc", "--model", "BMdrift", "--paths", "100", "--param", "mu=nan"], "mu"),
        (["mc", "--model", "BMdrift", "--paths", "100", "--T", "inf"], "horizon"),
        (["chaos2", "--flat", "1", "--grid", "4", "--T", "nan"], "--T"),
        (["chaos2", "--flat", "1", "--grid", "4", "--T", "inf"], "--T"),
        (["chaos2", "--flat", "inf", "--grid", "4"], "--flat"),
        (["chaos2", "--flat", "nan", "--grid", "4"], "--flat"),
    ],
    ids=["levy-T", "cameron-martin-lam", "bessel-x", "bessel-delta", "bessel-lambda",
         "bessel-T", "signature-T", "mc-param", "mc-T", "chaos2-T-nan", "chaos2-T-inf",
         "chaos2-flat-inf", "chaos2-flat-nan"],
)
def test_non_finite_inputs_are_refused(argv, name, capsys):
    assert cli.main(argv) == 2
    assert f"{name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["0", "-1"])
def test_kernel_grid_horizon_not_positive_names_the_flag(T, tmp_path, capsys):
    # reading a kernel file divides by the step T / M, and a negative step
    # flips the sign of kappa_3
    path = tmp_path / "k.csv"
    path.write_text("0.0,0.5,1.0\n")
    for argv in (["chaos2", "--flat", "1", "--grid", "4"],
                 ["chaos2", "--kernel", str(path)],
                 ["mc", "--model", "Chaos2", "--kernel", str(path), "--paths", "100"]):
        assert cli.main([*argv, "--T", T]) == 2
        assert "--T must be finite and positive" in capsys.readouterr().err


def test_chaos2_simulation_without_a_kernel_names_the_flag(capsys):
    assert cli.main(["mc", "--model", "Chaos2", "--paths", "100"]) == 2
    assert "--kernel" in capsys.readouterr().err


def test_kernel_for_a_model_that_reads_none_names_the_flag(tmp_path, capsys):
    # refused before the file is opened: a missing file gives the same answer
    argv = ["mc", "--model", "BMdrift", "--paths", "100", "--kernel", str(tmp_path / "k.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--kernel" in err and "'kernel'" not in err and "cannot read" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--model", "BMdrift", "--paths", str(MAX_PATHS + 1)],
        ["verify", "mc-cross", "--paths", str(MAX_PATHS + 1)],
    ],
    ids=["mc", "verify-mc-cross"],
)
def test_paths_above_the_cap_name_the_flag(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--paths" in err and str(MAX_PATHS) in err and "n_paths" not in err


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_chaos2_grid_below_one_names_the_flag(grid, capsys):
    assert cli.main(["chaos2", "--flat", "1", "--grid", grid, "--order", "4"]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "negative dimensions" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--model", "BMdrift", "--paths", "200", "--steps", "0"],
        ["verify", "levy", "--paths", "2000", "--steps", "0"],
        ["verify", "mc-cross", "--steps", "0"],
    ],
    ids=["mc", "verify-levy", "verify-mc-cross"],
)
def test_zero_simulation_steps_name_the_flag(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--steps" in err and "n_steps" not in err


@pytest.mark.parametrize(
    "argv, flag, keyword",
    [
        (["mc", "--model", "BMdrift", "--paths", "50"], "--paths", "n_paths"),
        (["verify", "mc-cross", "--paths", "50"], "--paths", "n_paths"),
        (["mc", "--model", "BMdrift", "--paths", "1000", "--max-order", "7"],
         "--max-order", "max_order"),
    ],
    ids=["mc-paths", "verify-mc-cross-paths", "mc-max-order"],
)
def test_out_of_range_flags_name_the_flag(argv, flag, keyword, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and keyword not in err


@pytest.mark.parametrize("seed, bound", [("-1", ">= 0"), (str(2**64), f"<= {2**64 - 1}")],
                         ids=["negative", "past-64-bits"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--model", "BMdrift", "--paths", "100"],
        ["verify", "levy", "--paths", "100"],
        ["verify", "bessel", "--paths", "100"],
        ["verify", "mc-cross", "--paths", "100"],
        ["verify", "chaos2"],
    ],
    ids=["mc", "verify-levy", "verify-bessel", "verify-mc-cross", "verify-chaos2"],
)
def test_seed_outside_64_bits_names_the_flag(argv, seed, bound, capsys):
    # every command takes one seed range, refused before anything runs
    assert cli.main([*argv, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert f"--seed must be {bound}" in err, err
    assert "64 bits" not in err and "non-negative" not in err


@pytest.mark.parametrize(
    "argv, low, high, code_at_low",
    [
        (["expand"], 1, DEFAULT_MAX_ORDER_CAP, 0),
        (["expand", "--kind", "G"], 2, DEFAULT_MAX_ORDER_CAP, 0),
        (["expand", "--kind", "SPX"], 2, DEFAULT_MAX_ORDER_CAP, 0),
        (["levy"], 2, None, 0),
        (["bessel", "--delta", "2", "--lambda", "0.1", "--T", "1"], 2, None, 0),
        (["cameron-martin"], 1, None, 0),
        (["chaos2", "--flat", "1", "--grid", "8"], 1, None, 0),
        (["verify", "reorder"], 2, DEFAULT_MAX_ORDER_CAP, 0),
        # the series cut at order 2 runs, and misses -log cos T by far more than 1e-8
        (["verify", "levy"], 2, None, 1),
        (["verify", "cameron-martin"], 1, None, 0),
    ],
    ids=["expand-K", "expand-G", "expand-SPX", "levy", "bessel", "cameron-martin",
         "chaos2", "verify-reorder", "verify-levy", "verify-cameron-martin"],
)
def test_order_outside_the_command_range_names_the_flag(argv, low, high, code_at_low, capsys):
    refused = [(low - 1, f">= {low}")] + ([(high + 1, f"<= {high}")] if high else [])
    for order, bound in refused:
        assert cli.main([*argv, "--order", str(order)]) == 2
        err = capsys.readouterr().err
        assert f"--order must be {bound}" in err, err
        assert "n_max" not in err and "max_order" not in err
    out, code = cli.run([*argv, "--order", str(low)])
    assert code == code_at_low, out
    json.loads(out)


@pytest.mark.parametrize("suite", ["levy", "bessel"])
def test_negative_paths_are_refused(suite, capsys):
    assert cli.main(["verify", suite, "--paths", "-5"]) == 2
    assert "--paths" in capsys.readouterr().err
    # 0 still means "no Monte Carlo check"
    doc = run_json(["verify", suite, "--paths", "0"])
    assert doc["result"]["passed"] is True
    assert not any("MC" in c["name"] for c in doc["result"]["checks"])


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.DISPATCH, "levy", broken)
    assert cli.main(["levy"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom") and "Traceback" in err


def test_verify_failure_sets_exit_code(monkeypatch):
    def failing_suite():
        return SuiteReport("reorder", [Check("forced failure", 1.0, 0.0)])

    monkeypatch.setitem(verification.SUITES, "reorder", failing_suite)
    out, code = cli.run(["verify", "reorder"])
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["passed"] is False


def test_verify_unknown_suite_is_usage_error(capsys):
    assert cli.main(["verify", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err


def test_domain_error_exit_code(capsys):
    # |T| past the convergence radius of the area cgf
    assert cli.main(["levy", "--order", "6", "--T", "2.0"]) == 3
    assert "domain" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\norder = 12\nT = 0.25\n")
    doc = run_json(["levy", "--config", str(cfg)])
    assert doc["config"]["order"] == 12
    assert doc["config"]["T"] == 0.25


def test_explicit_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order = 12\nT = 0.25\n")
    doc = run_json(["levy", "--config", str(cfg), "--T", "0.5"])
    assert doc["config"]["T"] == 0.5
    assert doc["config"]["order"] == 12


@pytest.mark.parametrize("value", ["false", "true"])
def test_config_file_passes_boolean_words_through(value, tmp_path, capsys):
    # no flag is a switch, so "T = false" is a value --T refuses, not a dropped line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"T = {value}\n")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["levy", "--config", str(cfg)])
    assert exit_info.value.code == 2
    assert f"argument --T: invalid float value: '{value}'" in capsys.readouterr().err


def test_config_file_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order equals twelve\n")
    assert cli.main(["levy", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# module entry point


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, diamond_forests.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# the commands that run on exact arithmetic alone, named as the cli-cold cells
EXACT_COMMANDS = {
    "expand-K": ["expand", "--kind", "K", "--order", "5"],
    "expand-K-csv": ["expand", "--kind", "K", "--order", "5", "--output", "csv"],
    "expand-G-bind": ["expand", "--kind", "G", "--order", "6", "--bind", "b=-1/2*a^2"],
    "levy": ["levy", "--order", "20", "--T", "0.4"],
    "cameron-martin": ["cameron-martin", "--order", "10", "--lam", "0.2"],
    "signature": ["signature", "--left", "12", "--right", "1", "--T", "0.5"],
    "verify-reorder": ["verify", "reorder", "--order", "6"],
    "verify-levy": ["verify", "levy"],
    "verify-cameron-martin": ["verify", "cameron-martin"],
    "verify-bessel": ["verify", "bessel"],
}


def _loads_no_numpy(code):
    proc = subprocess.run([sys.executable, "-c", f"{code}; assert 'numpy' not in sys.modules"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", EXACT_COMMANDS)
def test_exact_command_runs_without_numpy(name):
    argv = EXACT_COMMANDS[name]
    _loads_no_numpy(f"import sys; from diamond_forests import cli; assert cli.main({argv!r}) == 0")


@pytest.mark.parametrize("name", ["expand-K", "expand-G-bind", "levy"])
def test_commands_without_suites_load_no_verification_or_signature(name):
    argv = EXACT_COMMANDS[name]
    code = (f"import sys; from diamond_forests import cli; assert cli.main({argv!r}) == 0; "
            "assert 'diamond_forests.verification' not in sys.modules; "
            "assert 'diamond_forests.models.signature' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# the numeric commands, named as the cli-cold cells, at small sizes
NUMERIC_COMMANDS = {
    "bessel": ["bessel", "--delta", "2", "--lambda", "0.3", "--T", "1", "--x", "0.5"],
    "chaos2": ["chaos2", "--flat", "1.0", "--grid", "16", "--order", "4"],
    "riccati": ["riccati", "--kernel", "power", "--nu", "0.3", "--alpha", "0.6", "--rho", "-0.7",
                "--a", "0.2", "--b", "0.1", "--T", "1", "--steps", "64"],
    "mc-heston": ["mc", "--model", "Heston", "--paths", "1000", "--steps", "8",
                  "--param", "xi0=0.04", "--param", "nu=0.3", "--param", "lam=1.0",
                  "--param", "rho=-0.7", "--mgf", "0.2,0.1,0.0"],
    "verify-chaos2": ["verify", "chaos2"],
    "verify-heston-riccati": ["verify", "heston-riccati"],
}
FOREST_ALGEBRA = ("diamond_forests.algebra", "diamond_forests.expansions")


def _runs_without(code, modules):
    checks = "; ".join(f"assert {m!r} not in sys.modules, {m!r}" for m in modules)
    proc = subprocess.run([sys.executable, "-c", f"import sys; {code}; {checks}"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bessel_runs_without_numpy():
    argv = NUMERIC_COMMANDS["bessel"]
    _loads_no_numpy(f"import sys; from diamond_forests import cli; assert cli.main({argv!r}) == 0; "
                    "assert 'diamond_forests.affine' not in sys.modules")


@pytest.mark.parametrize(
    "name", [*NUMERIC_COMMANDS, "levy", "cameron-martin", "signature", "verify-levy",
             "verify-cameron-martin"])
def test_command_without_forests_loads_no_forest_algebra(name):
    argv = NUMERIC_COMMANDS.get(name) or EXACT_COMMANDS[name]
    _runs_without(f"from diamond_forests import cli; assert cli.main({argv!r}) == 0",
                  FOREST_ALGEBRA)


def test_expand_loads_no_dataclasses():
    for argv in (EXACT_COMMANDS["expand-K"], NUMERIC_COMMANDS["bessel"]):
        _runs_without(f"from diamond_forests import cli; assert cli.main({argv!r}) == 0",
                      ("dataclasses", "inspect"))


def test_package_import_loads_no_forest_algebra():
    _runs_without("import diamond_forests", FOREST_ALGEBRA + ("numpy",))


def test_package_names_resolve_to_their_defining_modules():
    import importlib

    import diamond_forests

    for name in diamond_forests.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(
            f"diamond_forests.{diamond_forests._SUBMODULE[name]}")
        assert getattr(diamond_forests, name) is getattr(home, name)
        assert name in home.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        diamond_forests.no_such_name
    with pytest.raises(AttributeError):
        diamond_forests.HALF


def test_verify_help_names_every_suite():
    from diamond_forests import verification

    assert cli.SUITE_NAMES == tuple(sorted(verification.SUITES))
    assert set(cli.VERIFY_ORDER) == {
        name for name, suite in verification.SUITES.items()
        if "order" in inspect.signature(suite).parameters
    }


def test_models_and_verification_import_without_numpy():
    _loads_no_numpy("import sys, diamond_forests.models, diamond_forests.verification")


def test_models_names_resolve_to_their_submodules():
    import importlib

    from diamond_forests import models

    for name in models.__all__:
        home = importlib.import_module(f"diamond_forests.models.{models._SUBMODULE[name]}")
        assert getattr(models, name) is getattr(home, name)
        assert name in home.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        models.no_such_name
    with pytest.raises(AttributeError):
        models.chaos2_diamond


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "diamond_forests.cli",
         "expand", "--kind", "K", "--order", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "diamond-forests/1"
    assert doc["result"]["all_zero"] is False


# ---------------------------------------------------------------------------
# the README's commands


def readme_commands():
    """Each ``diamond-forests ...`` line of the command block in README.md, its
    continuation lines joined and the program name dropped."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("diamond-forests ")]


@pytest.mark.parametrize("argv", readme_commands(),
                         ids=lambda argv: " ".join(argv[:2]).replace("--", ""))
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    # the kernel.csv that `chaos2 --kernel` reads: a flat kernel on 8 grid points
    M = 8
    rows = [f"{i / M},{j / M},1.0" for i in range(M) for j in range(i + 1, M)]
    (tmp_path / "kernel.csv").write_text("w,v,f\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_readme_command_block_is_found():
    # an empty parse would leave the test above with no cases, silently
    assert len(readme_commands()) >= 13
