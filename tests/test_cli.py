"""Command-line interface tests, run in-process through cli.main."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from critgap import cli, fredholm, kernels, mc, observables, validate


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()]
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    header = lines[1].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[2:]]
    return manifest, header, rows


def test_kernel_single_point(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--alpha", "2", "--x", "1",
                           "--y", "2")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    assert header == ["x", "y", "re", "im", "err"]
    assert manifest["command"] == "kernel"
    assert len(rows) == 1
    x, y, re, im, err = rows[0]
    assert (x, y, im) == (1.0, 2.0, 0.0)
    assert re == pytest.approx(kernels.critical_kernel(1.0, 2.0, 2.0),
                               rel=1e-12)
    assert 0.0 <= err < 1e-8


def test_kernel_grid_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--grid", "0.5:1.5:3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "kernel"
    assert len(doc["rows"]) == 9
    assert set(doc["rows"][0]) == {"x", "y", "re", "im", "err"}


def test_kernel_negative_grid_and_points(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--grid", "-1:1:3")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [row[:2] for row in rows[:3]] == [[-1.0, -1.0], [-1.0, 0.0],
                                             [-1.0, 1.0]]
    assert len(rows) == 9
    code, out, _ = run_cli(capsys, "kernel", "--x", "-0.5,1", "--y", "-.5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [row[:2] for row in rows] == [[-0.5, -0.5], [1.0, -0.5]]
    assert rows[0][2] == pytest.approx(
        kernels.critical_kernel(-0.5, -0.5, 1.0), rel=1e-12)


def test_kernel_finite_centered(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--finite", "60", "60",
                           "--centered", "--x", "0", "--y", "0")
    assert code == 0
    _, _, rows = parse_csv(out)
    shift = kernels.centering_shift(60, 60)
    assert rows[0][2] == pytest.approx(
        kernels.finite_kernel(shift, shift, 60, 60), rel=1e-12)


def test_kernel_finite_err_is_order_difference(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--finite", "32", "32",
                           "--centered", "--x", "0.3", "--y", "-0.7")
    assert code == 0
    _, _, rows = parse_csv(out)
    shift = kernels.centering_shift(32, 32)
    x, y = 0.3 + shift, -0.7 + shift
    diff = abs(kernels.finite_kernel(x, y, 32, 32)
               - kernels.finite_kernel(x, y, 32, 32, order=24))
    assert rows[0][4] == diff
    assert diff > 0.0


def test_repeated_command_reuses_every_grid(capsys):
    # the manifest counts the contour grids a command built and reused;
    # a second identical command in one process builds none
    argv = ("kernel", "--finite", "32", "32", "--centered",
            "--grid=-1.5:1.5:5")
    first = parse_csv(run_cli(capsys, *argv)[1])
    second = parse_csv(run_cli(capsys, *argv)[1])
    assert second[0]["grids"]["built"] == 0
    assert second[0]["grids"]["reused"] == 100  # 25 points x 2 orders x 2
    assert (first[0]["grids"]["built"] + first[0]["grids"]["reused"]
            == second[0]["grids"]["reused"])
    assert first[2] == second[2]


def test_kernel_centered_without_finite(capsys):
    code, _, err = run_cli(capsys, "kernel", "--centered", "--x", "0")
    assert code == 2
    assert "--finite" in err


def test_kernel_no_points(capsys):
    code, _, err = run_cli(capsys, "kernel", "--alpha", "1")
    assert code == 2
    assert "--x" in err or "--grid" in err


def test_malformed_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--grid", "1:2"])  # needs min:max:count
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--a-min", "1"])      # missing required --a-max
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_gap_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "gap", "--alpha", "1", "--a-min", "1",
                           "--a-max", "3", "--steps", "3")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    assert header == ["a", "P_halfline", "P_contourQ", "P_contourH",
                      "logP", "u", "u_asym", "err"]
    assert manifest["params"]["steps"] == 3
    assert manifest["u_error"] is None
    a_col = [r[0] for r in rows]
    assert a_col == [1.0, 2.0, 3.0]
    p_col = [r[1] for r in rows]
    assert all(0.0 < p < 1.0 for p in p_col)
    assert p_col == sorted(p_col)              # P is nondecreasing in a
    for r in rows:
        assert abs(r[1] - r[2]) <= 1e-7 and abs(r[2] - r[3]) <= 1e-7
        assert r[4] == pytest.approx(np.log(r[1]), rel=1e-10)
        assert r[5] >= 0.0                     # u column


def test_gap_single_route(capsys):
    code, out, _ = run_cli(capsys, "gap", "--a-min", "2", "--a-max", "2",
                           "--steps", "1", "--routes", "contour-Q")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["a", "P_contourQ", "logP", "u", "u_asym", "err"]
    assert rows[0][1] == pytest.approx(
        fredholm.gap_probability(2.0, 1.0, "contour-Q").p, rel=1e-12)


def test_gap_unknown_route(capsys):
    code, _, err = run_cli(capsys, "gap", "--a-min", "1", "--a-max", "2",
                           "--routes", "simpson")
    assert code == 2
    assert "unknown route 'simpson'" in err


def test_gap_empty_route_name(capsys):
    code, _, err = run_cli(capsys, "gap", "--a-min", "1", "--a-max", "2",
                           "--routes", ",")
    assert code == 2
    assert "unknown route ','" in err


def test_gap_domain_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--a-min", "0", "--a-max", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--a-min", "3", "--a-max", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", "--a-min", "1", "--a-max", "2", "--steps", "0"])
    assert exc.value.code == 2


def test_gap_csv_values_round_trip(capsys):
    # %.17g must reproduce the binary doubles exactly
    code, out, _ = run_cli(capsys, "gap", "--a-min", "1.5", "--a-max", "1.5",
                           "--steps", "1", "--routes", "halfline")
    assert code == 0
    _, _, rows = parse_csv(out)
    direct = fredholm.gap_probability(1.5, 1.0, "halfline")
    assert rows[0][1] == direct.p


def test_gap_manifest_reports_the_workspace_factors(capsys):
    # the u column's workspace: its line and loop node counts and the ranks
    # of its two compressed factors
    code, out, _ = run_cli(capsys, "gap", "--alpha", "1", "--a-min", "1",
                           "--a-max", "3", "--steps", "2", "--format", "json")
    assert code == 0
    ws = observables.RhWorkspace(1.0, 3.0)
    assert json.loads(out)["manifest"]["workspace"] == {
        "line": len(ws.line), "loop": len(ws.loop), "ranks": [48, 48]}


def test_gap_keeps_p_when_the_workspace_fails(capsys):
    # at alpha 0.05 the RH workspace's y1 trips its rounding-scale guard,
    # while the halfline determinant is fine: u is nan, P is kept
    code, out, err = run_cli(capsys, "gap", "--alpha", "0.05", "--a-min", "4",
                             "--a-max", "4", "--steps", "1", "--routes",
                             "halfline")
    assert code == 0
    manifest, header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert math.isnan(row["u"])
    assert row["P_halfline"] == fredholm.gap_probability(4.0, 0.05,
                                                         "halfline").p
    assert manifest["u_error"].startswith("ArithmeticError: ")
    assert "rounding scale" in manifest["u_error"]
    assert err.count("rounding scale") == 1
    # a failing route still fails the command
    code, _, err = run_cli(capsys, "gap", "--alpha", "-1", "--a-min", "1",
                           "--a-max", "1", "--steps", "1", "--routes",
                           "halfline")
    assert code == 1
    assert "alpha must be positive" in err


def test_validate_json_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "critgap-validate"
    assert doc["all_passed"] is True
    assert [chk["identity"] for chk in doc["checks"]] == [
        "gamma-identities", "kernel-factorization", "loop-residue",
        "route-equivalence", "jump-unipotent", "line-reduction",
        "log-derivative", "second-derivative-ode", "double-integral-closure",
        "tail-moment-loop", "tail-moment-line", "tail-bound",
        "asymptotic-window"]
    for chk in doc["checks"]:
        assert chk["passed"] is True
        assert chk["measured"] <= chk["tolerance"]


def test_validate_catches_injected_fault(capsys, monkeypatch):
    # a 1% miscalibration of contour-Q's two factors must fail route
    # equivalence (a global sign flip would not: the determinant sees only
    # the product of the two factors, and the flips cancel).  contour-Q
    # alone writes its factors through kernels._real_factors
    fast = tuple(c for c in validate.CHECKS
                 if c.__name__ == "check_route_equivalence")
    monkeypatch.setattr(validate, "CHECKS", fast)
    true_factors = kernels._real_factors

    def broken(*args, **kwargs):
        left, right = true_factors(*args, **kwargs)
        return 1.01 * left, 1.01 * right

    monkeypatch.setattr(kernels, "_real_factors", broken)
    code, out, _ = run_cli(capsys, "validate")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False


def test_validate_catches_a_contour_h_fault(capsys, monkeypatch):
    # contour-H's loop sum f(z) = sum_t g_t / (z - t) runs over its own
    # loop, whose weights enter g alone: 1% heavier weights there must fail
    # route equivalence, since no other route uses that loop
    fast = tuple(c for c in validate.CHECKS
                 if c.__name__ == "check_route_equivalence")
    monkeypatch.setattr(validate, "CHECKS", fast)
    true_ha_matrix = kernels.ha_matrix
    calls = []

    def broken(pair, a, loop):
        calls.append(a)
        return true_ha_matrix(pair, a, dataclasses.replace(
            loop, weights=1.01 * loop.weights))

    monkeypatch.setattr(kernels, "ha_matrix", broken)
    code, out, _ = run_cli(capsys, "validate")
    assert calls and code == 1
    assert json.loads(out)["all_passed"] is False


def test_mc_csv_deterministic(capsys, tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code1, out1, _ = run_cli(capsys, "mc", "--N", "2", "--M", "2",
                             "--trials", "32", "--seed", "5", "--csv", p1)
    code2, out2, _ = run_cli(capsys, "mc", "--N", "2", "--M", "2",
                             "--trials", "32", "--seed", "5", "--csv", p2,
                             "--threads", "3")
    assert code1 == code2 == 0
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    doc = json.loads(out1)
    assert doc["trials"] == 32
    assert "manifest" in doc and doc["manifest"]["command"] == "mc"
    assert doc["manifest"]["params"]["sampler"] == mc.SAMPLER
    with open(p1, encoding="utf-8") as fh:
        assert f"sampler={mc.SAMPLER}" in fh.readline()
    assert [row["a"] for row in doc["gap_table"]] == [1.0, 2.0, 3.0]


def test_mc_thread_count_resolution(capsys, monkeypatch):
    argv = ("mc", "--N", "2", "--M", "2", "--trials", "4")
    monkeypatch.delenv(mc.THREADS_ENV, raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["manifest"]["params"]["threads"] == 1
    monkeypatch.setenv(mc.THREADS_ENV, "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["manifest"]["params"]["threads"] == 2
    code, out, _ = run_cli(capsys, *argv, "--threads", "3")
    assert code == 0 and json.loads(out)["manifest"]["params"]["threads"] == 3
    code, out, err = run_cli(capsys, *argv, "--threads", "0")
    assert code == 1 and not out
    assert "threads must be a positive integer" in err
    monkeypatch.setenv(mc.THREADS_ENV, "two")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert mc.THREADS_ENV in err


def test_mc_compare_table(capsys):
    code, out, _ = run_cli(capsys, "mc", "--N", "8", "--M", "8",
                           "--trials", "64", "--seed", "11", "--compare")
    assert code == 0
    doc = json.loads(out)
    assert doc["compare_alpha"] == 1.0
    assert doc["compare_error"] is None
    for row in doc["gap_table"]:
        assert 0.0 < row["p_theory"] < 1.0
        assert 0.0 <= row["p_theory_err"] <= 0.01
        assert row["abs_diff"] == pytest.approx(
            abs(row["phat"] - row["p_theory"]), abs=1e-15)
        assert isinstance(row["within_allowance"], bool)


def test_mc_compare_refuses_an_unresolved_theory(capsys):
    # at alpha = M/N = 1/32 halfline's P = 2.52 at a = 1 is not a
    # probability and raises; at a = 2 it has err 7.5: no row may be
    # compared, and the command fails
    code, out, err = run_cli(capsys, "mc", "--N", "64", "--M", "2",
                             "--trials", "16", "--seed", "1", "--compare")
    assert code == 1
    doc = json.loads(out)
    assert doc["compare_error"] and doc["compare_error"] in err
    assert "a=1: ArithmeticError" in doc["compare_error"]
    assert "not a probability" in doc["compare_error"]
    for row in doc["gap_table"]:
        assert row["p_theory"] is None and row["within_allowance"] is None
        assert row["p_theory_err"] is None or not row["p_theory_err"] <= 0.01
        assert f"a={row['a']:g}:" in doc["compare_error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mc_compare_refuses_a_theory_that_raises(capsys):
    # at alpha = M/N = 1/256 every halfline determinant is NaN and raises:
    # each row is refused with its error, the JSON is still written, and
    # the command fails
    code, out, err = run_cli(capsys, "mc", "--N", "256", "--M", "1",
                             "--trials", "16", "--compare")
    assert code == 1
    doc = json.loads(out)
    assert doc["compare_error"] and doc["compare_error"] in err
    assert len(doc["gap_table"]) == 3
    for row in doc["gap_table"]:
        assert row["p_theory"] is None and row["p_theory_err"] is None
        assert row["abs_diff"] is None and row["within_allowance"] is None
        assert f"a={row['a']:g}: ArithmeticError" in doc["compare_error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gap_fails_loudly_where_p_is_nan(capsys):
    # every route's determinant is NaN at alpha 1/256: exit 1, no row
    code, out, err = run_cli(capsys, "gap", "--alpha", "0.00390625",
                             "--a-min", "1", "--a-max", "1", "--steps", "1")
    assert code == 1
    assert not out
    assert "determinant is nan" in err


def test_gap_fails_loudly_where_p_is_not_a_probability(capsys):
    # at alpha 1/32 halfline's determinant is finite but P = 2.52 at a = 1:
    # exit 1, no row
    code, out, err = run_cli(capsys, "gap", "--alpha", "0.03125",
                             "--a-min", "1", "--a-max", "1", "--steps", "1",
                             "--routes", "halfline")
    assert code == 1
    assert not out
    assert "not a probability" in err


def test_runtime_errors_exit_1(capsys):
    # negative alpha breaks contour geometry; reported, not raised
    code, _, err = run_cli(capsys, "kernel", "--alpha", "-1", "--x", "1",
                           "--y", "1")
    assert code == 1
    assert err.strip()
    code, _, err = run_cli(capsys, "mc", "--N", "300", "--M", "1",
                           "--trials", "1")
    assert code == 1
    assert "256" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
