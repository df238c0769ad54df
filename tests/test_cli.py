import csv
import hashlib
import itertools
import json
import os

import pytest

from _oracles import read_csv
from orientedcp import moments
from orientedcp.cli import main
from orientedcp.reporting import as_float, as_floats, write_json
from orientedcp.weights import WeightDistribution


def _run(tmp_path, name, *sets, out=None, extra=()):
    out = out or str(tmp_path / name.replace("-", "_"))
    argv = [name, "--out", out]
    for kv in sets:
        argv += ["--set", kv]
    argv += list(extra)
    rc = main(argv)
    return rc, out


def _manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def test_simulate_decay_without_transmission(tmp_path):
    rc, out = _run(tmp_path, "simulate", "lambda=0.0", "reps=2", "box.L=3",
                   "horizon=2.0")
    assert rc == 0
    digest, header, rows = read_csv(os.path.join(out, "trace.csv"))
    assert header == ["run_id", "t", "n_infected", "rho_weighted_occupancy"]
    man = _manifest(out)
    assert man["manifest_hash"] == digest
    assert man["outputs"] == ["trace.csv"]
    per_run = {}
    for run_id, t, n, occ in rows:
        per_run.setdefault(run_id, []).append((float(t), int(n)))
    assert len(per_run) == 2
    for series in per_run.values():
        assert series == sorted(series)
        counts = [n for _, n in series]
        assert counts == sorted(counts, reverse=True)


def test_fdecay_reports_exact_time_zero(tmp_path):
    rc, out = _run(tmp_path, "f-decay", "box.d=2", "lambda=0.1", "reps=300",
                   "times=0,1", "dist.kind=two_point", "dist.p=0.7")
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "fdecay.csv"))
    assert header == ["t", "f_hat", "se", "envelope", "ok"]
    t0 = rows[0]
    assert float(t0[0]) == 0.0
    assert float(t0[1]) == pytest.approx(0.7)
    assert float(t0[2]) == 0.0
    assert all(r[4] == "true" for r in rows)


def test_duality_cli_smoke(tmp_path):
    rc, out = _run(tmp_path, "duality", "lambda=0.8", "box.L=4", "horizon=2.0",
                   "reps=150", "dist.kind=two_point", "dist.p=0.7")
    assert rc == 0
    _, _, rows = read_csv(os.path.join(out, "duality.csv"))
    got = {r[0]: r[1] for r in rows}
    assert float(got["per_realization_agreement"]) == 1.0
    assert int(got["disagreements"]) == 0
    assert 0.0 <= float(got["p_forward_all"]) <= 1.0


def test_zeta_cli_smoke(tmp_path):
    rc, out = _run(tmp_path, "zeta-check", "lambda=1.0", "box.L=4",
                   "horizon=2.0", "reps=150")
    assert rc == 0
    _, _, rows = read_csv(os.path.join(out, "zeta.csv"))
    got = {r[0]: r[1] for r in rows}
    assert int(got["reps"]) == 150
    assert int(got["violations"]) == 0


def test_moments_cli_exact_column(tmp_path):
    rc, out = _run(tmp_path, "moments", "d=2", "n=1,2", "lambda=0.5",
                   "walk_samples=500")
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "moments.csv"))
    assert header[:5] == ["d", "n", "lambda", "dist_id", "expected_count_exact"]
    assert len(rows) == 2
    from orientedcp.weights import WeightDistribution
    for row in rows:
        n = int(row[1])
        want = moments.expected_path_count(WeightDistribution.constant(1.0),
                                           2, 0.5, n)
        assert float(row[4]) == pytest.approx(want)
        assert 0.0 <= float(row[7]) <= 1.0


@pytest.mark.parametrize("walk_samples, method", [("0", "exact"), ("500", "mc")])
def test_moments_cli_labels_its_route(tmp_path, walk_samples, method):
    rc, out = _run(tmp_path, "moments", "d=2", "n=1,2", "lambda=0.5",
                   f"walk_samples={walk_samples}")
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "moments.csv"))
    assert header == ["d", "n", "lambda", "dist_id", "expected_count_exact",
                      "ratio", "ratio_se", "survival_lb", "method", "numerator",
                      "denominator"]
    assert [r[8] for r in rows] == [method, method]
    if method == "exact":
        assert all(float(r[6]) == 0.0 for r in rows)


def test_moments_cli_exact_ratio_columns(tmp_path):
    rows = {}
    for bound in ("false", "true"):
        rc, out = _run(tmp_path, "moments", "d=2", "n=2", "lambda=1.0",
                       "walk_samples=0", f"use_bound={bound}",
                       out=str(tmp_path / bound))
        assert rc == 0
        _, header, (row,) = read_csv(os.path.join(out, "moments.csv"))
        rows[bound] = dict(zip(header, row))
    exact = rows["false"]
    assert exact["method"] == "exact"
    ratio, num, den = (float(exact[k]) for k in ("ratio", "numerator", "denominator"))
    assert ratio >= 1.0 and ratio == num / den
    assert float(exact["ratio_se"]) == 0.0
    # the split bound can only raise the second moment
    assert float(rows["true"]["ratio"]) >= ratio


_RATIO_LAWS = (
    (),
    ("dist.kind=two_point", "dist.p=0.5", "dist.hi=2", "dist.lo=0.5"),
    ("dist.kind=table", "dist.values=0.3,1,2", "dist.probs=0.2,0.5,0.3"),
)


def _exact_ratio_fields(out, law, d, n, lam, bound):
    """(ratio, ratio_se, numerator, denominator, survival_lb) of one exact run."""
    rc, out = _run(None, "moments", f"d={d}", f"n={n}", f"lambda={lam}",
                   "walk_samples=0", f"use_bound={str(bound).lower()}", *law,
                   out=out)
    assert rc == 0
    _, header, (row,) = read_csv(os.path.join(out, "moments.csv"))
    # dist_id may hold commas, so the fields are matched from the row's end
    fields = dict(zip(reversed(header), reversed(row)))
    return tuple(float(fields[k]) for k in ("ratio", "ratio_se", "numerator",
                                            "denominator", "survival_lb"))


def test_exact_ratio_fields_golden(tmp_path):
    # sha256 of the fields' reprs over 3 laws x (d, n) x lambda x use_bound
    grid = itertools.product(_RATIO_LAWS, ((2, 4), (3, 3)), (0.4, 1.3),
                             (False, True))
    rows = [_exact_ratio_fields(str(tmp_path / str(i)), law, d, n, lam, bound)
            for i, (law, (d, n), lam, bound) in enumerate(grid)]
    assert len(rows) == 24
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "8368185cf1686c1f1ddc9f4f258d3fb6354fcc40cc60bafc0e212580cbcd1ae8"


def test_walks_cli(tmp_path):
    rc, out = _run(tmp_path, "walks", "d=2,3", "horizon=200", "samples=2000")
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "walks.csv"))
    assert header == ["d", "horizon", "samples", "tau_ge2_prob", "se",
                      "d2_scaled", "censored_frac"]
    assert [int(r[0]) for r in rows] == [2, 3]
    for r in rows:
        q, scaled = float(r[3]), float(r[5])
        assert 0.0 < q < 1.0
        assert scaled == pytest.approx(q * int(r[0]) ** 2)


def test_functional_cli(tmp_path):
    rc, out = _run(tmp_path, "functional", "d=3", "lambda=0.3", "samples=400",
                   "horizon=128")
    assert rc == 0
    with open(os.path.join(out, "functional.json")) as fh:
        payload = json.load(fh)
    assert payload["value"] > 0.0
    assert sum(s for _, s in payload["m_sums"]) == pytest.approx(payload["value"])


def test_functional_cli_zero_second_moment_exits_2(tmp_path, capsys):
    rc, out = _run(tmp_path, "functional", "d=3", "lambda=0.3", "samples=50",
                   "horizon=16", "dist.kind=two_point", "dist.p=0")
    assert rc == 2
    assert "zero second moment" in capsys.readouterr().err
    assert not os.path.exists(out)


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


def test_functional_cli_single_sample_is_strict_json(tmp_path):
    rc, out = _run(tmp_path, "functional", "d=3", "lambda=0.3", "samples=1",
                   "horizon=64")
    assert rc == 0
    with open(os.path.join(out, "functional.json")) as fh:
        payload = json.loads(fh.read(), parse_constant=_reject_constant)
    assert payload["se"] is None


def test_functional_cli_overflowing_se_is_strict_json(tmp_path):
    # at a low rate and a long horizon the sample spread overflows, so the
    # standard error is not finite and is written as null
    rc, out = _run(tmp_path, "functional", "d=2", "lambda=0.05", "samples=50",
                   "horizon=3000", extra=("--seed", "1"))
    assert rc == 0
    with open(os.path.join(out, "functional.json")) as fh:
        payload = json.loads(fh.read(), parse_constant=_reject_constant)
    assert payload["se"] is None
    assert payload["value"] > 0.0


def test_functional_cli_overflowing_value_is_strict_json(tmp_path):
    # longer still, some integrands overflow: the mean, its m-sum and a
    # ratio of m-sums are then not finite, and each is written as null; at
    # 30000 steps a denominator underflows to 0 as well, and its integrand
    # is the IEEE quotient inf
    for horizon, seed in (("15000", "2"), ("30000", "1")):
        rc, out = _run(tmp_path, "functional", "d=2", "lambda=0.05", "samples=50",
                       f"horizon={horizon}", extra=("--seed", seed),
                       out=str(tmp_path / horizon))
        assert rc == 0
        with open(os.path.join(out, "functional.json")) as fh:
            payload = json.loads(fh.read(), parse_constant=_reject_constant)
        assert payload["value"] is None and payload["se"] is None
        assert any(v is None for _, v in payload["m_sums"])
        assert any(v is None for _, v in payload["m_sum_ratios"])
        assert all(v is None or v >= 0.0 for _, v in payload["m_sums"])


def test_functional_cli_overflowing_power_is_strict_json(tmp_path):
    # with M = 2 a power in the integrand passes the float range, where
    # Python's float ** raises OverflowError; the integrand is then inf
    rc, out = _run(tmp_path, "functional", "d=2", "lambda=0.5", "samples=50",
                   "horizon=30000", "dist.kind=two_point", "dist.p=0.5",
                   "dist.hi=2", "dist.lo=0.5", extra=("--seed", "1"))
    assert rc == 0
    with open(os.path.join(out, "functional.json")) as fh:
        payload = json.loads(fh.read(), parse_constant=_reject_constant)
    assert payload["value"] is None
    assert any(v is None for _, v in payload["m_sums"])

def test_write_json_refuses_non_finite_floats(tmp_path):
    # the refusal comes before the file or its directory is made
    path = tmp_path / "run" / "bad.json"
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            write_json(str(path), {"se": bad})
    assert not (tmp_path / "run").exists()


def test_critscan_cli(tmp_path):
    rc, out = _run(tmp_path, "critscan", "d=2", "L=5", "horizon=6.0",
                   "reps_per_probe=150", "tol=0.1", "check_box=false")
    assert rc == 0
    _, header, rows = read_csv(os.path.join(out, "probes.csv"))
    assert header == ["d", "dist_id", "lambda", "p_hat", "se", "L", "horizon",
                      "reps", "settled"]
    assert len(rows) >= 3
    # bracket ends stop once their verdict is settled and carry no se
    ends = [r for r in rows if r[8] == "true"]
    assert len(ends) >= 2 and all(r[4] == "" for r in ends)
    assert all(r[8] == "false" and r[4] != "" for r in rows if r not in ends)
    with open(os.path.join(out, "critscan.json")) as fh:
        (summary,) = json.load(fh)
    assert summary["status"] in ("converged", "statistically_limited")
    assert summary["scaled"] > 0.0
    with open(os.path.join(out, "critscan.svg")) as fh:
        svg = fh.read()
    assert svg.startswith("<svg") and "</svg>" in svg
    # the error bars are d * tol, and the series label names them so
    assert ">d * estimated critical rate, bars +/- d * tol (bisection tolerance)<" in svg


def test_report_cli_aggregates_runs(tmp_path):
    _, out_a = _run(tmp_path, "walks", "d=2", "horizon=50", "samples=200")
    _, out_b = _run(tmp_path, "moments", "d=2", "n=1", "lambda=1.0",
                    "walk_samples=0")
    rc, out = _run(tmp_path, "report", f"dirs={out_a},{out_b}")
    assert rc == 0
    with open(os.path.join(out, "report.json")) as fh:
        payload = json.load(fh)
    assert [e["subcommand"] for e in payload["runs"]] == ["walks", "moments"]
    with open(os.path.join(out, "report.md")) as fh:
        text = fh.read()
    assert "walks" in text and "moments" in text


@pytest.mark.parametrize("where", ["list", "no-hash", "no-outputs", "int-hash",
                                   "not-json"])
def test_report_rejects_a_malformed_manifest(tmp_path, capsys, where):
    _, good = _run(tmp_path, "walks", "d=2", "horizon=50", "samples=200")
    bad = tmp_path / "bad"
    bad.mkdir()
    man = _manifest(good)
    text = {"list": json.dumps([man]),
            "no-hash": json.dumps({k: v for k, v in man.items()
                                   if k != "manifest_hash"}),
            "no-outputs": json.dumps({k: v for k, v in man.items() if k != "outputs"}),
            "int-hash": json.dumps({**man, "manifest_hash": 7}),
            "not-json": "{"}[where]
    (bad / "manifest.json").write_text(text)
    rc, out = _run(tmp_path, "report", f"dirs={good},{bad}")
    assert rc == 2
    assert os.path.join(str(bad), "manifest.json") in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
    assert not os.path.exists(os.path.join(out, "report.md"))


def test_as_float_rejects_non_finite_values():
    assert as_float("2.5") == 2.5 and as_float(3) == 3.0
    for bad in ("nan", "inf", "-inf", float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"finite number, got {bad!r}"):
            as_float(bad)
    with pytest.raises(ValueError, match="finite"):
        as_floats("1,nan")


@pytest.mark.parametrize("name, sets", [
    ("critscan", ("d=2", "tol=nan")),
    ("simulate", ("lambda=0.5", "horizon=nan")),
    ("simulate", ("lambda=nan",)),
    ("duality", ("lambda=inf",)),
    ("f-decay", ("box.d=2", "lambda=0.1", "times=1,-inf")),
], ids=["critscan-tol", "simulate-horizon", "simulate-lambda", "duality-lambda",
        "fdecay-times"])
def test_non_finite_config_floats_exit_2(tmp_path, capsys, name, sets):
    rc, out = _run(tmp_path, name, *sets)
    assert rc == 2
    assert "expected a finite number, got '" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_unknown_key_exits_2(tmp_path, capsys):
    rc, _ = _run(tmp_path, "walks", "d=2", "bogus=1")
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_required_exits_2(tmp_path, capsys):
    rc, _ = _run(tmp_path, "moments", "d=2", "n=1")
    assert rc == 2
    assert "lambda" in capsys.readouterr().err


def test_bad_dist_kind_exits_2(tmp_path, capsys):
    rc, _ = _run(tmp_path, "duality", "lambda=0.5", "reps=5", "dist.kind=gamma")
    assert rc == 2
    assert "dist.kind" in capsys.readouterr().err


def test_bad_set_pair_exits_2(tmp_path, capsys):
    rc, _ = _run(tmp_path, "walks", "novalue")
    assert rc == 2
    assert "K=V" in capsys.readouterr().err


def test_table_dist_requires_both_keys(tmp_path, capsys):
    rc, _ = _run(tmp_path, "duality", "lambda=0.5", "reps=5",
                 "dist.kind=table", "dist.values=1,2")
    assert rc == 2
    assert "dist.probs" in capsys.readouterr().err


def test_resource_limit_exits_3(tmp_path, capsys):
    rc, _ = _run(tmp_path, "simulate", "lambda=0.1", "box.d=12", "box.L=31")
    assert rc == 3
    assert "resource limit" in capsys.readouterr().err


def test_unbracketable_scan_exits_2(tmp_path, capsys):
    # a 3x3 box drains long before a horizon of 50 at any rate, so the
    # supercritical end can never be found
    rc, _ = _run(tmp_path, "critscan", "d=2", "L=2", "horizon=50",
                 "reps_per_probe=100", "threshold=0.5", "check_box=false")
    assert rc == 2
    err = capsys.readouterr().err
    assert "scan failed" in err and "probed rate=" in err
    assert "settled after" in err


def test_site_percolation_below_threshold_has_no_critical_rate(tmp_path, capsys):
    # two_point(0.5) at d=2 is oriented site percolation below p_c ~ 0.7055:
    # the open cluster is finite, so no rate makes the process survive
    rc, out = _run(tmp_path, "critscan", "d=2", "dist.kind=two_point", "dist.p=0.5")
    assert rc == 2
    assert "no supercritical end" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("d", ["0", "-1"])
def test_critscan_dimension_below_one_exits_2(tmp_path, capsys, d):
    rc, out = _run(tmp_path, "critscan", f"d={d}")
    assert rc == 2
    assert f"d must be >= 1, got {d}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("name, sets", [
    ("simulate", ("lambda=0.5",)),
    ("f-decay", ("box.d=2", "lambda=0.1")),
    ("duality", ("lambda=0.8",)),
    ("zeta-check", ("lambda=0.8",)),
])
def test_zero_reps_exits_2(tmp_path, capsys, name, sets):
    rc, out = _run(tmp_path, name, "reps=0", *sets)
    assert rc == 2
    assert "reps must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_unknown_start_exits_2(tmp_path, capsys):
    rc, out = _run(tmp_path, "simulate", "lambda=0.5", "start=bogus")
    assert rc == 2
    assert "start must be all or origin" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("name, sets", [
    ("walks", ("d=",)),
    ("critscan", ("d=",)),
    ("moments", ("d=2", "lambda=0.5", "n=")),
    ("f-decay", ("box.d=2", "lambda=0.1", "times=")),
])
def test_empty_list_key_exits_2(tmp_path, capsys, name, sets):
    # an empty list would run nothing and write header-only outputs
    rc, out = _run(tmp_path, name, *sets)
    assert rc == 2
    key = sets[-1].split("=")[0]
    assert f"config key {key!r} for {name} needs at least one value" in \
        capsys.readouterr().err
    assert not os.path.exists(out)


def test_simulate_empty_sample_times_picks_them(tmp_path):
    # simulate's empty default means eight times spread over the horizon
    rc, out = _run(tmp_path, "simulate", "lambda=0.5", "box.L=3", "horizon=2.0",
                   "sample_times=")
    assert rc == 0
    _, _, rows = read_csv(os.path.join(out, "trace.csv"))
    assert [float(t) for _, t, _, _ in rows] == [0.25 * (k + 1) for k in range(8)]


def test_sample_time_past_horizon_exits_2(tmp_path, capsys):
    rc, out = _run(tmp_path, "simulate", "lambda=0.5", "horizon=2.0",
                   "sample_times=0.5,1,5")
    assert rc == 2
    assert "past the horizon 2.0" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_jobs_validation(tmp_path, capsys):
    rc, _ = _run(tmp_path, "walks", "d=2", extra=("--jobs", "0"))
    assert rc == 2
    assert "--jobs" in capsys.readouterr().err


def test_manifest_rerun_is_byte_identical(tmp_path):
    rc, out_a = _run(tmp_path, "f-decay", "box.d=2", "lambda=0.15", "reps=200",
                     "times=0,1,2", "dist.kind=two_point", "dist.p=0.6",
                     "seed=5")
    assert rc == 0
    out_b = str(tmp_path / "rerun")
    rc = main(["f-decay", "--config", os.path.join(out_a, "manifest.json"),
               "--out", out_b])
    assert rc == 0
    for name in ("fdecay.csv", "manifest.json"):
        with open(os.path.join(out_a, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            b = fh.read()
        assert a == b, name


def test_seed_flag_wins_over_config(tmp_path):
    _, out_a = _run(tmp_path, "walks", "d=2", "horizon=20", "samples=100",
                    "seed=1", out=str(tmp_path / "a"))
    _, out_b = _run(tmp_path, "walks", "d=2", "horizon=20", "samples=100",
                    "seed=1", out=str(tmp_path / "b"), extra=("--seed", "2"))
    man_a, man_b = _manifest(out_a), _manifest(out_b)
    assert man_a["seed"] == 1 and man_b["seed"] == 2
    assert man_a["manifest_hash"] != man_b["manifest_hash"]


def test_config_file_with_comments_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pure-death smoke\n"
        "lambda = 0.0\n"
        "reps = 1\n"
        "box.L = 3\n"
        "horizon = 1.0\n")
    out = str(tmp_path / "cfgrun")
    rc = main(["simulate", "--config", str(cfg), "--set", "reps=2",
               "--out", out])
    assert rc == 0
    man = _manifest(out)
    assert man["config"]["reps"] == 2
    assert man["config"]["lambda"] == 0.0
    assert man["config"]["box.L"] == 3


def test_jobs_do_not_change_results(tmp_path):
    _, out_a = _run(tmp_path, "zeta-check", "lambda=0.8", "box.L=3",
                    "horizon=1.5", "reps=80", out=str(tmp_path / "j1"))
    out_b = str(tmp_path / "j2")
    rc = main(["zeta-check", "--set", "lambda=0.8", "--set", "box.L=3",
               "--set", "horizon=1.5", "--set", "reps=80", "--out", out_b,
               "--jobs", "2"])
    assert rc == 0
    with open(os.path.join(out_a, "zeta.csv"), "rb") as fh:
        a = fh.read()
    with open(os.path.join(out_b, "zeta.csv"), "rb") as fh:
        b = fh.read()
    assert a == b


@pytest.mark.parametrize("name, sets", [
    ("critscan", ("d=2", "L=5", "horizon=6.0", "reps_per_probe=150", "tol=0.1",
                  "check_box=true", "seed=1")),
    ("f-decay", ("box.d=2", "lambda=0.3", "reps=200", "times=0,1,2",
                 "dist.kind=two_point", "dist.p=0.6", "seed=5")),
    ("simulate", ("lambda=0.9", "box.L=4", "horizon=2.0", "reps=5",
                  "dist.kind=table", "dist.values=0.5,1.5", "dist.probs=0.5,0.5",
                  "seed=7")),
], ids=["critscan", "f-decay", "simulate"])
def test_jobs_give_byte_identical_artifacts(tmp_path, name, sets):
    outs = []
    for jobs in ("1", "2"):
        rc, out = _run(tmp_path, name, *sets, out=str(tmp_path / jobs),
                       extra=("--jobs", jobs))
        assert rc == 0
        outs.append(out)
    arts = sorted(set(os.listdir(outs[0])) - {"manifest.json"})
    assert arts == sorted(set(os.listdir(outs[1])) - {"manifest.json"}) and arts
    for art in arts:
        with open(os.path.join(outs[0], art), "rb") as fa, \
                open(os.path.join(outs[1], art), "rb") as fb:
            assert fa.read() == fb.read(), art


_CSV_LAWS = (
    ((), WeightDistribution.constant(1.0)),
    (("dist.kind=two_point", "dist.p=0.5", "dist.hi=2", "dist.lo=0.5"),
     WeightDistribution.two_point(0.5, 2.0, 0.5)),
    (("dist.kind=table", "dist.values=0.5,1,2", "dist.probs=0.2,0.5,0.3"),
     WeightDistribution.from_table([0.5, 1.0, 2.0], [0.2, 0.5, 0.3])),
)

_CSV_RUNS = (
    ("simulate", ("lambda=0.4", "box.L=3", "horizon=2.0", "reps=2"), "trace.csv"),
    ("f-decay", ("box.d=2", "lambda=0.15", "reps=50", "times=0,1"), "fdecay.csv"),
    ("duality", ("lambda=0.8", "box.L=3", "horizon=1.0", "reps=20"), "duality.csv"),
    ("zeta-check", ("lambda=1.0", "box.L=3", "horizon=1.0", "reps=20"), "zeta.csv"),
    ("moments", ("d=2", "n=1,2", "lambda=0.5", "walk_samples=200"), "moments.csv"),
    ("critscan", ("d=2", "L=4", "horizon=4.0", "reps_per_probe=60", "tol=0.2",
                  "check_box=false"), "probes.csv"),
)


def _csv_records(path):
    with open(path, newline="") as fh:
        assert fh.readline().startswith("# manifest_hash=")
        return list(csv.DictReader(fh))


def test_csv_rows_match_their_header_for_every_law(tmp_path):
    # a law label holds commas; each field must still land in its column
    for i, (sets, law) in enumerate(_CSV_LAWS):
        for name, args, fname in _CSV_RUNS:
            out = str(tmp_path / f"{name}{i}")
            assert _run(None, name, *args, *sets, out=out)[0] == 0
            path = os.path.join(out, fname)
            records = _csv_records(path)
            assert records
            for rec in records:
                assert None not in rec and None not in rec.values(), (path, rec)
                if "dist_id" in rec:
                    assert rec["dist_id"] == law.label
            if not sets:    # no commas to quote: the plain comma-joined bytes
                with open(path) as fh:
                    assert '"' not in fh.read()
    out = str(tmp_path / "walks")
    assert _run(None, "walks", "d=2,3", "horizon=50", "samples=100", out=out)[0] == 0
    for rec in _csv_records(os.path.join(out, "walks.csv")):
        assert None not in rec and None not in rec.values()
