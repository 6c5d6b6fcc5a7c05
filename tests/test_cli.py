import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsagergeo import cli
from onsagergeo.acceptance import CriterionResult


def run(capsys, argv, tmp_path=None, config=None):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = list(argv) + ["--config", str(path)]
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def source_env():
    """The environment of a subprocess that imports this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def parse_csv(out):
    lines = out.strip().split("\n")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return lines[0], data


ANALYZE_CFG = {
    "model": {"kind": "geometric", "beta": 1.0, "c": 9.0, "convention": "scaled"},
    "point": [1 / 3, 1 / 3, 1 / 3],
}


def test_help(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage")


def test_analyze_report(tmp_path, capsys):
    code, out, err = run(capsys, ["analyze", "--preset", "lattice3"],
                         tmp_path, ANALYZE_CFG)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert sorted(payload) == ["m_convention", "oracle_residual", "point",
                               "ricci", "riemann", "scalar", "sectional"]
    assert payload["scalar"] == pytest.approx(-27.0, rel=1e-6)
    assert payload["sectional"][0][1] == pytest.approx(-13.5, rel=1e-6)
    assert payload["sectional"][0][0] is None  # nan renders as null
    assert payload["oracle_residual"] < 1e-4
    assert np.asarray(payload["riemann"]).shape == (2, 2, 2, 2)


def test_analyze_is_deterministic(tmp_path, capsys):
    _, first, _ = run(capsys, ["analyze", "--preset", "lattice3"],
                      tmp_path, ANALYZE_CFG)
    _, second, _ = run(capsys, ["analyze", "--preset", "lattice3"],
                       tmp_path, ANALYZE_CFG)
    assert first == second


def test_simulate_csv(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "p0": [0.7, 0.2, 0.1], "T": 0.1, "dt": 0.01}
    code, out, _ = run(capsys, ["simulate", "--preset", "triangle-reaction"],
                       tmp_path, cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == "t,p1,p2,p3,D_f,dissipation_quadratic,dissipation_edgesum"
    assert data.shape == (11, 7)
    assert data[0, 0] == 0.0
    assert data[0, 1:4] == pytest.approx([0.7, 0.2, 0.1])
    assert data[0, 4] == pytest.approx(0.035056107616063342, rel=1e-12)
    assert data[0, 5] == pytest.approx(-0.33576947276125213, rel=1e-12)
    assert data[0, 6] == pytest.approx(-0.33576947276125207, rel=1e-12)
    assert (np.diff(data[:, 4]) <= 0).all()


def test_geodesic_initial_value_csv(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3],
           "phi0": [0.05, 0.0, -0.05]}
    code, out, _ = run(capsys, ["geodesic", "--preset", "lattice3"],
                       tmp_path, cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == "t,gamma1,gamma2,gamma3,phi1,phi2,phi3,speed"
    assert data.shape == (1001, 8)
    assert data[-1, 0] == pytest.approx(1.0)
    assert data[:, 7].max() - data[:, 7].min() < 1e-8
    assert data[:, 1:4].sum(axis=1) == pytest.approx(1.0, abs=1e-10)


def test_geodesic_two_point_csv(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3],
           "p1": [0.5, 0.3, 0.2]}
    code, out, _ = run(capsys, ["geodesic", "--preset", "lattice3"],
                       tmp_path, cfg)
    assert code == 0
    _, data = parse_csv(out)
    assert data.shape == (101, 8)
    assert data[-1, 1:4] == pytest.approx([0.5, 0.3, 0.2], abs=1e-6)


def test_geodesic_rejects_conflicting_modes(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3],
           "phi0": [0.05, 0.0, -0.05], "p1": [0.5, 0.3, 0.2]}
    code, _, err = run(capsys, ["geodesic", "--preset", "lattice3"],
                       tmp_path, cfg)
    assert code == 1
    assert "give either 'phi0' (initial value) or 'p1' (two-point)" in err


def test_geodesic_two_point_validates_nsteps(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3],
           "p1": [0.5, 0.3, 0.2], "nsteps": 0}
    code, _, err = run(capsys, ["geodesic", "--preset", "lattice3"],
                       tmp_path, cfg)
    assert code == 1
    assert "config key 'nsteps' must be a positive integer" in err


def test_transport_csv(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3],
           "phi0": [0.05, 0.0, -0.05], "eta0": [1.0, 0.0, -1.0], "dt": 0.01}
    code, out, _ = run(capsys, ["transport", "--preset", "lattice3"],
                       tmp_path, cfg)
    assert code == 0
    header, data = parse_csv(out)
    assert header == "t,gamma1,gamma2,gamma3,phi1,phi2,phi3,eta1,eta2,eta3,speed"
    assert data.shape == (101, 11)
    assert data[0, 7:10] == pytest.approx([1.0, 0.0, -1.0])


def test_sweep_csv(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}}
    code, out, _ = run(capsys, ["sweep", "--preset", "lattice3", "--grid", "5"],
                       tmp_path, cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p1,p2,p3,K12,R11,R22,S,oracle_residual"
    assert len(lines) == 26
    data = np.genfromtxt(out.splitlines(), delimiter=",", skip_header=1)
    assert np.isfinite(data).all()
    assert (data[:, 1] == data[:, 2]).sum() == 5  # the p2 == p3 midline
    assert data[:, 7].max() < 1e-9


def test_sweep_grid_flag_overrides_config(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "chain": {"preset": "lattice3"}, "grid": 3}
    code, out, _ = run(capsys, ["sweep", "--grid", "2"], tmp_path, cfg)
    assert code == 0
    assert len(out.strip().split("\n")) == 5


LATTICE_RATES = [[1, 2, 1.0], [2, 1, 1.0], [2, 3, 1.0], [3, 2, 1.0]]


@pytest.mark.parametrize("chain", [{"preset": "triangle-reaction"},
                                   {"n": 3, "rates": LATTICE_RATES}],
                         ids=["over-preset", "over-rates"])
def test_sweep_preset_flag_overrides_the_config_chain(tmp_path, capsys, chain):
    cfg = {"model": {"kind": "kl"}, "grid": 2, "chain": chain}
    code, out, err = run(capsys, ["sweep", "--preset", "lattice3"], tmp_path, cfg)
    assert (code, err) == (0, "")
    # a config without a chain sweeps the lattice too
    _, want, _ = run(capsys, ["sweep"], tmp_path, {"model": {"kind": "kl"}, "grid": 2})
    assert out == want


def test_sweep_runs_only_on_the_lattice(tmp_path, capsys):
    code, _, err = run(capsys, ["sweep", "--preset", "triangle-reaction"],
                       tmp_path, {"model": {"kind": "kl"}})
    assert code == 1
    assert "sweep runs on the lattice3 preset only" in err


def test_out_writes_a_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", "--preset", "lattice3",
                                "--out", str(out_path)], tmp_path, ANALYZE_CFG)
    assert code == 0
    assert out == ""
    _, streamed, _ = run(capsys, ["analyze", "--preset", "lattice3"],
                         tmp_path, ANALYZE_CFG)
    assert out_path.read_text() == streamed


@pytest.mark.parametrize("argv,config,message", [
    (["analyze", "--preset", "lattice3"],
     dict(ANALYZE_CFG, bogus=1), "unknown config key 'bogus'"),
    (["analyze", "--preset", "lattice3"],
     {"model": {"kind": "kl"}}, "missing required config key 'point'"),
    (["analyze", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "point": [0.5, 0.5]},
     "config key 'point' must have length 3"),
    (["analyze"],
     {"model": {"kind": "kl"}, "point": [0.5, 0.3, 0.2]},
     "missing required config key 'chain' (or pass --preset)"),
    (["analyze", "--preset", "lattice3"],
     {"model": {"kind": "bogus"}, "point": [0.5, 0.3, 0.2]},
     "config key 'model': unknown mobility kind 'bogus'"),
    (["analyze"],
     {"chain": {"n": 3, "rates": [[0, 2, 1.0]]}, "model": {"kind": "kl"},
      "point": [0.5, 0.3, 0.2]},
     "config key 'chain.rates': bad rate entry (0, 2)"),
    (["simulate", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "T": -1.0},
     "config key 'T' must be a positive number"),
    (["transport", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1]},
     "missing required config key 'eta0'"),
    (["analyze", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "point": [0.2, 0.3, 0.6]},
     "config key 'point': probabilities sum to"),
    (["simulate", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.3]},
     "config key 'p0': probabilities sum to"),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.1], "phi0": [0.1, 0.0, -0.1]},
     "config key 'p0': probabilities sum to"),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "p1": [0.4, 0.4, 0.4]},
     "config key 'p1': probabilities sum to"),
    (["transport", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.6, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1],
      "eta0": [1.0, 0.0, -1.0]},
     "config key 'p0': probabilities sum to"),
    (["sweep"],
     {"chain": [1], "model": {"kind": "kl"}},
     "config key 'chain' must be an object"),
    (["sweep"],
     {"chain": {"preset": "lattice3", "bogus": 1}, "model": {"kind": "kl"}},
     "unknown config key 'chain.bogus'"),
    (["sweep"],
     {"chain": {"n": 3, "rates": LATTICE_RATES}, "model": {"kind": "kl"}},
     "sweep runs on the lattice3 preset only"),
    (["transport", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1],
      "eta0": [float("nan"), 0.0, 0.0]},
     "config key 'eta0' must have finite entries"),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1],
      "dt": float("inf")},
     "config key 'dt' must be a positive number"),
    (["simulate", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "T": float("inf")},
     "config key 'T' must be a positive number"),
    (["simulate", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "dt": float("nan")},
     "config key 'dt' must be a positive number"),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2],
      "phi0": [float("nan"), 0.0, -0.1]},
     "config key 'phi0' must have finite entries"),
    (["analyze"],
     {"chain": {"n": 3, "rates": [[1.7, 2, 1.0]] + LATTICE_RATES[1:]},
      "model": {"kind": "kl"}, "point": [0.5, 0.3, 0.2]},
     "config key 'chain.rates': bad rate entry (1.7, 2): indices are 1-based integers"),
    (["analyze"],
     {"chain": {"n": 3, "rates": [[True, 2, 1.0]] + LATTICE_RATES[1:]},
      "model": {"kind": "kl"}, "point": [0.5, 0.3, 0.2]},
     "config key 'chain.rates': bad rate entry (True, 2): indices are 1-based integers"),
    (["analyze"],
     {"chain": {"n": 3, "rates": LATTICE_RATES + [[1, 2, 5.0]]},
      "model": {"kind": "kl"}, "point": [0.5, 0.3, 0.2]},
     "config key 'chain.rates': bad rate entry (1, 2): the pair is given twice"),
    (["analyze"],
     {"chain": {"n": 3, "rates": LATTICE_RATES[:3] + [[3, 2, 10**400]]},
      "model": {"kind": "kl"}, "point": [0.5, 0.3, 0.2]},
     "config key 'chain.rates': int too large to convert to float"),
    (["simulate", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "T": 1e300, "dt": 1e-300},
     "config keys 'T' and 'dt': the step count T/dt = inf is not finite"),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1],
      "T": 1e300, "dt": 1e-300},
     "config keys 'T' and 'dt': the step count T/dt = inf is not finite"),
    (["transport", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [0.5, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1],
      "eta0": [1.0, 0.0, -1.0], "T": 1e300, "dt": 1e-300},
     "config keys 'T' and 'dt': the step count T/dt = inf is not finite"),
], ids=["unknown-key", "missing-point", "short-point", "missing-chain",
        "bad-model", "bad-rates", "bad-T", "missing-eta0", "off-simplex-point",
        "off-simplex-simulate", "off-simplex-geodesic", "off-simplex-p1",
        "off-simplex-transport", "sweep-chain-not-object", "sweep-chain-unknown-key",
        "sweep-rates-chain", "nan-eta0",
        "inf-dt-geodesic", "inf-T-simulate", "nan-dt-simulate", "nan-phi0",
        "fractional-index", "bool-index", "repeated-pair", "huge-int-rate",
        "step-count-simulate", "step-count-geodesic", "step-count-transport"])
def test_config_errors(tmp_path, capsys, argv, config, message):
    code, out, err = run(capsys, argv, tmp_path, config)
    assert code == 1
    assert out == ""
    assert f"config error: {message}" in err


def test_config_syntax_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{bogus: 1}")
    code, _, err = run(capsys, ["analyze", "--config", str(path)])
    assert code == 1
    assert ("config error: syntax error at line 1 column 2: "
            "Expecting property name enclosed in double quotes") in err


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "--config", str(tmp_path / "no.json")])
    assert code == 1
    assert "config error: config file not found:" in err


def test_boundary_point_exits_2(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "point": [0.7, 0.3, 0.0]}
    code, _, err = run(capsys, ["analyze", "--preset", "lattice3"], tmp_path, cfg)
    assert code == 2
    assert ("BoundaryPoint: point touches the simplex boundary "
            "(min entry 0.000e+00)") in err


def test_non_finite_point_exits_2(tmp_path, capsys):
    cfg = {"model": {"kind": "kl"}, "point": [float("nan"), 0.5, 0.5]}
    code, _, err = run(capsys, ["analyze", "--preset", "lattice3"], tmp_path, cfg)
    assert code == 2
    assert err.startswith("BoundaryPoint: point has a non-finite entry")
    assert "Traceback" not in err


def test_detailed_balance_violation_exits_2(tmp_path, capsys):
    cfg = {
        "chain": {"n": 3, "rates": [[1, 2, 1.0], [2, 1, 1.0], [2, 3, 1.0],
                                    [3, 2, 2.0], [1, 3, 2.0], [3, 1, 2.0]]},
        "model": {"kind": "kl"},
        "point": [0.5, 0.3, 0.2],
    }
    code, _, err = run(capsys, ["analyze"], tmp_path, cfg)
    assert code == 2
    assert "DetailedBalanceViolation: detailed balance fails:" in err
    assert "1.053e-01" in err


def test_validate_reports_failures(monkeypatch, capsys):
    fake = [
        CriterionResult(1, "stationarity", True, "ok", 0.1),
        CriterionResult(4, "transport", False, "drifted", 0.2),
    ]
    monkeypatch.setattr(cli, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, ["validate"])
    assert code == 3
    assert "validation failed: criterion 4 (transport)" in out


def test_validate_reports_success(monkeypatch, capsys):
    fake = [CriterionResult(k, f"c{k}", True, "ok", 0.0) for k in range(1, 10)]
    monkeypatch.setattr(cli, "run_all", lambda seed: fake)
    code, out, _ = run(capsys, ["validate"])
    assert code == 0
    assert "all criteria passed" in out


def test_module_entry_point_runs_the_cli(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"kind": "kl"}}))
    argv = ["sweep", "--preset", "lattice3", "--grid", "2", "--config", str(config)]
    env = source_env()
    proc = subprocess.run([sys.executable, "-m", "onsagergeo", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "p1,p2,p3,K12,R11,R22,S,oracle_residual"
    assert len(proc.stdout.splitlines()) == 5
    assert proc.stdout == run(capsys, argv)[1]


def test_csv_text_writes_the_bytes_of_fmt():
    rng = np.random.default_rng(92)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e16, 0.1, -1.0, 123456789.0, 1e-5]
    rows = np.concatenate([
        np.array(special * 2).reshape(4, 7),
        rng.normal(size=(30, 7)) * 10.0 ** rng.integers(-30, 30, size=(30, 7)),
    ])
    header = [f"c{i}" for i in range(7)]
    want = "\n".join([",".join(header)]
                     + [",".join(cli.fmt(x) for x in row) for row in rows]) + "\n"
    assert cli.csv_text(header, rows) == want
    one = rows[:, :1]
    assert cli.csv_text(["x"], one) == "x\n" + "".join(cli.fmt(x) + "\n" for x in one[:, 0])


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_non_finite_rates_are_config_errors(tmp_path, capsys, rate):
    cfg = {"chain": {"n": 3, "rates": LATTICE_RATES[:3] + [[3, 2, rate]]},
           "model": {"kind": "kl"}, "point": [0.5, 0.3, 0.2]}
    code, out, err = run(capsys, ["analyze"], tmp_path, cfg)
    assert code == 1
    assert out == ""
    assert f"config error: config key 'chain.rates': rates must be finite: Q[2, 1] = {rate}" in err


def test_a_generator_with_an_infinite_diagonal_is_a_config_error(tmp_path):
    # every rate is finite, but the generator's diagonal sums them to -inf;
    # the stationary solve refuses the matrix at once instead of running its
    # SVD on it, which need not return
    rates = [[1, 2, 1e308], [1, 3, 1e308], [2, 1, 1e308], [3, 1, 1e308],
             [2, 3, 1], [3, 2, 1]]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"chain": {"n": 3, "rates": rates}, "model": {"kind": "kl"},
                                "point": [0.5, 0.3, 0.2]}))
    proc = subprocess.run([sys.executable, "-m", "onsagergeo", "analyze", "--config", str(path)],
                          env=source_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("config error: config key 'chain.rates': "
                           "array must not contain infs or NaNs\n")


NO_SCIPY_SCRIPT = """
import json, sys
from pathlib import Path

import onsagergeo.cli

tmp = Path(sys.argv[1])
runs = [
    (["simulate", "--preset", "triangle-reaction"],
     {"model": {"kind": "kl"}, "p0": [0.7, 0.2, 0.1], "T": 0.1, "dt": 0.01}),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3], "phi0": [0.05, 0.0, -0.05]}),
    (["geodesic", "--preset", "lattice3"],
     {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3], "p1": [0.5, 0.3, 0.2]}),
    (["transport", "--preset", "triangle-reaction"],
     {"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3], "phi0": [0.05, 0.0, -0.05],
      "eta0": [1.0, 0.0, -1.0], "dt": 0.01}),
    (["analyze", "--preset", "lattice3"],
     {"model": {"kind": "geometric", "beta": 1.0, "c": 9.0, "convention": "scaled"},
      "point": [1 / 3, 1 / 3, 1 / 3]}),
    (["sweep", "--preset", "lattice3", "--grid", "2"], {"model": {"kind": "kl"}}),
]
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for k, (argv, cfg) in enumerate(runs):
    path = tmp / f"run{k}.json"
    path.write_text(json.dumps(cfg))
    code = onsagergeo.cli.main(argv + ["--config", str(path), "--out", str(tmp / f"run{k}.out")])
    assert code == 0, (argv, code)
    loaded[f"{k}: {' '.join(argv)}"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_commands_load_no_scipy(tmp_path):
    env = source_env()
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == 7
    assert all(modules == [] for modules in loaded.values()), loaded


BAD_MODELS = [
    ({"kind": "alpha", "alpha": float("nan")}, "model parameter 'alpha' must be finite, got nan"),
    ({"kind": "alpha", "alpha": float("inf")}, "model parameter 'alpha' must be finite, got inf"),
    ({"kind": "alpha", "alpha": "2"}, "model parameter 'alpha' must be a number, got '2'"),
    ({"kind": "geometric", "beta": float("nan")}, "model parameter 'beta' must be finite, got nan"),
    ({"kind": "geometric", "beta": True}, "model parameter 'beta' must be a number, got True"),
    ({"kind": "kl", "convention": "scaled", "c": float("nan")},
     "model parameter 'c' must be finite, got nan"),
    ({"kind": "kl", "convention": "scaled", "c": float("inf")},
     "model parameter 'c' must be finite, got inf"),
    ({"kind": "kl", "c": 3}, "model parameter 'c' applies to the scaled convention only"),
    ({"kind": "geometric", "c": 5},
     "model parameter 'c' applies to the scaled convention only"),
]


@pytest.mark.parametrize("command", ["analyze", "geodesic"])
@pytest.mark.parametrize("model,message", BAD_MODELS,
                         ids=["alpha-nan", "alpha-inf", "alpha-string", "beta-nan",
                              "beta-bool", "c-nan", "c-inf", "kl-c-pi", "geometric-c-pi"])
def test_invalid_model_parameters_are_config_errors(tmp_path, capsys, command, model, message):
    # json reads NaN and Infinity; the model is refused before any arithmetic,
    # so no numpy warning reaches stderr either
    point = {"analyze": {"point": [0.5, 0.3, 0.2]},
             "geodesic": {"p0": [0.5, 0.3, 0.2], "phi0": [0.1, 0.0, -0.1]}}[command]
    code, out, err = run(capsys, [command, "--preset", "lattice3"], tmp_path,
                         dict(point, model=model))
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [f"config error: config key 'model': {message}"]


@pytest.mark.parametrize("extra,key,mode", [
    ({"p1": [0.5, 0.3, 0.2], "T": 2.0}, "T", "an initial-value ('phi0')"),
    ({"p1": [0.5, 0.3, 0.2], "dt": 0.01}, "dt", "an initial-value ('phi0')"),
    ({"p1": [0.5, 0.3, 0.2], "nsteps": 10, "T": 1.0, "dt": 0.1}, "T",
     "an initial-value ('phi0')"),
    ({"phi0": [0.05, 0.0, -0.05], "nsteps": 10}, "nsteps", "a two-point ('p1')"),
], ids=["p1-T", "p1-dt", "p1-T-dt", "phi0-nsteps"])
def test_geodesic_rejects_keys_of_the_other_mode(tmp_path, capsys, extra, key, mode):
    cfg = dict({"model": {"kind": "kl"}, "p0": [1 / 3, 1 / 3, 1 / 3]}, **extra)
    code, out, err = run(capsys, ["geodesic", "--preset", "lattice3"], tmp_path, cfg)
    assert code == 1
    assert out == ""
    assert f"config error: config key '{key}' belongs to {mode} geodesic" in err


# -- the exit-code contract on generated configs -------------------------------------

# rate triples mix valid entries with the ill-formed kinds: fractional, bool
# and out-of-range indices, repeated pairs, and 0, bool and 1e308 rates
RATE_INDICES = st.one_of(st.integers(0, 6), st.sampled_from([1.5, 2.0, True, False]))
RATE_VALUES = st.one_of(st.sampled_from([0, 1, 1e308, True, 2.5]), st.floats(0.1, 10.0))
MODEL_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["kl", "alpha", "geometric", "bogus"])},
    optional={"alpha": st.sampled_from([-1.0, 0.0, 2.0, 1, 3, "2", True, 1e308]),
              "beta": st.sampled_from([0.5, 0.7, 2.0, 0.0, -1.0, 1e308, None]),
              "c": st.sampled_from([1.0, 9.0, 0.0, -1.0, 1e308, True]),
              "convention": st.sampled_from(["pi", "scaled", "weird"]),
              "bogus": st.just(1)})


@st.composite
def analyze_configs(draw):
    """An analyze config on at most five states.  Inline chains give each
    drawn pair one rate both ways, which is reversible, plus stray triples."""
    if draw(st.booleans()):
        n = 3
        chain = {"preset": draw(st.sampled_from(["lattice3", "triangle-reaction"]))}
    else:
        n = draw(st.integers(2, 5))
        pairs = draw(st.lists(st.sampled_from([(i, j) for i in range(1, n + 1)
                                               for j in range(i + 1, n + 1)]),
                              unique=True, max_size=10))
        rate = draw(RATE_VALUES)
        stray = draw(st.lists(st.lists(st.one_of(RATE_INDICES, RATE_VALUES), min_size=3,
                                       max_size=3), max_size=3))
        chain = {"n": n, "rates": [[i, j, rate] for i, j in pairs]
                 + [[j, i, rate] for i, j in pairs] + stray}
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    point = [w / sum(weights) for w in weights]
    return {"chain": chain, "model": draw(MODEL_SPECS), "point": point}


@given(analyze_configs())
def test_analyze_keeps_the_exit_code_contract(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("analyze") / "run.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--config", str(path), "--out", str(path.with_suffix(".out"))])
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
