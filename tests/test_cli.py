import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from effridge.cli import (
    EXPERIMENTS,
    PREFIX_COLUMNS,
    cmd_run,
    default_config,
    format_number,
    load_config,
    main,
    parse_results_csv,
    render_plots,
    report_failure,
)
import effridge.cli
import effridge.montecarlo
import effridge.stieltjes
from effridge.datasets import generate_spectrum
from effridge.effective_ridge import Spectrum, calibrate_ridge, solve_effective_ridge
from effridge.errors import CsvParseError, EffridgeError, InfeasibleTargetError, InvalidInputError, NumericError
from effridge.svgplot import line_plot

ROOT = Path(__file__).resolve().parents[1]


def no_trials(*args, **kwargs):
    raise AssertionError("run_trials was called")


def no_draw(*args, **kwargs):
    raise AssertionError("a feature draw was sampled")


def readme_table(column, pattern):
    """The backquoted names matching ``pattern`` in one column of the README's experiment table."""
    table = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 6 and cells[1].strip().strip("`") in EXPERIMENTS:
            table[cells[1].strip().strip("`")] = re.findall(f"`({pattern})`", cells[column])
    return table


def readme_columns():
    """Metric columns per experiment, as listed in the README's experiment table."""
    return readme_table(3, r"\w+")


def readme_plots():
    """Plot file names per experiment, as listed in the README's table; ``<P>`` and ``<ridge>`` are placeholders."""
    return readme_table(4, r"plot_[\w<>]+\.svg")


def sin_csv_config(tmp_path, rows=24, **descriptor):
    """A config file whose dataset is a csv of ``sin(x)`` on ``rows`` points of [0, 6]."""
    data = tmp_path / "data.csv"
    data.write_text("x_0,y\n" + "".join(f"{x},{np.sin(x)}\n" for x in np.linspace(0, 6, rows)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset": {"type": "csv", "path": str(data), **descriptor}}))
    return str(path)


@pytest.fixture
def spectrum_checks(monkeypatch):
    """Every ``Spectrum`` whose eigenvalues get checked, in order."""
    checks = []
    check = Spectrum.__post_init__
    monkeypatch.setattr(Spectrum, "__post_init__", lambda self: checks.append(self) or check(self))
    return checks


def run_fast(experiment, tmp_path, **overrides):
    base = dict(trials=8, output_dir=str(tmp_path / experiment))
    if experiment == "stieltjes":
        base["p_grid"] = [10, 20]
        base.update(dataset={"type": "spectrum", "kind": "exponential", "n": 10})
    if experiment == "expected-a":
        base["p_grid"] = [5, 10]
    if experiment in ("average-rf", "double-descent", "predictor-fan"):
        base.update(dataset={"type": "sinusoid", "n": 4, "n_test": 16})
        base["gamma_grid"] = [0.5, 2.0]
        base["lambda_list"] = [0.1]
    if experiment in ("solve", "calibrate"):
        base["trials"] = 1
    base.update(overrides)
    cfg = load_config(experiment, None, **base)
    return cfg, cmd_run(cfg)


class TestConfig:
    def test_defaults_exist_for_every_experiment(self):
        for exp in EXPERIMENTS:
            cfg = default_config(exp)
            assert cfg.experiment == exp

    def test_unknown_experiment(self):
        with pytest.raises(InvalidInputError):
            default_config("mystery")

    def test_config_file_round_trip(self, tmp_path):
        cfg = default_config("solve")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "solve", "trials": 1, "base_seed": 42}))
        loaded = load_config("solve", path)
        assert loaded.base_seed == 42
        assert loaded.gamma_grid == cfg.gamma_grid

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mystery_knob": 3}))
        with pytest.raises(InvalidInputError):
            load_config("solve", path)

    def test_experiment_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "solve"}))
        with pytest.raises(InvalidInputError):
            load_config("calibrate", path)

    def test_flag_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 5}))
        cfg = load_config("average-rf", path, trials=9)
        assert cfg.trials == 9

    @pytest.mark.parametrize("experiment", ["average-rf", "double-descent", "stieltjes", "expected-a", "predictor-fan"])
    def test_mc_experiments_need_two_trials(self, experiment):
        with pytest.raises(InvalidInputError, match="trials"):
            load_config(experiment, None, trials=1)

    @pytest.mark.parametrize("experiment", ["solve", "calibrate"])
    def test_theory_experiments_take_one_trial(self, experiment):
        assert load_config(experiment, None, trials=1).trials == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            load_config("solve", None, gamma_grid=[])


class TestFormatNumber:
    def test_round_trip_shortest(self):
        for v in (0.1, 1 / 3, 1e-300, 123456.789, np.float64(0.25)):
            assert float(format_number(v)) == float(v)

    def test_integers_stay_integers(self):
        assert format_number(7) == "7"

    def test_rejects_nan(self):
        from effridge.errors import NumericError

        with pytest.raises(NumericError):
            format_number(float("nan"))

    @pytest.mark.parametrize(
        "value, text",
        [
            (0.1, "0.1"),
            (-0.0, "-0.0"),
            (1e-300, "1e-300"),
            (np.float64(1 / 3), "0.3333333333333333"),
            (np.float32(0.1), "0.10000000149011612"),
            (7, "7"),
            (np.int64(-3), "-3"),
            (True, "1"),
            (False, "0"),
            (np.bool_(True), "1"),
            ("average-rf", "average-rf"),
        ],
    )
    def test_pinned_outputs(self, value, text):
        assert format_number(value) == text

    @pytest.mark.parametrize(
        "value, shown",
        [
            (float("inf"), "inf"),
            (-float("inf"), "-inf"),
            (float("nan"), "nan"),
            (np.float64("-inf"), "-inf"),
            (np.float32("nan"), "nan"),
        ],
    )
    def test_pinned_errors(self, value, shown):
        from effridge.errors import NumericError

        with pytest.raises(NumericError, match=f"^refusing to write non-finite value {shown}$"):
            format_number(value)


def quadratic_series_by(rows, group_key, x_key, y_key, label_fmt, marker=False):
    """The first-seen groups, each filtered from all rows: O(rows x groups)."""
    seen = []
    for r in rows:
        if r[group_key] not in seen:
            seen.append(r[group_key])
    series = []
    for g in seen:
        sub = [r for r in rows if r[group_key] == g]
        series.append(
            {
                "label": label_fmt.format(g),
                "x": [r[x_key] for r in sub],
                "y": [r[y_key] for r in sub],
                "marker": marker,
            }
        )
    return series


class TestSeriesBy:
    def test_interleaved_groups_with_signed_zeros(self):
        keys = [0.5, -0.0, 0.5, 0.0, 1.0, -0.0, 1.0, 0.0, 0.5]
        rows = [{"lambda": k, "gamma": float(i), "m": i * 0.1} for i, k in enumerate(keys)]
        # A group's label is its first-seen key, so -0.0 or 0.0 depending on the row order.
        for order, labels in ((rows, ["ridge 0.5", "ridge -0.0", "ridge 1.0"]),
                              (rows[::-1], ["ridge 0.5", "ridge 0.0", "ridge 1.0"])):
            new = effridge.cli._series_by(order, "lambda", "gamma", "m", "ridge {}", marker=True)
            assert repr(new) == repr(quadratic_series_by(order, "lambda", "gamma", "m", "ridge {}", marker=True))
            assert [s["label"] for s in new] == labels

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0, 2.5, 400.0]), max_size=40))
    def test_matches_the_quadratic_definition(self, keys):
        rows = [{"P": k, "idx": float(i), "d": -float(i)} for i, k in enumerate(keys)]
        new = effridge.cli._series_by(rows, "P", "idx", "d", "P = {:.0f}")
        assert repr(new) == repr(quadratic_series_by(rows, "P", "idx", "d", "P = {:.0f}"))


def literal_plot_rows(experiment):
    """Hand-made results rows for ``experiment``: two groups per plot, and a ``0.0`` row joining a ``-0.0`` group."""
    prefix = {"experiment": experiment, "N": 4.0, "seed": 0.0, "trials": 4.0}
    if experiment == "expected-a":
        keys = [(lam, P, idx) for lam in (-0.0, 0.01) for P in (5.0, 10.0) for idx in (1.0, 2.0, 3.0)]
        return [{**prefix, "lambda": lam, "P": P, "idx": idx, "d_tilde": 1.0 / (idx + P / 5.0),
                 "d_theory": 1.0 / (idx + P / 4.0)} for lam, P, idx in keys + [(0.0, 5.0, 4.0)]]
    if experiment == "predictor-fan":
        points = ((1.0, 0.0), (0.0, 2.0), (0.0, 0.5), (1.0, 3.0), (0.0, 1.0))  # (role, x), test x unsorted
        keys = [(lam, gamma, role, x) for lam in (-0.0, 0.1) for gamma in (0.5, 2.0) for role, x in points]
        return [{**prefix, "lambda": lam, "gamma": gamma, "P": 4.0 * gamma, "role": role, "x": x, "f_star": x / 4.0,
                 "mean_prediction": x / (gamma + 3.0), "std_prediction": 0.25 + lam,
                 **{f"sample_{k}": x * (k + 1) / (gamma + 4.0) - lam for k in range(4)}}
                for lam, gamma, role, x in keys + [(0.0, 0.5, 0.0, 4.0)]]
    group, x, metrics = {
        "solve": ("lambda", "gamma", ["lambda_tilde", "d_lambda_tilde", "effective_dimension"]),
        "calibrate": ("lambda_star", "gamma", ["lambda"]),
        "average-rf": ("lambda", "gamma", ["rf_mean_risk", "krr_risk", "mean_rf_vs_krr_rmse", "mc_band_rmse"]),
        "double-descent": ("lambda", "gamma", ["expected_risk", "mean_variance", "risk_of_mean"]),
        "stieltjes": ("lambda", "P", ["m_p_var", "abs_gap"]),
    }[experiment]
    keys = [(-0.0, 0.5), (0.25, 0.5), (-0.0, 2.0), (0.25, 2.0), (0.0, 8.0), (0.25, 8.0)]
    return [{**prefix, group: g, x: xv, **{m: (i + 1) / (k + 3.0) + g for k, m in enumerate(metrics)}}
            for i, (g, xv) in enumerate(keys)]

# sha256 of each SVG that ``render_plots`` draws from ``literal_plot_rows``, recorded before the plot
# table replaced the per-experiment renderers.  The rows hold no sampled or BLAS-computed value.
PLOT_DIGESTS = {
    "solve": {
        "plot_lambda_tilde.svg": "c2a98c9cbd7a126b6745279cb0439a83532f7e788392256d960e9e9e3ee58be4",
        "plot_d_lambda_tilde.svg": "acaa6c2a9ec03d26d918c09a760d907d2301ca4e06a4a8d0bff2aaea6bed83e3",
        "plot_effective_dimension.svg": "6ff45cc5a70abaacde483c697ad7eb3348d8fa4c6463ef7fd2973a3c42c2de28",
    },
    "calibrate": {
        "plot_calibrated_ridge.svg": "70488e9c2b290cc2839c90e045557dfba412dfaca20c256c00f459e5df794781",
    },
    "average-rf": {
        "plot_risk.svg": "207c775c6e8da171c8aad1161ba3956eee6e52fab3a36f8691339e5438828d27",
        "plot_agreement.svg": "3c13951383a4354cc80f78a64389d108d51faab7a8e14a84b6070984cfae5da1",
    },
    "double-descent": {
        "plot_expected_risk.svg": "f1a692aca620889c04ed7b432455d9b9c88b9522e22cba58cd11ce97a6d022ce",
        "plot_mean_variance.svg": "962f3908e7f18f35a6e9ce359b25edbd8e2f9fe21319e3abd272a2891bb0f3f3",
        "plot_risk_of_mean.svg": "8f37f1c7742b32a411defbba3ab1dcdbdf282a5abdde9636fa67549102b2feb0",
    },
    "stieltjes": {
        "plot_mp_variance.svg": "4c42a7cd7d3ae0595bbaa3acf46631b45a7795ad59a941a13746a6f9fafec661",
        "plot_mp_mean_gap.svg": "b851f9910999b989f69b386a8b4292d9a2ed1b5978167f79a7a15335607bc41a",
    },
    "expected-a": {
        "plot_hat_eigenvalues_ridge_m0p0.svg": "4c561ba000191499d88f0116296f2b0b04c5b0d6c1787073eec50ca294a8da43",
        "plot_hat_eigenvalues_ridge_0p01.svg": "35f0181b6ff52b95769251e2659a201de3f07525725c0cf22932b9a493f8004b",
    },
    "predictor-fan": {
        "plot_fan_P2_ridge_m0p0.svg": "068aa60bc293688af0f19b20b069c7a38d121b38315c70a6dffca898dfa967cf",
        "plot_fan_P8_ridge_m0p0.svg": "471aebdf16051aa289f198df849ba8ab720b54b4a324979ec61bda67ed8ef68d",
        "plot_fan_P2_ridge_0p1.svg": "0eae59beb37f910e1db17a00e11c3ea5b5447c28538c7def01b07f3a3068a042",
        "plot_fan_P8_ridge_0p1.svg": "68807930990e6372cbb8d03e48fd7b0abfb9a4ccd8d0d891867c16ccbd399217",
    },
}


class TestPlotBytes:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_svg_bytes_are_pinned(self, experiment):
        rendered = render_plots(experiment, literal_plot_rows(experiment))
        digests = {name: hashlib.sha256(svg.encode("utf-8")).hexdigest() for name, svg in rendered.items()}
        assert digests == PLOT_DIGESTS[experiment]

    def test_log_axis_without_a_positive_point_draws_an_empty_plot(self):
        # A ridgeless-only solve grid puts lambda = 0 on every row, and a log axis drops each one.
        svg = line_plot([{"label": "ridgeless", "x": [0.0, 0.0], "y": [1.0, 2.0], "marker": True}], logx=True)
        assert svg.startswith("<svg") and "<polyline" not in svg and "<circle" not in svg


class TestArtifacts:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_artifacts_written_and_schema(self, experiment, tmp_path):
        cfg, artifacts = run_fast(experiment, tmp_path)
        assert artifacts["results"].exists()
        assert artifacts["config"].exists()
        assert any(name.startswith("plot_") for name in artifacts)
        columns, rows = parse_results_csv(artifacts["results"])
        assert columns[: len(PREFIX_COLUMNS)] == PREFIX_COLUMNS
        assert rows
        for row in rows:
            assert row["experiment"] == experiment
            for c in columns[1:]:
                assert np.isfinite(row[c])

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_header_matches_readme(self, experiment, tmp_path):
        cfg, artifacts = run_fast(experiment, tmp_path)
        columns, _ = parse_results_csv(artifacts["results"])
        expected = PREFIX_COLUMNS + readme_columns()[experiment]
        if experiment == "predictor-fan":
            expected += [f"sample_{k}" for k in range(min(10, cfg.trials))]
        assert columns == expected

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_plot_files_match_readme(self, experiment, tmp_path):
        _, artifacts = run_fast(experiment, tmp_path, lambda_list=[0.1, 1.0])
        templates = readme_plots()[experiment]
        patterns = [re.escape(name).replace("<P>", "[0-9]+").replace("<ridge>", "[0-9mp]+") for name in templates]
        plots = [name for name in artifacts if name not in ("results", "config")]
        assert plots and all(sum(bool(re.fullmatch(p, name)) for p in patterns) == 1 for name in plots)
        assert all(any(re.fullmatch(p, name) for name in plots) for p in patterns)

    def test_run_all_experiments_quick(self, tmp_path):
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"), "--quick", "--out", str(tmp_path)],
            env=env, check=True, capture_output=True,
        )
        for experiment in EXPERIMENTS:
            _, rows = parse_results_csv(tmp_path / experiment / "results.csv")
            assert {r["trials"] for r in rows} == {1 if experiment in ("solve", "calibrate") else 20}

    @pytest.mark.parametrize("seed, message", [("-1", "base_seed"), ("abc", "argument --seed")],
                             ids=["negative-seed", "malformed-seed"])
    def test_run_all_experiments_maps_failures_to_exit_codes(self, seed, message, tmp_path):
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"), "--quick", "--seed", seed,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: invalid configuration: {message}") and "Traceback" not in done.stderr
        assert not any(tmp_path.iterdir())

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only numeric dependency: with every scipy import made to
        # fail, a small average-rf run (a ridgeless ridge included) still succeeds.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_grid": [2.0, 4.0], "lambda_list": [0.0, 0.1], "trials": 3}))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from effridge.cli import main\n"
            f"sys.exit(main(['average-rf', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
        )
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "results.csv").exists()

    def test_readme_library_example_runs(self, tmp_path):
        # The README's library example runs verbatim, so the documented API cannot drift from the code.
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        (script,) = re.findall(r"^## Library example\n\n```python\n(.*?)^```$", text, re.M | re.S)
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_csv_round_trips_to_identical_values(self, tmp_path):
        _, artifacts = run_fast("solve", tmp_path)
        text = artifacts["results"].read_text()
        columns, rows = parse_results_csv(artifacts["results"])
        # every numeric cell parses back to the exact float that was written
        for line, row in zip(text.splitlines()[1:], rows):
            for c, cell in zip(columns, line.split(",")):
                if c != "experiment":
                    assert float(cell) == row[c]
                    assert float(format_number(row[c])) == float(cell)

    def test_config_echo_reproduces_results(self, tmp_path):
        cfg, artifacts = run_fast("average-rf", tmp_path)
        first = artifacts["results"].read_bytes()
        echo = json.loads(artifacts["config"].read_text())
        cfg2 = load_config(
            echo["experiment"],
            artifacts["config"],
            output_dir=str(tmp_path / "rerun"),
        )
        artifacts2 = cmd_run(cfg2)
        second = artifacts2["results"].read_bytes()
        assert first == second

    def test_svg_pure_function_of_csv(self, tmp_path):
        # cmd_run draws from the rows in memory; its plots must be those of the file it wrote.
        for experiment in EXPERIMENTS:
            _, artifacts = run_fast(experiment, tmp_path)
            _, rows = parse_results_csv(artifacts["results"])
            written = {name: path.read_text() for name, path in artifacts.items() if name.startswith("plot_")}
            assert written == render_plots(experiment, rows)

    def test_solve_rows_match_module(self, tmp_path):
        _, artifacts = run_fast("solve", tmp_path)
        _, rows = parse_results_csv(artifacts["results"])
        d = generate_spectrum("exponential", 20)
        for row in rows:
            eff = solve_effective_ridge(Spectrum(d), row["gamma"], row["lambda"])
            assert row["lambda_tilde"] == eff.lambda_tilde
            assert row["d_lambda_tilde"] == eff.d_lambda_tilde
            assert row["effective_dimension"] == eff.effective_dimension

    @pytest.mark.parametrize("experiment", ["average-rf", "double-descent"])
    def test_monte_carlo_columns_match_their_definitions(self, experiment, tmp_path):
        # Each Monte Carlo column, parsed back from results.csv, is its formula on the run_trials moments, bit for bit;
        # each theory column is its sum over the train Gram's eigenbasis, w = U^T y, bit for bit, and
        # variance_theory its definition through a direct solve with K.
        from effridge import (
            KernelSpec, apply_inverse, generate_sinusoid, gram_matrix, run_trials, spectral_decompose,
        )

        cfg, artifacts = run_fast(experiment, tmp_path, trials=20)
        _, rows = parse_results_csv(artifacts["results"])
        data, test_X = generate_sinusoid(4, 16, seed=cfg.base_seed)
        kernel = KernelSpec("rbf", 2.0)
        K, k_cross = gram_matrix(kernel, data.X), gram_matrix(kernel, test_X, data.X)
        spec = spectral_decompose(K)
        assert spec.rank == spec.n
        d, w = spec.eigenvalues, spec.eigenvectors.T @ data.y
        stats = run_trials(data, test_X, kernel, [2, 8], [0.1], 20, cfg.base_seed)
        assert [(r["P"], r["lambda"]) for r in rows] == [(2, 0.1), (8, 0.1)]
        for row in rows:
            (s,) = stats[int(row["P"])]
            mean_variance = float(np.mean(s.var_prediction))
            eff = solve_effective_ridge(spec, row["gamma"], 0.1)
            lambda_tilde = eff.lambda_tilde
            theta_norm = eff.d_lambda_tilde * float(np.sum(d * w * w / (lambda_tilde + d) ** 2))
            krr_pred = k_cross @ apply_inverse(spec, data.y, lambda_tilde)
            risk_of_mean = float(np.mean((s.mean_prediction - data.f_star) ** 2))
            assert row["mean_variance"] == mean_variance
            assert row["krr_risk"] == float(np.mean((krr_pred - data.f_star) ** 2))
            if experiment == "average-rf":
                gap = s.mean_prediction - krr_pred
                assert row["rf_mean_risk"] == risk_of_mean
                assert row["mean_rf_vs_krr_rmse"] == float(np.sqrt(np.mean(gap**2)))
                assert row["mean_rf_vs_krr_max_abs"] == float(np.max(np.abs(gap)))
                assert row["mc_band_rmse"] == 3.0 * float(np.sqrt(mean_variance / 20))
                q_norm_sq = float(np.sum(w * w / d))
                assert row["theta_norm_theory"] == theta_norm
                assert row["bound_scale_norm"] == np.sqrt(q_norm_sq) / row["P"]
                assert row["bound_scale_norm_sq"] == q_norm_sq / row["P"]
            else:
                assert row["risk_of_mean"] == risk_of_mean
                assert row["expected_risk"] == row["risk_of_mean"] + row["mean_variance"]
                posterior = 1.0 - np.sum(k_cross * np.linalg.solve(K, k_cross.T).T, axis=1)
                want = theta_norm / row["P"] * float(np.mean(np.maximum(posterior, 0.0)))
                assert row["variance_theory"] == pytest.approx(want, rel=1e-12, abs=0)

    def test_ridgeless_solve_on_a_singular_gram_counts_its_rank(self, tmp_path):
        # Only 17 of this Gram's 40 eigenvalues lie above the rank floor, so at lambda = 0 the
        # derivative is 1 / (1 - 17 / (40 gamma)), not gamma / (gamma - 1).
        _, artifacts = run_fast("solve", tmp_path, dataset={"type": "sinusoid", "n": 40},
                                kernel={"kind": "rbf", "lengthscale": 2.0}, gamma_grid=[2.0, 4.0], lambda_list=[0.0])
        _, rows = parse_results_csv(artifacts["results"])
        assert [(r["gamma"], r["effective_dimension"]) for r in rows] == [(2.0, 17.0), (4.0, 17.0)]
        assert [r["d_lambda_tilde"] for r in rows] == pytest.approx([80 / 63, 160 / 143], rel=1e-12)

    @pytest.mark.parametrize("p_grid", [[1, 10], [50, 60]],
                             ids=["fewer-features-than-points", "as-many-features-as-points"])
    def test_expected_a_at_a_tiny_ridge_stays_in_the_unit_interval(self, p_grid, tmp_path):
        # At P < N the N x N Gram G has rank P, so at a tiny ridge only the P x P Gram can be solved.
        # At P = N, G is full rank but so ill-conditioned that solving G + lam I against G overshoots 1,
        # where the resolvent form I - lam (G + lam I)^{-1} does not.
        _, artifacts = run_fast("expected-a", tmp_path, dataset={"type": "spectrum", "kind": "exponential", "n": 50},
                                p_grid=p_grid, lambda_list=[1e-20], trials=20)
        _, rows = parse_results_csv(artifacts["results"])
        assert {r["P"] for r in rows} == set(p_grid)
        assert all(-1e-12 <= r["d_tilde"] <= 1 + 1e-12 for r in rows)

    def test_stieltjes_residual_sees_an_effective_ridge_error(self, tmp_path, monkeypatch):
        # recip_identity_err is the residual of the m-form equation at m = 1 / lambda_tilde,
        # so a relative error of 1e-9 in lambda_tilde shows up far above rounding.
        _, artifacts = run_fast("stieltjes", tmp_path, lambda_list=[0.1, 1.0])
        _, rows = parse_results_csv(artifacts["results"])
        assert all(r["recip_identity_err"] <= 1e-12 for r in rows)
        solve = effridge.cli.solve_effective_ridge
        monkeypatch.setattr(effridge.cli, "solve_effective_ridge",
                            lambda *args: replace(solve(*args), lambda_tilde=solve(*args).lambda_tilde * (1 + 1e-9)))
        _, artifacts = run_fast("stieltjes", tmp_path, lambda_list=[0.1, 1.0], output_dir=str(tmp_path / "off"))
        _, rows = parse_results_csv(artifacts["results"])
        assert all(r["recip_identity_err"] > 1e-11 for r in rows)

    def test_double_descent_variance_peaks_at_threshold(self, tmp_path):
        cfg = load_config(
            "double-descent",
            None,
            dataset={"type": "sinusoid", "n": 4, "n_test": 50},
            gamma_grid=[0.25, 1.0, 4.0],
            lambda_list=[1e-4, 0.5],
            trials=600,
            output_dir=str(tmp_path / "dd"),
        )
        artifacts = cmd_run(cfg)
        _, rows = parse_results_csv(artifacts["results"])
        var = {(r["lambda"], r["gamma"]): r["mean_variance"] for r in rows}
        assert var[(1e-4, 1.0)] > var[(1e-4, 0.25)]
        assert var[(1e-4, 1.0)] > var[(1e-4, 4.0)]
        assert var[(0.5, 1.0)] < 2.0 * max(var[(0.5, 0.25)], var[(0.5, 4.0)])

    def test_csv_dataset_through_cli(self, tmp_path):
        rows = ["x_0,y"] + [f"{x},{np.sin(x)}" for x in np.linspace(0, 6, 24)]
        data_path = tmp_path / "data.csv"
        data_path.write_text("\n".join(rows) + "\n")
        cfg = load_config(
            "average-rf",
            None,
            dataset={"type": "csv", "path": str(data_path), "n_test": 8},
            gamma_grid=[1.0],
            lambda_list=[0.5],
            trials=5,
            output_dir=str(tmp_path / "csvrun"),
        )
        artifacts = cmd_run(cfg)
        _, out_rows = parse_results_csv(artifacts["results"])
        assert out_rows[0]["N"] == 16.0  # 24 rows minus 8 held out

    @pytest.mark.parametrize("experiment", ["average-rf", "predictor-fan"])
    def test_csv_without_held_out_rows_tests_on_the_training_rows(self, experiment, tmp_path, capsys):
        # The training rows are the test grid, and their labels its true values.
        config = sin_csv_config(tmp_path, rows=6)
        code = main([experiment, "--config", config, "--gamma", "2", "--lambda", "0.1", "--trials", "3",
                     "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        _, rows = parse_results_csv(tmp_path / "out" / "results.csv")
        if experiment == "predictor-fan":
            truths = {r["x"]: r["f_star"] for r in rows}
            assert len(rows) == 12 and all(t == np.sin(x) for x, t in truths.items())
        else:
            assert rows[0]["N"] == 6.0 and rows[0]["krr_risk"] >= 0.0

    @pytest.mark.parametrize("experiment, ridgeless_columns", [
        ("average-rf", "krr_risk, mean_rf_vs_krr_rmse, mean_rf_vs_krr_max_abs and theta_norm_theory"),
        ("double-descent", "krr_risk and the parameter norm in variance_theory"),
    ])
    def test_ridgeless_fit_on_a_singular_gram_runs_with_a_note(self, experiment, ridgeless_columns, tmp_path, capsys):
        # Beyond the threshold a ridgeless fit has effective ridge 0, and this train Gram has rank
        # 17 of 40: the kernel side takes the pseudoinverse on range(K).
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "sinusoid", "n": 40, "n_test": 20}}))
        code = main([experiment, "--config", str(path), "--gamma", "2,4", "--lambda", "0", "--trials", "4",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 0, err
        (note,) = err.splitlines()
        assert note.startswith("note: Gram matrix numerically singular; ")
        assert note.endswith("; at lambda_tilde = 0 the pseudoinverse also gives " + ridgeless_columns)
        columns, rows = parse_results_csv(tmp_path / "out" / "results.csv")
        assert len(rows) == 2 and all(np.isfinite(r[c]) for r in rows for c in columns[1:])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ridgeless_fit_on_a_singular_gram_agrees_with_theory(self, seed, tmp_path):
        # At lambda = 0 beyond the threshold the mean sampled fit is the minimum-norm interpolant
        # and the theory the pseudoinverse on range(K), so they agree only if both count the
        # same range.  Over base seeds 0-9 (the sinusoid data follow the base seed) the three
        # ratios read 0.03-0.49, 0.963-1.009 and 0.61-1.15.
        overrides = dict(dataset={"type": "sinusoid", "n": 40}, kernel={"kind": "rbf", "lengthscale": 2.0},
                         gamma_grid=[2.0, 4.0], lambda_list=[0.0], trials=200, base_seed=seed)
        rows = [parse_results_csv(run_fast(experiment, tmp_path, **overrides)[1]["results"])[1]
                for experiment in ("average-rf", "double-descent")]
        for average, descent in zip(*rows):
            assert average["mean_rf_vs_krr_rmse"] <= average["mc_band_rmse"]
            assert abs(average["theta_norm_theory"] / average["theta_norm_mean"] - 1) <= 0.1
            assert 0.5 <= descent["variance_theory"] / descent["mean_variance"] <= 2.0

    def test_singular_train_gram_runs_with_a_note(self, tmp_path, capsys):
        # 16 training points 0.26 apart at lengthscale 2 give a numerically singular Gram.
        config = sin_csv_config(tmp_path, n_test=8)
        for experiment, column in (("average-rf", "bound_scale"), ("double-descent", "variance_theory")):
            code = main([experiment, "--config", config, "--gamma", "0.5,2", "--lambda", "0.1",
                         "--trials", "3", "--out", str(tmp_path / experiment)])
            err = capsys.readouterr().err
            assert code == 0, err
            (note,) = err.splitlines()
            assert note.startswith("note: Gram matrix numerically singular; " + column)

    def test_svg_coordinates_stay_in_viewport(self, tmp_path):
        import re

        for experiment in ("solve", "double-descent", "predictor-fan"):
            _, artifacts = run_fast(experiment, tmp_path)
            for name, path in artifacts.items():
                if not name.endswith(".svg"):
                    continue
                svg = path.read_text()
                for points in re.findall(r'points="([^"]+)"', svg):
                    for pair in points.split():
                        x, y = map(float, pair.split(","))
                        assert -1 <= x <= 721 and -1 <= y <= 481

    @pytest.mark.parametrize("experiment, sizes", [
        ("solve", [20]), ("calibrate", [20]), ("stieltjes", [10]), ("expected-a", [10]),
        # The train Gram's spectrum, then the joint train-and-test Gram's in run_trials.
        ("average-rf", [4, 20]), ("double-descent", [4, 20]),
        ("predictor-fan", [20]),
    ])
    def test_spectrum_is_checked_once_per_experiment(self, experiment, sizes, tmp_path, spectrum_checks):
        # Each spectrum an experiment builds, a Gram's decomposition included, is checked once.
        run_fast(experiment, tmp_path)
        assert [spectrum.n for spectrum in spectrum_checks] == sizes

    def test_solve_grid_rows_equal_per_point_solves(self, tmp_path, spectrum_checks):
        _, artifacts = run_fast("solve", tmp_path, gamma_grid=[0.25, 0.5, 1.0, 2.0, 4.0],
                                lambda_list=[1e-3, 1e-2, 0.1, 1.0])
        assert len(spectrum_checks) == 1
        _, rows = parse_results_csv(artifacts["results"])
        assert len(rows) == 20
        fresh = Spectrum(generate_spectrum("exponential", 20))
        for row in rows:
            eff = solve_effective_ridge(fresh, row["gamma"], row["lambda"])
            assert (row["lambda_tilde"], row["d_lambda_tilde"], row["effective_dimension"], row["residual"]) == (
                eff.lambda_tilde, eff.d_lambda_tilde, eff.effective_dimension, abs(eff.residual))

    def test_calibrate_grid_rows_equal_per_point_calibrations(self, tmp_path, spectrum_checks):
        _, artifacts = run_fast("calibrate", tmp_path, gamma_grid=[0.25, 0.5, 1.0, 2.0, 4.0],
                                lambda_list=[0.05, 0.1, 0.5, 1.0, 2.0])
        assert len(spectrum_checks) == 1
        _, rows = parse_results_csv(artifacts["results"])
        fresh = Spectrum(generate_spectrum("exponential", 20))
        feasible = 0
        for lam_star in [0.05, 0.1, 0.5, 1.0, 2.0]:
            for gamma in [0.25, 0.5, 1.0, 2.0, 4.0]:
                try:
                    calibrate_ridge(fresh, gamma, lam_star)
                    feasible += 1
                except InfeasibleTargetError:
                    pass
        assert 0 < len(rows) == feasible < 25
        for row in rows:
            lam = calibrate_ridge(fresh, row["gamma"], row["lambda_star"])
            assert row["lambda"] == lam
            assert row["roundtrip_lambda_tilde"] == solve_effective_ridge(fresh, row["gamma"], lam).lambda_tilde

    def test_calibrate_skips_infeasible(self, tmp_path, capsys):
        cfg = load_config(
            "calibrate",
            None,
            gamma_grid=[0.2],
            lambda_list=[1e-6, 1.0],
            output_dir=str(tmp_path / "cal"),
        )
        artifacts = cmd_run(cfg)
        _, rows = parse_results_csv(artifacts["results"])
        # the tiny target is below the ridgeless effective ridge at gamma=0.2
        assert all(r["lambda_star"] == 1.0 for r in rows)


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(["solve", "--trials", "1", "--gamma", "0.5,2", "--lambda", "0.1",
                     "--out", str(tmp_path / "ok")])
        assert code == 0
        out = capsys.readouterr().out
        assert "results" in out

    def test_tiny_stieltjes_ridge_runs(self, tmp_path, capsys):
        # z = -1e-13 is off the closed nonnegative real axis, so it is a valid grid point.
        code = main(["stieltjes", "--p", "2", "--trials", "3", "--lambda", "1e-13", "--out", str(tmp_path / "out")])
        assert code == 0
        columns, rows = parse_results_csv(tmp_path / "out" / "results.csv")
        assert rows and all(np.isfinite(row[c]) for row in rows for c in columns if c != "experiment")

    def test_invalid_config_is_1(self, tmp_path, capsys):
        code = main(["solve", "--gamma", "-1", "--out", str(tmp_path / "bad")])
        assert code == 1

    def test_bad_flag_value_is_1(self, capsys):
        assert main(["solve", "--gamma", "zebra"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--trials", "abc"],
            ["solve", "--seed", "x"],
            ["no-such-experiment"],
            ["solve", "--no-such-flag"],
            ["solve", "--gamma", ""],
            ["solve", "--p", ""],
            ["solve", "--lambda", ""],
        ],
        ids=["trials-not-int", "seed-not-int", "unknown-experiment", "unknown-flag", "empty-gamma", "empty-p",
             "empty-lambda"],
    )
    def test_usage_error_is_1(self, argv, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    def test_empty_output_dir_is_1(self, flag, tmp_path, monkeypatch, capsys):
        # An empty path is the current directory, which must stay untouched.
        monkeypatch.chdir(tmp_path)
        if flag:
            argv = ["--out", ""]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"output_dir": ""}))
            argv = ["--config", "cfg.json"]
        code = main(["solve", "--trials", "1", "--gamma", "1", "--lambda", "0.1", *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration: output_dir")
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if flag else ["cfg.json"])

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: effridge")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dataset": {"type": "csv"}}, "dataset.path"),
            ([1, 2], "config must be a JSON object"),
            ("solve", "config must be a JSON object"),
        ],
        ids=["csv-without-path", "array", "string"],
    )
    def test_malformed_config_is_1(self, config, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["average-rf", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    def test_config_that_is_not_utf8_is_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: invalid configuration: config {path}: ")
        assert "Traceback" not in err

    def test_csv_that_is_not_utf8_is_1(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x_0,y\n0,1\n\xff,2\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "csv", "path": str(data)}}))
        code = main(["average-rf", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration: file is not valid UTF-8")
        assert "Traceback" not in err

    @pytest.mark.parametrize("dataset", [{"type": "clusters", "separation": 1e160}, {"type": "csv"}],
                             ids=["clusters-far-apart", "csv-huge-cell"])
    def test_coordinates_whose_distances_overflow_are_1(self, dataset, tmp_path, capsys):
        # Squared distances of finite rows overflow to inf (and inf - inf to nan) before any Gram is formed.
        if dataset["type"] == "csv":
            data = tmp_path / "data.csv"
            data.write_text("x_0,y\n1,2\n1e200,3\n0,1\n")
            dataset = {**dataset, "path": str(data)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": dataset}))
        code = main(["average-rf", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: invalid configuration: squared distances between input rows overflow\n"

    @pytest.mark.parametrize(
        "experiment, config, field",
        [
            ("average-rf", {"gamma_grid": ["a"]}, "gamma_grid"),
            ("average-rf", {"gamma_grid": [True]}, "gamma_grid"),
            ("average-rf", {"gamma_grid": [float("nan")]}, "gamma_grid"),
            ("average-rf", {"gamma_grid": 2.0}, "gamma_grid"),
            ("average-rf", {"lambda_list": [-0.1]}, "lambda_list"),
            ("average-rf", {"lambda_list": [0.1, float("inf")]}, "lambda_list"),
            ("average-rf", {"lambda_list": [None]}, "lambda_list"),
            ("stieltjes", {"p_grid": [50, 2.5]}, "p_grid"),
            ("stieltjes", {"p_grid": [False]}, "p_grid"),
            ("stieltjes", {"lambda_list": [1.0, 0]}, "lambda_list"),
            ("expected-a", {"lambda_list": [0.0]}, "lambda_list"),
            ("calibrate", {"lambda_list": [1.0, 0.0]}, "lambda_list"),
        ],
        ids=["gamma-string", "gamma-bool", "gamma-nan", "gamma-not-list", "negative-ridge",
             "infinite-ridge", "ridge-null", "p-fraction", "p-bool", "stieltjes-zero-ridge",
             "expected-a-zero-ridge", "calibrate-zero-target"],
    )
    def test_bad_grid_is_1(self, experiment, config, field, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main([experiment, "--config", str(path), "--trials", "5", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert field in err
        assert "trial 0" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, config, field",
        [
            ("average-rf", {"trials": "3"}, "trials"),
            ("average-rf", {"trials": 2.7}, "trials"),
            ("average-rf", {"base_seed": "x"}, "base_seed"),
            ("average-rf", {"base_seed": 1.5}, "base_seed"),
            ("average-rf", {"dataset": {"type": "sinusoid", "n": "4"}}, "dataset.n"),
            ("average-rf", {"dataset": {"type": "sinusoid", "n": 4.0}}, "dataset.n"),
            ("average-rf", {"dataset": {"type": "clusters", "dim": "5"}}, "dataset.dim"),
            ("average-rf", {"dataset": {"type": "clusters", "separation": "3"}}, "dataset.separation"),
            ("average-rf", {"kernel": {"kind": "rbf", "lengthscale": "2"}}, "kernel.lengthscale"),
            ("average-rf", {"dataset": {"type": "sinusoid", "n_test": 2.5}}, "dataset.n_test"),
            ("solve", {"dataset": {"type": "spectrum", "n": 20.5}}, "dataset.n"),
            ("average-rf", {"dataset": {"type": "sinusoid", "nn": 4}}, "'nn'"),
            ("average-rf", {"kernel": {"kind": "rbf", "lenghtscale": 2.0}}, "'lenghtscale'"),
            ("average-rf", {"dataset": {"type": "csv", "path": 5}}, "dataset.path"),
            ("stieltjes", {"p_grid": [1000000000000]}, "P = 1000000000000"),
            ("stieltjes", {"p_grid": [1e300]}, f"P = {int(1e300)}:"),
            ("average-rf", {"gamma_grid": [1e12]}, "P = 4000000000000"),
            ("average-rf", {"gamma_grid": [1e308]}, "gamma_grid"),
            ("solve", {"dataset": {"type": "spectrum", "n": 1000000000000000}}, "dataset.n"),
            ("average-rf", {"dataset": {"type": "sinusoid", "n_test": 10**5}}, "dataset.n_test"),
            ("double-descent", {"dataset": {"type": "clusters", "n": 10**5}}, "dataset.n"),
            ("average-rf", {"dataset": {"type": "clusters", "n": 1}}, "dataset.n must be an integer >= 2"),
            ("average-rf", {"dataset": {"type": "clusters", "n_test": 1}}, "dataset.n_test must be an integer >= 2"),
            ("solve", {"gamma_grid": [1.0, 1e308]}, "gamma_grid"),
            ("calibrate", {"gamma_grid": [1.0, 1e308]}, "gamma_grid"),
        ],
        ids=["trials-string", "trials-fraction", "seed-string", "seed-fraction", "n-string",
             "n-float", "dim-string", "separation-string", "lengthscale-string", "n_test-fraction",
             "spectrum-n-fraction", "dataset-typo", "kernel-typo", "csv-path-number",
             "p-huge", "p-1e300", "gamma-huge", "gamma-overflow", "spectrum-n-huge",
             "n_test-huge", "clusters-n-huge", "clusters-n-one", "clusters-n_test-one",
             "solve-gamma-overflow", "calibrate-gamma-overflow"],
    )
    def test_bad_field_is_1(self, experiment, config, field, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, config, field",
        [
            (["average-rf", "--p", "8"], {}, "p_grid"),
            (["stieltjes", "--gamma", "2"], {}, "gamma_grid"),
            (["expected-a", "--gamma", "2"], {}, "gamma_grid"),
            (["solve"], {"kernel": {"kind": "rbf", "lengthscale": 2.0}}, "kernel"),
            (["average-rf"], {"dataset": {"type": "spectrum"}}, "data-backed dataset"),
            (["double-descent"], {"dataset": {"type": "spectrum"}}, "data-backed dataset"),
            (["predictor-fan"], {"dataset": {"type": "spectrum"}}, "data-backed dataset"),
        ],
        ids=["average-rf-p", "stieltjes-gamma", "expected-a-gamma", "solve-kernel-on-spectrum",
             "average-rf-on-spectrum", "double-descent-on-spectrum", "predictor-fan-on-spectrum"],
    )
    def test_unread_input_is_1(self, argv, config, field, tmp_path, capsys, monkeypatch):
        # A field the experiment would not read is refused, not ignored and echoed as if it had been used.
        monkeypatch.setattr(effridge.cli, "run_trials", no_trials)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kernel",
        [None, {}, {"kind": "rbf"}, {"kind": "rbf", "lengthscale": -2.0}, {"kind": "laplace", "lengthscale": 2.0}],
        ids=["null", "empty", "no-lengthscale", "negative-lengthscale", "unknown-kind"],
    )
    @pytest.mark.parametrize("experiment", ["average-rf", "solve"])
    def test_bad_kernel_is_1_before_any_output(self, experiment, kernel, tmp_path, capsys):
        # A data-backed dataset needs a valid kernel; KernelSpec's checks run
        # with the other field checks, before the output directory is made.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "sinusoid", "n": 4}, "kernel": kernel}))
        code = main([experiment, "--config", str(path), "--trials", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration: ") and "kernel" in err
        assert not (tmp_path / "out").exists()

    def test_csv_above_the_size_limit_is_1(self, tmp_path, capsys, monkeypatch):
        # Checked once the file is read; without held-out rows the joint Gram
        # covers every row twice: (2 * 6)^2 = 144 elements.
        import effridge.features as features

        monkeypatch.setattr(features, "MAX_ELEMENTS", 143)
        data = tmp_path / "data.csv"
        data.write_text("x_0,y\n" + "".join(f"{i},{i % 2}\n" for i in range(6)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "csv", "path": str(data)}}))
        code = main(["average-rf", "--config", str(path), "--trials", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "dataset.path" in err and "144 elements" in err
        assert "Traceback" not in err

    def test_csv_above_the_size_limit_is_refused_before_its_tail_is_parsed(self, tmp_path, capsys, monkeypatch):
        # 5 rows fit (2 * 5)^2 = 100 <= 143; reading stops at the sixth, before the bad cell of the seventh.
        import effridge.features as features

        monkeypatch.setattr(features, "MAX_ELEMENTS", 143)
        data = tmp_path / "data.csv"
        data.write_text("x_0,y\n" + "".join(f"{i},{i % 2}\n" for i in range(6)) + "6,bad\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "csv", "path": str(data)}}))
        code = main(["average-rf", "--config", str(path), "--trials", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "dataset.path" in err and "144 elements" in err
        assert "non-numeric" not in err and "line 8" not in err
        assert "Traceback" not in err

    def test_csv_is_capped_before_its_duplicate_row_check(self, tmp_path, capsys, monkeypatch):
        # The Dataset's duplicate-row check forms an n x n distance matrix, so
        # a file too large for the joint Gram must be refused before it.
        import effridge.features as features
        import effridge.kernels as kernels

        distances = []
        pairwise = kernels._pairwise_sq_dists
        monkeypatch.setattr(kernels, "_pairwise_sq_dists", lambda *a: distances.append(a) or pairwise(*a))
        monkeypatch.setattr(features, "MAX_ELEMENTS", 35)
        data = tmp_path / "data.csv"
        data.write_text("x_0,y\n" + "".join(f"{i},{i % 2}\n" for i in range(6)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "csv", "path": str(data), "n_test": 2}}))
        code = main(["average-rf", "--config", str(path), "--trials", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "dataset.path" in err and "36 elements" in err
        assert "Traceback" not in err
        assert distances == []

    def test_one_limit_bounds_the_joint_gram_and_the_draws(self, tmp_path, capsys, monkeypatch):
        # One patch of the limit moves both refusals: a joint Gram of (4 + 10)^2 = 196 elements, and the
        # P = 16 draw of 16 x 12 = 192 normals, while the P = 8 draw of 96 and its fits of 2 x 64 still fit.
        import effridge.features as features

        monkeypatch.setattr(features, "MAX_ELEMENTS", 150)
        monkeypatch.setattr(effridge.montecarlo, "normal_chunks", no_draw)
        base = ["average-rf", "--trials", "2", "--lambda", "0.1", "--gamma", "1,2", "--out", str(tmp_path / "out")]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "sinusoid", "n": 4, "n_test": 10}}))
        assert main([*base, "--config", str(path)]) == 1
        assert "dataset.n + dataset.n_test: the joint Gram of 196 elements" in capsys.readouterr().err
        path.write_text(json.dumps({"dataset": {"type": "sinusoid", "n": 8, "n_test": 4}}))
        assert main([*base, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "P = 16: one draw of shape (16, 12) of 192 elements is above the limit of 150" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, config, limit, message",
        [
            ("average-rf", {"dataset": {"type": "clusters", "n": 10, "n_test": 10, "dim": 300},
                            "kernel": {"kind": "rbf", "lengthscale": 5.0}},
             5999, "dataset.dim: the 20 x 300 cluster data of 6000 elements"),
            ("expected-a", {"dataset": {"type": "spectrum", "n": 130}, "p_grid": [10],
                            "lambda_list": [0.1, 1.0]},
             33799, "lambda_list: the hat matrices at N = 130 of 2 ridge(s) of 33800 elements"),
            ("expected-a", {"dataset": {"type": "spectrum", "n": 10}, "p_grid": [5], "lambda_list": [0.1, 1.0],
                            "trials": 200},
             32599, "lambda_list: the hat matrices at N = 10 of 2 ridge(s) of 32600 elements"),
            ("stieltjes", {"dataset": {"type": "spectrum", "n": 10}, "p_grid": [5, 20], "trials": 21},
             200, "trials: the spectra of 21 draws at P = 20 of 210 elements"),
            ("average-rf", {"dataset": {"type": "sinusoid", "n": 4, "n_test": 4}, "gamma_grid": [1.0],
                            "lambda_list": [0.1, 1.0, 10.0]},
             95, "lambda_list: the fits at P = 4 of 3 ridge(s) of 96 elements"),
            ("average-rf", {"dataset": {"type": "clusters", "n": 130, "n_test": 2},
                            "kernel": {"kind": "rbf", "lengthscale": 5.0}, "gamma_grid": [1.0],
                            "lambda_list": [0.1, 1.0, 10.0]},
             50699, "lambda_list: the fits at P = 130 of 3 ridge(s) of 50700 elements"),
        ],
        ids=["clusters-data", "expected-a-sums", "expected-a-stacks", "stieltjes-spectra", "trial-engine-chunk",
             "trial-engine-ridge-stack"],
    )
    def test_array_above_the_limit_is_1_before_any_draw(
        self, experiment, config, limit, message, tmp_path, capsys, monkeypatch
    ):
        # Each array a config sizes is refused, naming its field, before it or any feature draw is allocated.
        import effridge.features as features

        monkeypatch.setattr(features, "MAX_ELEMENTS", limit)
        for module in (effridge.montecarlo, effridge.stieltjes):
            monkeypatch.setattr(module, "normal_chunks", no_draw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 2, **config}))
        code = main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration: ") and message in err
        assert "Traceback" not in err

    def test_gamma_that_rounds_to_no_feature_is_1(self, tmp_path, capsys, monkeypatch):
        # gamma * N = 0.04 rounds to P = 0, which is refused, not clamped to one feature.
        monkeypatch.setattr(effridge.cli, "run_trials", no_trials)
        code = main(["average-rf", "--gamma", "0.01,0.25", "--trials", "5", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid configuration: ")
        assert "gamma_grid value 0.01 times N = 4 rounds to P = 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lam", ["0", "1e-320"])
    @pytest.mark.parametrize("action", ["error", "always"])
    def test_ridgeless_root_below_the_float_range_is_3_without_a_warning(self, action, lam, tmp_path, capsys):
        # The gamma = 0.999 root sits near 1e-309, where 1 / (t + d) overflows, with no ridge or one as tiny:
        # with warnings as errors (pytest's setting, and python -W error) or shown, the run ends in the
        # numeric-failure exit only.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "spectrum", "kind": "exponential", "n": 1480},
                                    "gamma_grid": [0.999]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main(["solve", "--config", str(path), "--lambda", lam, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: numeric failure: effective ridge is below the float range: ")
        assert f"[at gamma=0.999, ridge={float(lam)}]" in err
        assert caught == []

    @pytest.mark.parametrize("experiment, column", [("average-rf", "theta_norm_theory"),
                                                    ("double-descent", "variance_theory")])
    def test_parameter_norm_at_a_ridge_whose_square_overflows_is_0_without_a_warning(
        self, experiment, column, tmp_path
    ):
        # (lambda_tilde + d)^2 leaves the float range near lambda_tilde = 1.3e154, so the predicted norm
        # d(lt)/d(l) sum_i d_i w_i^2 / (lambda_tilde + d_i)^2 underflows to 0, under warnings as errors too.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, "--lambda", "1e160", "--gamma", "4", "--trials", "2",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        _, (row,) = parse_results_csv(tmp_path / "out" / "results.csv")
        assert row[column] == 0.0

    @pytest.mark.parametrize("experiment, args", [("solve", ["--lambda", "1.5e308", "--gamma", "10"]),
                                                  ("calibrate", ["--lambda", "1e308"])])
    def test_values_near_the_float_maximum_are_plotted(self, experiment, args, tmp_path):
        # A single value near the float maximum widens to the float maximum, not to inf, and its
        # log axis gets decade ticks up to 1e308.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([experiment, *args, "--out", str(tmp_path / "out")])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out").glob("*.svg")) == sorted(effridge.cli._PLOTS[experiment])

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_stieltjes_transform_past_the_float_range_is_3_and_named_without_a_warning(
        self, action, tmp_path, capsys
    ):
        # At z = -1e-310 the zero eigenvalues' term (P - r) / (-z) of m_P(z) overflows.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main(["stieltjes", "--lambda", "1e-310", "--p", "100", "--trials", "2",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: numeric failure: m_P(z) leaves the float range")
        assert "[at P=100, ridge=1e-310]" in err
        assert caught == []

    def test_overflowing_t_over_gamma_is_3_and_named(self, tmp_path, capsys):
        # The root, about 1.3e159, is a float, but t / gamma at the Newton start is not.
        code = main(["solve", "--gamma", "1e-160", "--lambda", "0.1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: numeric failure: the t/gamma term of the effective-ridge equation "
                              "overflows at gamma 1e-160 [at gamma=1e-160, ridge=0.1]")

    def test_input_error_at_a_grid_point_names_it(self, tmp_path, capsys):
        code = main(["double-descent", "--lambda", "0", "--gamma", "1", "--trials", "3",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "degenerate at gamma = 1 [at gamma=1.0, ridge=0.0, P=4]" in err
        assert "Traceback" not in err

    def test_grid_point_that_theory_rejects_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # Ridgeless at gamma = 1 has no effective ridge; that is known before the gamma = 0.5 point is sampled.
        monkeypatch.setattr(effridge.cli, "run_trials", no_trials)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": {"type": "clusters", "n": 100, "n_test": 100},
                                    "kernel": {"kind": "rbf", "lengthscale": 5.0}}))
        code = main(["double-descent", "--config", str(path), "--gamma", "0.5,1,2,4", "--lambda", "0",
                     "--trials", "200", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "ridgeless effective ridge is degenerate at gamma = 1 [at gamma=1.0, ridge=0.0, P=100]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, grid, P",
        [
            ("average-rf", ["--gamma", "1,200000"], 800000),
            ("double-descent", ["--gamma", "1,200000"], 800000),
            ("predictor-fan", ["--gamma", "1,200000"], 800000),
            ("stieltjes", ["--p", "10,2000000"], 2000000),
            ("expected-a", ["--p", "10,7000000"], 7000000),
        ],
    )
    def test_oversized_draw_later_in_the_grid_is_refused_before_any_draw(
        self, experiment, grid, P, tmp_path, capsys, monkeypatch
    ):
        # Every feature draw comes from normal_chunks, so it may not be called.  The dataset's own
        # StreamSampler derives its key through the same _stream_keys, so that helper cannot tell them apart.
        def no_draw(policy, trials, shape):
            raise AssertionError("a feature draw was sampled")

        for module in (effridge.montecarlo, effridge.stieltjes):
            monkeypatch.setattr(module, "normal_chunks", no_draw)
        code = main([experiment, *grid, "--trials", "3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"P = {P}: one draw of shape ({P}," in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "exc, code, kind",
        [
            (InvalidInputError("bad"), 1, "invalid configuration"),
            (CsvParseError("bad", line=3), 1, "invalid configuration"),
            (FileNotFoundError("gone"), 2, "I/O failure"),
            (NumericError("stuck"), 3, "numeric failure"),
            (EffridgeError("flat"), 3, "numeric failure"),
        ],
    )
    def test_report_failure_maps_each_error_to_its_exit_code(self, exc, code, kind, capsys):
        # The one mapping that both main and scripts/run_all_experiments.py use.
        assert report_failure(exc) == code
        assert capsys.readouterr().err == f"error: {kind}: {exc}\n"

    def test_io_error_is_2(self, tmp_path, capsys):
        # A path beneath a regular file cannot be created, whatever the privileges.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["solve", "--trials", "1", "--out", str(blocker / "sub")])
        assert code == 2

    def test_numeric_failure_is_3(self, tmp_path, capsys, monkeypatch):
        import effridge.cli as cli
        from effridge.errors import NumericError

        def boom(cfg):
            raise NumericError("synthetic solver failure [at gamma=1, ridge=0]")

        monkeypatch.setitem(cli._RUNNERS, "solve", boom)
        code = main(["solve", "--trials", "1", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


# Values of the wrong type or out of range for any config field.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(),
    st.integers(-3, 3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def _or_junk(valid):
    """Mostly a valid value, so that many configs pass validation and run; one time in five junk."""
    return st.tuples(valid, JUNK, st.integers(0, 4)).map(lambda t: t[1] if t[2] == 4 else t[0])


def _with_typo(descriptors):
    """Mostly the descriptors themselves; one time in five with an unknown key added."""
    return st.tuples(descriptors, JUNK, st.integers(0, 4)).map(
        lambda t: {**t[0], "bogus": t[1]} if t[2] == 4 else t[0]
    )


def _descriptor(required, optional):
    """A descriptor with small valid values, junk values and now and then an unknown key."""
    return _with_typo(st.fixed_dictionaries(
        {k: _or_junk(v) for k, v in required.items()},
        optional={k: _or_junk(v) for k, v in optional.items()},
    ))


DATASETS = _or_junk(st.one_of(
    _descriptor({"type": st.just("sinusoid")}, {"n": st.integers(1, 5), "n_test": st.integers(1, 8)}),
    _descriptor(
        {"type": st.just("clusters")},
        {"n": st.integers(2, 6), "n_test": st.integers(2, 6), "dim": st.integers(1, 3),
         "separation": st.floats(0.0, 5.0)},
    ),
    _descriptor({"type": st.just("spectrum")},
                {"kind": st.sampled_from(["exponential", "polynomial"]), "n": st.integers(1, 12)}),
    _descriptor({"type": st.just("csv")}, {"path": st.just("missing.csv"), "n_test": st.integers(0, 2)}),
))
KERNELS = _or_junk(_descriptor({}, {"kind": st.just("rbf"), "lengthscale": st.floats(0.5, 5.0)}))
GRIDS = {
    "gamma_grid": _or_junk(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), max_size=3)),
    "p_grid": _or_junk(st.lists(st.integers(1, 20), max_size=3)),
}
FIELDS = st.fixed_dictionaries(
    # trials is always present: the defaults run hundreds of trials.  Every experiment accepts
    # two or three; one, which the sampling experiments refuse, comes as junk.
    {"trials": _or_junk(st.integers(2, 3))},
    optional={
        "dataset": DATASETS,
        "lambda_list": _or_junk(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0]), max_size=2)),
        "base_seed": _or_junk(st.integers(0, 5)),
        "output_dir": JUNK,
    },
)


@st.composite
def experiment_configs(draw):
    """An experiment and a config that sets only fields it reads; one time in five a stray field it does not read.

    The grid drawn is the one the experiment reads, and a kernel is drawn
    only with a dataset that is not a spectrum, so that many configs get past
    validation and run.
    """
    experiment = draw(st.sampled_from(EXPERIMENTS))
    config = draw(FIELDS)
    defaults = default_config(experiment)
    grid, unread = ("p_grid", "gamma_grid") if defaults.p_grid is not None else ("gamma_grid", "p_grid")
    dataset = config.get("dataset", defaults.dataset)
    on_spectrum = isinstance(dataset, dict) and dataset.get("type") == "spectrum"
    read = {grid: GRIDS[grid]} if on_spectrum else {grid: GRIDS[grid], "kernel": KERNELS}
    config.update(draw(st.fixed_dictionaries({}, optional=read)))
    if draw(st.integers(0, 4)) == 4:
        stray = [unread, "kernel"] if on_spectrum else [unread]
        config[draw(st.sampled_from(stray))] = draw(JUNK)
    return experiment, draw(_with_typo(st.just(config)))


class TestMainFuzz:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=experiment_configs())
    def test_any_config_ends_in_an_exit_code(self, drawn):
        experiment, config = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([experiment, "--config", str(path), "--out", str(Path(tmp) / "out")])
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
