import json
import math
import time

import pytest

from lobq import cli
from lobq.model import QueueDist


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def f_csv(tmp_path):
    p = tmp_path / "f.csv"
    QueueDist([(1, 2, 0.5), (2, 1, 0.5)]).to_csv(str(p))
    return str(p)


@pytest.fixture
def point_f_csv(tmp_path):
    p = tmp_path / "f11.csv"
    QueueDist.point_mass(1, 1).to_csv(str(p))
    return str(p)


class TestDuration:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run_cli(
            "duration", "--lambda", "12", "--mu-theta", "13",
            "--a", "4", "--b", "5", "--t-grid", "0:1:0.5",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        cfg = json.loads(lines[0].split("# config: ")[1])
        assert cfg["lam"] == 12.0 and cfg["tail_exponent"] == 3
        assert lines[1] == "t,survival,tail_asymptote"
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-8)
        # asymptote column uses prefactor t^-3 e^{-rate t}
        last = [float(x) for x in lines[-1].split(",")]
        expected = cfg["tail_prefactor"] * last[0] ** -3 * math.exp(-cfg["tail_rate"] * last[0])
        assert last[2] == pytest.approx(expected, rel=1e-12)
        assert len(lines) == 2 + 3  # t = 0, 0.5, 1.0

    def test_balanced_tail_dispatch(self, tmp_path, capsys):
        code = run_cli(
            "duration", "--lambda", "10", "--mu-theta", "10",
            "--a", "2", "--b", "2", "--t-grid", "1:2:1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["tail_exponent"] == 1
        # asymptote column uses prefactor / t
        pref = payload["config"]["tail_prefactor"]
        assert payload["tail_asymptote"][0] == pytest.approx(pref / 1.0)

    def test_bad_grid_usage_error(self, capsys):
        code = run_cli(
            "duration", "--lambda", "1", "--mu-theta", "2",
            "--a", "1", "--b", "1", "--t-grid", "oops",
        )
        assert code == cli.EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"

    def test_missing_args_exit_2(self):
        assert run_cli("duration", "--lambda", "1") == cli.EXIT_USAGE


class TestProbUp:
    def test_diagonal_and_complement(self, capsys):
        code = run_cli("prob-up", "--n-max", "3", "--p-max", "3")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = {}
        for line in lines[2:]:
            n, p, phi = line.split(",")
            vals[(int(n), int(p))] = float(phi)
        for n in (1, 2, 3):
            assert vals[(n, n)] == pytest.approx(0.5, abs=1e-8)
        assert vals[(2, 1)] + vals[(1, 2)] == pytest.approx(1.0, abs=1e-8)

    def test_full_grid_under_five_seconds(self, tmp_path):
        out = tmp_path / "grid.csv"
        t0 = time.perf_counter()
        code = run_cli("prob-up", "--n-max", "20", "--p-max", "20", "--output", str(out))
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 5.0
        assert len(out.read_text().strip().splitlines()) == 2 + 400


class TestPriceStats:
    def test_symmetric_f_balanced(self, f_csv, capsys):
        code = run_cli(
            "price-stats", "--lambda", "2", "--mu-theta", "2", "--f", f_csv,
            "--k-max", "3", "--bid", "1", "--ask", "2",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_cont"] == pytest.approx(0.5, abs=1e-8)
        assert payload["autocov"][0] == {"k": 1, "cov": 1.0}
        assert abs(payload["autocov"][1]["cov"]) < 1e-8
        assert payload["p_n"][0]["p"] == pytest.approx(0.30234727368645004, abs=1e-8)

    def test_supercritical_runtime_error(self, f_csv, capsys):
        # lam > mu+theta: the price may never move, so p_cont is undefined
        code = run_cli("price-stats", "--lambda", "1.3", "--mu-theta", "1", "--f", f_csv)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"


class TestVol:
    def test_unit_sigma_case(self, point_f_csv, capsys):
        lam = repr(1.0 / math.pi)
        code = run_cli("vol", "--lambda", lam, "--mu-theta", lam, "--tick", "1.0",
                       "--f", point_f_csv)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == pytest.approx(1.0, rel=1e-12)
        assert payload["regime"] == "balanced"

    def test_unbalanced_regime_dispatch(self, f_csv, capsys):
        code = run_cli("vol", "--lambda", "1", "--mu-theta", "1.3", "--f", f_csv)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "unbalanced"
        assert payload["sigma"] == pytest.approx(
            1.0 / math.sqrt(payload["mean_duration_f"]), rel=1e-12
        )


class TestSimulateEstimate:
    def test_round_trip_recovers_rates(self, tmp_path, f_csv):
        log = tmp_path / "events.csv"
        out = tmp_path / "path.csv"
        est = tmp_path / "est.json"
        lam, mu, theta, horizon = 300.0, 200.0, 120.0, 20.0
        code = run_cli(
            "simulate", "--lambda", str(lam), "--mu", str(mu), "--theta", str(theta),
            "--f", f_csv, "--seed", "5", "--horizon-time", str(horizon),
            "--out", str(out), "--event-log", str(log),
        )
        assert code == 0
        code = run_cli("estimate", "--log", str(log), "--output", str(est),
                       "--f-out", str(tmp_path / "fhat.csv"))
        assert code == 0
        payload = json.loads(est.read_text())
        se_lam = math.sqrt(2 * lam * horizon) / (2 * horizon)
        se_mt = math.sqrt(2 * (mu + theta) * horizon) / (2 * horizon)
        assert abs(payload["lambda_hat"] - lam) <= 3 * se_lam
        assert abs(payload["mu_theta_hat"] - (mu + theta)) <= 3 * se_mt
        f_hat = QueueDist.from_csv(str(tmp_path / "fhat.csv"))
        assert sum(p for _, _, p in f_hat.items()) == pytest.approx(1.0, abs=1e-9)

    def test_price_path_csv_has_config(self, tmp_path, f_csv):
        out = tmp_path / "path.csv"
        code = run_cli(
            "simulate", "--lambda", "5", "--mu-theta", "6", "--f", f_csv,
            "--seed", "1", "--horizon-events", "500", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "time,cumulative_price"

    def test_price_path_json_round_trips(self, tmp_path, f_csv):
        from lobq.model import PricePath

        out = tmp_path / "path.json"
        code = run_cli(
            "simulate", "--lambda", "5", "--mu-theta", "6", "--f", f_csv,
            "--seed", "1", "--horizon-events", "500", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        path = PricePath.from_json(json.dumps(payload["path"]))
        assert payload["config"]["seed"] == 1
        assert len(path) >= 0 and path.tick == 1.0

    def test_identical_seeds_identical_files(self, tmp_path, f_csv):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(
                "simulate", "--lambda", "5", "--mu-theta", "6", "--f", f_csv,
                "--seed", "9", "--horizon-events", "2000", "--out", str(out),
            )
            outs.append(out.read_bytes())
        # the config echo contains the differing file name; compare data rows
        a = outs[0].split(b"\n", 1)[1]
        b = outs[1].split(b"\n", 1)[1]
        assert a == b

    def test_missing_log_runtime_error(self, tmp_path, capsys):
        code = run_cli("estimate", "--log", str(tmp_path / "nope.csv"))
        assert code == cli.EXIT_RUNTIME
        err = json.loads(capsys.readouterr().err)
        assert "message" in err


class TestXvalCommand:
    def test_single_criterion_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("xval", "--criteria", "1", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["criteria"][0]["number"] == 1
        assert "criterion 1: PASS" in capsys.readouterr().out

    def test_byte_identical_reports(self, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("xval", "--criteria", "1", "--seed", "4321", "--out", str(out))
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_criterion_usage_error(self):
        assert run_cli("xval", "--criteria", "42") == cli.EXIT_USAGE
