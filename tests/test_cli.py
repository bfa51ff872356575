"""End-to-end tests of the command line front end.

Everything goes through cli.main(argv) in process, so exit codes and
output files are checked without subprocess overhead.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybridtherm import cli, evolve
from hybridtherm.models import TlsScenario, build_tls
from hybridtherm.state import HybridState, save_state

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def tls_scenario(**overrides):
    data = {
        "type": "tls",
        "beta": 1.0,
        "tls": {
            "omega_a": 1.0,
            "omega_b": 1.3,
            "mechanisms": ["a", "b"],
            "rates": {"a": 2.0, "b": 1.5},
        },
        "integrator": {"t_max": 120.0, "sample_dt": 0.5},
        "initial_state": {"kind": "coherent"},
    }
    data.update(overrides)
    return data


def fp_scenario(**overrides):
    data = {
        "type": "fokker_planck",
        "beta": 1.0,
        "fokker_planck": {
            "omega_0": 0.0,
            "delta_omega": 0.2,
            "delta_e": 0.01,
            "delta_x": 1.0,
            "gamma": 1.0,
            "x_max": 15.0,
            "points": 121,
        },
        "integrator": {
            "t_max": 5.0,
            "sample_dt": 1.0,
            "rel_tol": 1e-8,
            "abs_tol": 1e-10,
        },
        "initial_state": {"kind": "thermal"},
    }
    data.update(overrides)
    return data


def custom_scenario():
    sz = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    return {
        "type": "custom",
        "beta": 0.8,
        "custom": {
            "energies": [0.0, 1.5],
            "h_system": [[[0.2, 0.0], [0.1, 0.0]], [[0.1, 0.0], [-0.2, 0.0]]],
            "coupling": 0.6,
            "h_bar": [sz, [[[0.5, 0.0], [0.2, 0.0]], [[0.2, 0.0], [-0.5, 0.0]]]],
            "transitions": [
                {"label_a": 0, "index_a": 0, "label_b": 0, "index_b": 1, "rate": 1.0},
                {"label_a": 0, "index_a": 1, "label_b": 1, "index_b": 0, "rate": 0.8},
                {"label_a": 1, "index_a": 0, "label_b": 1, "index_b": 1, "rate": 1.0},
            ],
        },
    }


class TestScenarioValidation:
    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(
            ["thermal", "--scenario", str(tmp_path / "none.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code = cli.main(["thermal", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        data = tls_scenario()
        data["extra_knob"] = 1
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "scenario invalid" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        data = tls_scenario()
        data["tls"]["omega_c"] = 2.0
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_wrong_value_type(self, tmp_path):
        data = tls_scenario(beta="hot")
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_negative_beta(self, tmp_path):
        data = tls_scenario(beta=-1.0)
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_lattice_type_without_block(self, tmp_path, capsys):
        data = {"type": "lattice", "beta": 1.0}
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "needs a 'lattice' block" in capsys.readouterr().err

    def test_bad_initial_state_kind(self, tmp_path):
        data = tls_scenario(initial_state={"kind": "sideways"})
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_file_kind_without_path(self, tmp_path, capsys):
        data = tls_scenario(initial_state={"kind": "file"})
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "needs a path" in capsys.readouterr().err

    def test_file_state_with_negative_eigenvalue(self, tmp_path, capsys):
        # trace 1, but block 0 has eigenvalues 5 and -4
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[0] = np.array([[0.5, 4.5], [4.5, 0.5]])
        state_path = tmp_path / "start.json"
        save_state(HybridState(blocks), str(state_path))
        data = tls_scenario(initial_state={"kind": "file", "path": str(state_path)})
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "eigenvalue" in err
        assert len(err.strip().splitlines()) == 1

    def test_fokker_planck_grid_coarser_than_delta_x(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "fokker_planck.json").read_text())
        data["fokker_planck"]["points"] = 3
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "exceeds delta_x" in err
        assert len(err.strip().splitlines()) == 1

    def test_drift_scheme_is_refused(self, tmp_path, capsys):
        # one fitted stencil is left; a scenario naming a scheme is stale
        data = json.loads((SCENARIOS / "fokker_planck.json").read_text())
        data["fokker_planck"]["drift_scheme"] = "central"
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "drift_scheme" in err
        assert len(err.strip().splitlines()) == 1

    def test_evolve_without_integrator_block(self, tmp_path, capsys):
        data = tls_scenario()
        del data["integrator"]
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "integrator" in capsys.readouterr().err

    def test_ragged_custom_matrix(self, tmp_path):
        data = custom_scenario()
        data["custom"]["h_system"] = [
            [[0.0, 0.0], [0.1, 0.0]],
            [[0.1, 0.0], [0.0, 0.0], [1.0, 0.0]],
        ]
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_rectangular_custom_matrix(self, tmp_path, capsys):
        data = custom_scenario()
        data["custom"]["h_system"] = [
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.0]],
            [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ]
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "square" in capsys.readouterr().err

    def test_non_hermitian_custom_matrix(self, tmp_path):
        data = custom_scenario()
        data["custom"]["h_system"][0][1] = [0.1, 0.5]
        code = cli.main(
            ["thermal", "--scenario", write_scenario(tmp_path, data), "--out", str(tmp_path)]
        )
        assert code == 2


class TestThermal:
    def test_writes_decomposition(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "thermal",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "thermal.json").read_text())
        assert payload["beta"] == 1.0
        weights = payload["weights"]
        assert len(weights) == 2
        assert abs(sum(weights) - 1.0) < 1e-12
        assert payload["z"] > 0 and payload["z_th"] > 0
        lines = (out / "conditionals.csv").read_text().strip().splitlines()
        assert lines[0] == "label,i,j,re,im"
        assert len(lines) == 1 + 2 * 4

    def test_custom_scenario(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "thermal",
                "--scenario",
                write_scenario(tmp_path, custom_scenario()),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "thermal.json").read_text())
        assert abs(sum(payload["weights"]) - 1.0) < 1e-12

    def test_rejects_fokker_planck(self, tmp_path, capsys):
        code = cli.main(
            [
                "thermal",
                "--scenario",
                write_scenario(tmp_path, fp_scenario()),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "discrete" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path, tls_scenario())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["thermal", "--scenario", scenario, "--out", str(out_a)]) == 0
        assert cli.main(["thermal", "--scenario", scenario, "--out", str(out_b)]) == 0
        for name in ("thermal.json", "conditionals.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestEvolve:
    def test_tls_run(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "evolve",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,total_trace,entropy,dist_to_thermal")
        final = json.loads((out / "final_state.json").read_text())
        assert final["converged"] is True
        assert final["converged_time"] is not None
        assert final["dim_s"] == 2
        assert final["labels"] == [0, 1]
        assert len(final["conditionals"]) == 2

    def test_rk45_method_runs_the_oracle_and_agrees(self, tmp_path, monkeypatch):
        segments = []
        rk45 = evolve._rk45_segment

        def counted(*args):
            segments.append(args[2])
            return rk45(*args)

        monkeypatch.setattr(evolve, "_rk45_segment", counted)
        rows = {}
        for method in ("exact", "rk45"):
            data = tls_scenario()
            data["integrator"]["method"] = method
            out = tmp_path / method
            argv = ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]
            assert cli.main(argv) == 0
            assert bool(segments) == (method == "rk45")
            lines = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
            rows[method] = np.array([[float(v) for v in line.split(",")] for line in lines])
        n = min(len(rows["exact"]), len(rows["rk45"]))
        assert n > 20
        assert np.max(np.abs(rows["exact"][:n] - rows["rk45"][:n])) <= 1e-9

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        data = tls_scenario(integrator={"t_max": 2.0, "sample_dt": 0.25})
        out = tmp_path / "out"
        code = cli.main(
            [
                "evolve",
                "--scenario",
                write_scenario(tmp_path, data),
                "--out",
                str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "not converged" in err
        assert "distance to thermal" in err
        # outputs are still written so the partial run can be inspected
        assert (out / "trajectory.csv").exists()
        final = json.loads((out / "final_state.json").read_text())
        assert final["converged"] is False

    def test_initial_state_from_file(self, tmp_path):
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[0] = np.diag([0.7, 0.2])
        blocks[1] = np.diag([0.05, 0.05])
        state_path = tmp_path / "start.json"
        save_state(HybridState(blocks), str(state_path))
        data = tls_scenario(initial_state={"kind": "file", "path": str(state_path)})
        out = tmp_path / "out"
        code = cli.main(
            ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]
        )
        assert code == 0
        final = json.loads((out / "final_state.json").read_text())
        assert final["converged"] is True

    def test_fokker_planck_short_run_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            [
                "evolve",
                "--scenario",
                write_scenario(tmp_path, fp_scenario(initial_state={"kind": "polarized"})),
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "not converged" in capsys.readouterr().err
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,total_mass,min_conditional_eig"
        final = json.loads((out / "final.json").read_text())
        assert set(final) == {
            "converged",
            "total_mass",
            "min_conditional_eig",
            "last_population_change",
        }
        assert final["converged"] is False
        assert abs(final["total_mass"] - 1.0) < 1e-8
        rows = (out / "final_fields.csv").read_text().strip().splitlines()
        assert rows[0] == "x,p_plus,p_minus,c_plus_re,c_plus_im,c_minus_re,c_minus_im"
        assert len(rows) == 1 + 121

    def test_fokker_planck_converged_run(self, tmp_path):
        # single well with strong confinement settles well before t_max
        data = fp_scenario(
            integrator={"t_max": 250.0, "sample_dt": 2.0},
            initial_state={"kind": "polarized"},
        )
        data["fokker_planck"]["delta_omega"] = 0.0
        data["fokker_planck"]["delta_e"] = 0.1
        out = tmp_path / "out"
        code = cli.main(
            [
                "evolve",
                "--scenario",
                write_scenario(tmp_path, data),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        final = json.loads((out / "final.json").read_text())
        assert final["converged"] is True
        assert final["last_population_change"] < 1e-9
        assert abs(final["total_mass"] - 1.0) < 1e-8

    def test_fokker_planck_rejects_random_start(self, tmp_path, capsys):
        data = fp_scenario(initial_state={"kind": "random"})
        code = cli.main(
            [
                "evolve",
                "--scenario",
                write_scenario(tmp_path, data),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "initial states" in capsys.readouterr().err


class TestVerify:
    def test_invariants_hold(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            [
                "verify",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(out),
                "--states",
                "5",
            ]
        )
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["all_passed"] is True
        assert any(c["name"] == "detailed_balance" for c in report["checks"])
        captured = capsys.readouterr().out
        assert "all invariants hold" in captured

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken_report(gen, rng, num_states=20):
            return {
                "all_passed": False,
                "checks": [
                    {
                        "name": "detailed_balance",
                        "passed": False,
                        "skipped": False,
                        "residual": 1.0,
                        "tolerance": 1e-15,
                        "detail": "",
                    }
                ],
            }

        monkeypatch.setattr(cli, "verification_report", broken_report)
        code = cli.main(
            [
                "verify",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nan_generator_writes_strict_json(self, tmp_path, capsys, monkeypatch):
        h, gen = build_tls(TlsScenario(beta=1.0, omega_a=1.0, omega_b=1.3))
        gen._multiplier[0, 0, 0] = np.nan
        monkeypatch.setattr(cli, "build_discrete", lambda scenario: (h, gen))
        out = tmp_path / "out"
        code = cli.main(
            [
                "verify",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(out),
                "--states",
                "2",
            ]
        )
        assert code == 1

        def refuse(token):
            raise AssertionError(f"non-strict JSON token {token}")

        report = json.loads((out / "verify.json").read_text(), parse_constant=refuse)
        failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
        assert failed["stationary_matches_thermal"]["residual"] is None
        assert "FAIL stationary_matches_thermal" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["tls", "lattice"])
    @pytest.mark.parametrize("states", ["0", "-3"])
    def test_non_positive_states_exit_2(self, tmp_path, capsys, name, states):
        out = tmp_path / "out"
        code = cli.main(
            [
                "verify",
                "--scenario",
                str(SCENARIOS / f"{name}.json"),
                "--out",
                str(out),
                "--states",
                states,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            f"error: --states must be positive, got {states}"
        ]
        assert captured.out == ""
        assert not (out / "verify.json").exists()

    def test_rejects_fokker_planck(self, tmp_path):
        code = cli.main(
            [
                "verify",
                "--scenario",
                write_scenario(tmp_path, fp_scenario()),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2


class TestFig2:
    def test_profiles_and_summary(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "fig2",
                "--out",
                str(out),
                "--ratios",
                "20,40",
                "--points",
                "801",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["beta_delta_e"] == 0.01
        profiles = summary["profiles"]
        assert [p["ratio"] for p in profiles] == [20.0, 40.0]
        assert profiles[0]["modality"] == "unimodal"
        assert profiles[1]["modality"] == "bimodal"
        offset = profiles[1]["expected_peak_offset"]
        assert offset == pytest.approx(10.0)
        peaks = profiles[1]["peaks"]
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(-offset, rel=0.05)
        assert peaks[1] == pytest.approx(offset, rel=0.05)
        lines = (out / "profile_01.csv").read_text().strip().splitlines()
        assert lines[0] == "x,weight,gaussian"
        assert len(lines) == 1 + 801

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        argv = ["fig2", "--ratios", "0.5,40", "--points", "401"]
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        for name in ("summary.json", "profile_00.csv", "profile_01.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_ratio(self, tmp_path, capsys):
        code = cli.main(["fig2", "--out", str(tmp_path), "--ratios", "abc"])
        assert code == 2
        assert "bad ratio" in capsys.readouterr().err

    def test_empty_ratios(self, tmp_path):
        code = cli.main(["fig2", "--out", str(tmp_path), "--ratios", ","])
        assert code == 2


class TestSweep:
    def test_sweep_rates(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "sweep",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(out),
                "--param",
                "tls.rates.a",
                "--values",
                "1.0,2.0",
                "--threads",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["param"] == "tls.rates.a"
        assert [p["value"] for p in payload["points"]] == [1.0, 2.0]
        assert all(p["ok"] for p in payload["points"])
        for i in range(2):
            assert (out / f"point_{i:02d}" / "trajectory.csv").exists()
            assert (out / f"point_{i:02d}" / "final_state.json").exists()

    def test_bad_intermediate_path(self, tmp_path, capsys):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(tmp_path / "out"),
                "--param",
                "nope.some.key",
                "--values",
                "1.0",
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_typo_leaf_key(self, tmp_path):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(tmp_path / "out"),
                "--param",
                "tls.ratez",
                "--values",
                "1.0",
            ]
        )
        assert code == 2

    def test_bad_values(self, tmp_path):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(tmp_path / "out"),
                "--param",
                "tls.rates.a",
                "--values",
                "1.0,zap",
            ]
        )
        assert code == 2


class TestNonFiniteInput:
    # json.load accepts these tokens and the schema bounds let NaN through
    @pytest.mark.parametrize(
        "command, key, token",
        [
            ("evolve", "tls.rates.b", "NaN"),
            ("verify", "tls.rates.b", "NaN"),
            ("thermal", "tls.rates.b", "NaN"),
            ("evolve", "beta", "NaN"),
            ("evolve", "integrator.sample_dt", "NaN"),
            ("evolve", "integrator.t_max", "Infinity"),
        ],
    )
    def test_scenario_number_exits_2(self, tmp_path, capsys, command, key, token):
        data = tls_scenario()
        *parents, leaf = key.split(".")
        node = data
        for part in parents:
            node = node[part]
        node[leaf] = "@"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data).replace('"@"', token), encoding="utf-8")
        code = cli.main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"error: scenario holds the non-finite number {token}"
        ]
        assert not (tmp_path / "out").exists()

    def test_sweep_value_exits_2(self, tmp_path, capsys):
        code = cli.main(
            [
                "sweep",
                "--scenario",
                write_scenario(tmp_path, tls_scenario()),
                "--out",
                str(tmp_path / "out"),
                "--param",
                "tls.rates.a",
                "--values",
                "1.0,nan",
            ]
        )
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestIntegerFields:
    # 18.0 and 1e6 parse as JSON floats; they once passed the schema and
    # ended in a TypeError traceback with exit 1
    @pytest.mark.parametrize(
        "scenario, block, key, token",
        [
            ("lattice", "lattice", "half_width", "18.0"),
            ("lattice", "lattice", "half_width", "1e6"),
            ("fokker_planck", "fokker_planck", "points", "151.0"),
            ("fokker_planck", "fokker_planck", "points", "1e6"),
        ],
    )
    def test_float_token_exits_2(self, tmp_path, capsys, scenario, block, key, token):
        data = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        data[block][key] = "@"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data).replace('"@"', token), encoding="utf-8")
        code = cli.main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: scenario invalid at $.{block}.{key}: "
            f"{float(token)!r} is not of type 'integer'"
        ]
        assert not (tmp_path / "out").exists()


class TestOutOfRangeInputs:
    # each once ended in a 22-25 line traceback with exit 1
    @pytest.mark.parametrize(
        "scenario, block, key, token, message",
        [
            ("lattice", "lattice", "omega_0", "1e300", "site weights do not decay"),
            ("lattice", "lattice", "half_width", "1" + "0" * 300, "half_width exceeds"),
            ("fokker_planck", "fokker_planck", "delta_x", "1e300", "no finite diffusion rate"),
            ("fokker_planck", "fokker_planck", "x_max", "1e-300", "no finite diffusion rate"),
            ("tls", "integrator", "sample_dt", "1e-300", "sample grid of 2e+302 intervals"),
            ("lattice", "integrator", "sample_dt", "1e-300", "sample grid of 4e+302 intervals"),
            ("fokker_planck", "integrator", "sample_dt", "1e-300", "exceeds the cap of 1,000,000"),
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, scenario, block, key, token, message):
        data = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        data[block][key] = "@"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data).replace('"@"', token), encoding="utf-8")
        code = cli.main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
        assert not (tmp_path / "out").exists()


class TestCsvCells:
    """Every data cell of the CSV outputs parses as a number."""

    @staticmethod
    def cells(path):
        header, *rows = path.read_text(encoding="utf-8").strip().splitlines()
        assert rows
        return [cell for row in rows for cell in row.split(",")]

    def test_conditionals_csv(self, tmp_path):
        out = tmp_path / "out"
        scenario = str(SCENARIOS / "lattice.json")
        assert cli.main(["thermal", "--scenario", scenario, "--out", str(out)]) == 0
        cells = self.cells(out / "conditionals.csv")
        assert len(cells) == 37 * 4 * 5
        values = [float(cell) for cell in cells]
        assert all(np.isfinite(values))

    def test_fig2_profiles(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["fig2", "--out", str(out), "--points", "101"]) == 0
        paths = sorted(out.glob("profile_*.csv"))
        assert len(paths) == 4
        for path in paths:
            cells = self.cells(path)
            assert len(cells) == 101 * 3
            assert all(np.isfinite([float(cell) for cell in cells]))


def _mutants(node, path=()):
    """(path, replacement) pairs: every node of a scenario replaced by values
    of the wrong type, below the bounds, of the wrong length and repeated
    (JSON holds 1 and true distinct)."""
    for value in ("x", -1, 0, 0.5, True, [], [node] * 3, [1, True]):
        yield path, value
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _mutants(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _mutants(child, path + (i,))


def _replaced(data, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(data))
    *parents, leaf = path
    node = copy
    for part in parents:
        node = node[part]
    node[leaf] = value
    return copy


def _objects(node, path=()):
    """(path, object) for every JSON object in a scenario."""
    if isinstance(node, dict):
        yield path, node
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _objects(child, path + (key,))


class TestSchemaOracle:
    """The in-tree check against jsonschema's draft 2020-12 validator."""

    def corpus(self):
        bundled = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
        for data in bundled + [custom_scenario()]:
            yield data
            for path, value in _mutants(data):
                yield _replaced(data, path, value)
            for path, obj in _objects(data):
                yield _replaced(data, path, {**obj, "unknown_key": 1})
                for key in obj:
                    yield _replaced(data, path, {k: v for k, v in obj.items() if k != key})

    def first_errors(self):
        """Map a scenario to the first (path, message) of each check, by path."""
        jsonschema = pytest.importorskip("jsonschema")
        schema = cli._load_schema()
        validator = jsonschema.Draft202012Validator(schema)

        def first(data):
            theirs = sorted(validator.iter_errors(data), key=lambda e: e.json_path)
            ours = sorted(cli._schema_errors(data, schema, schema), key=lambda e: e[0])
            return [(e.json_path, e.message) for e in theirs[:1]], ours[:1]

        return first

    def test_same_verdict_first_path_and_message(self):
        first = self.first_errors()
        count = invalid = 0
        for data in self.corpus():
            theirs, ours = first(data)
            assert ours == theirs, data
            count += 1
            invalid += bool(ours)
        assert count > 1000 and invalid > 0.8 * count

    def test_integral_float_is_the_one_difference(self):
        data = json.loads((SCENARIOS / "lattice.json").read_text())
        data["lattice"]["half_width"] = 18.0
        theirs, ours = self.first_errors()(data)
        assert theirs == []
        assert ours == [("$.lattice.half_width", "18.0 is not of type 'integer'")]

    def test_unknown_keyword_raises(self):
        schema = {"type": "object", "maxProperties": 1}
        with pytest.raises(ValueError, match="maxProperties"):
            list(cli._schema_errors({}, schema, schema))


class TestOverflowingFokkerPlanck:
    """Large Fokker-Planck parameters run without numpy warnings; rates past
    the float range end with one named error."""

    def run(self, tmp_path, capsys, **changes):
        data = json.loads((SCENARIOS / "fokker_planck.json").read_text())
        for key, value in changes.items():
            (data if key == "beta" else data["fokker_planck"])[key] = value
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                ["evolve", "--scenario", write_scenario(tmp_path, data), "--out", str(out)]
            )
        err = capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        # the smooth-regime warning stays
        smooth = data["beta"] * data["fokker_planck"]["delta_e"] > 0.1
        assert smooth == any("smooth-weight regime" in str(w.message) for w in caught)
        return code, err, out

    def evolve(self, tmp_path, capsys, **changes):
        code, err, _ = self.run(tmp_path, capsys, **changes)
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return code, lines[0]

    @pytest.mark.parametrize("key", ["beta", "delta_e", "delta_omega"])
    @pytest.mark.parametrize("value", [1e6, 1e300])
    def test_one_error_line(self, tmp_path, capsys, key, value):
        # at most one error line, and now none: the fitted rates stay
        # non-negative and finite, so the propagator stays stochastic
        # however steep the potentials, and these runs converge
        code, err, out = self.run(tmp_path, capsys, **{key: value})
        assert code == 0 and err == ""
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-12
        fields = np.loadtxt(out / "final_fields.csv", delimiter=",", skiprows=1)
        x, total = fields[:, 0], fields[:, 1] + fields[:, 2]
        peak = abs(x[np.argmax(total)])
        if key == "beta":
            # the lobes sit near delta_omega / (4 delta_e) = 10
            assert abs(peak - 10.0) < 2 * (x[1] - x[0])
        elif key == "delta_e":
            assert peak == 0.0
        else:
            assert peak == x[-1]

    def test_rates_past_the_float_range_exit_2(self, tmp_path, capsys):
        code, line = self.evolve(tmp_path, capsys, beta=1e300, delta_omega=1e300)
        assert code == 2 and "overflow the float range" in line


class TestDiscreteInputsAtTheFloatLimit:
    """Discrete scenarios with a rate, splitting or lattice constant at 1e300
    run without numpy warnings."""

    NORM_CHECKS = (
        "thermal_stationarity", "collisional_equivalence", "bipartite_equivalence",
        "classical_closure",
    )

    def run(self, tmp_path, capsys, command, kind, *path):
        data = json.loads((SCENARIOS / f"{kind}.json").read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 1e300
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(
                [command, "--scenario", write_scenario(tmp_path, data), "--out", str(out)]
            )
        capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return code, out

    @pytest.mark.parametrize(
        "path",
        [("tls", "tls", "rates", key) for key in "abcde"]
        + [("lattice", "lattice", key) for key in ("kappa_th", "kappa_plus", "kappa_minus")],
        ids=lambda path: ".".join(path[1:]),
    )
    def test_verify_rates(self, tmp_path, capsys, path):
        # block norms are taken after scaling by the largest entry, so
        # entries near 1e300 square without overflow
        code, out = self.run(tmp_path, capsys, "verify", *path)
        assert code == 0
        assert json.loads((out / "verify.json").read_text())["all_passed"] is True

    @pytest.mark.parametrize("key", ["omega_a", "omega_b"])
    def test_verify_splittings_miss_finitely(self, tmp_path, capsys, key):
        # the tolerances scale with the rates, not with a 1e300 Hamiltonian,
        # so the equivalence checks fail, but by a finite, reported miss
        code, out = self.run(tmp_path, capsys, "verify", "tls", "tls", key)
        assert code == 1
        checks = json.loads((out / "verify.json").read_text())["checks"]
        residuals = [c["residual"] for c in checks if c["name"] in self.NORM_CHECKS]
        assert len(residuals) == 4 and None not in residuals

    @pytest.mark.parametrize("command", ["verify", "evolve"])
    @pytest.mark.parametrize("path", [("beta",), ("lattice", "delta_e")], ids=".".join)
    def test_lattice_weights(self, tmp_path, capsys, command, path):
        code, _ = self.run(tmp_path, capsys, command, "lattice", *path)
        assert code == 0
