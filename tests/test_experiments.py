"""Tests for configuration, dataset ingestion, and the experiment driver."""

import contextlib
import copy
import json
import math
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from asqn import (
    ConfigError,
    DivergenceError,
    LinearGaussianModel,
    SamplerConfig,
    SimConfig,
    experiments,
    full_gradient,
    owners,
    potential,
)
from asqn.cli import main as cli_main
from asqn.experiments import (
    load_config,
    load_movielens,
    run_experiment,
    synth_linear_gaussian,
    synth_matrix_factorization,
    validate_config,
)


def tiny_config(**overrides):
    doc = {
        "schema_version": 1,
        "mode": "simulate",
        "algorithms": ["as-lbfgs"],
        "problem": {
            "type": "linear-gaussian",
            "seed": 0,
            "dim": 4,
            "n_records": 30,
            "noise_variance": 1.0,
            "correlation": 0.0,
        },
        "sampler": {"step": 1e-3, "friction": 0.1, "n_s": 3, "n_o": 2},
        "sim": {"workers": 2, "comm_time": 0.0, "timeout": 10.0,
                "max_updates": 40, "sample_every": 5,
                "timing": {"as-lbfgs": {"mu_master": 0.0, "mu_worker": 5.0},
                           "a-sgd": {"mu_master": 0.0, "mu_worker": 5.0},
                           "mb-lbfgs-simplified": {"mu_master": 0.0, "mu_worker": 5.0},
                           "sgld": {"mu_master": 0.0, "mu_worker": 5.0}}},
        "baselines": {"a-sgd": {"step": 1e-3},
                      "mb-lbfgs-simplified": {"step": 1e-2},
                      "sgld": {"step": 1e-3}},
        "runtime": {"workers": 2, "max_updates": 40, "sample_every": 5},
        "repetitions": 1,
        "base_seed": 0,
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


@contextlib.contextmanager
def first_cpus(count):
    """Narrow this process's CPU affinity to its first ``count`` CPUs, as
    ``taskset -c`` would; restore it on exit."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(before)[:count]))
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def one_cpu():
    """One-CPU affinity (:func:`first_cpus`), so a sweep runs in this
    process alone."""
    return first_cpus(1)


@pytest.fixture
def on_one_cpu():
    """Run the test under one-CPU affinity (:func:`one_cpu`)."""
    with one_cpu():
        yield


class TestPresets:
    def test_linear_gaussian_preset_values(self):
        cfg = validate_config({"preset": "linear-gaussian-paper"})
        s = cfg["sampler"]
        assert (s["step"], s["friction"], s["inv_temperature"]) == (4e-4, 3e-2, 5e2)
        assert s["memory_size"] == 3
        assert (s["n_s"] + s["n_o"], s["n_o"]) == (6, 2)  # N_Omega = 600/100, N_O = 6/3
        assert cfg["sim"]["comm_time"] == 10.0
        p = cfg["problem"]
        assert (p["dim"], p["n_records"], p["noise_variance"]) == (100, 600, 10.0)

    def test_ml_1m_preset_values(self):
        cfg = validate_config({"preset": "ml-1m-paper"})
        s = cfg["sampler"]
        assert (s["step"], s["friction"], s["inv_temperature"]) == (2e-8, 1e-1, 1e3)
        assert s["rho"] == 3.0
        assert cfg["problem"]["rank"] == 5
        assert cfg["problem"]["max_ratings"] == 100000

    def test_preset_override_by_key(self):
        cfg = validate_config({"preset": "linear-gaussian-paper",
                               "sampler": {"step": 1.0}})
        assert cfg["sampler"]["step"] == 1.0
        assert cfg["sampler"]["friction"] == 3e-2  # untouched keys survive

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            validate_config({"preset": "nope"})

    def test_as_lbfgs_worker_mean_formula(self):
        # mu_w = 1000 * N_Omega / N_Y + 60 with N_Omega = N_Y / 100
        cfg = validate_config({"preset": "linear-gaussian-paper"})
        assert cfg["sim"]["timing"]["as-lbfgs"]["mu_worker"] == pytest.approx(
            1000 * 6 / 600 + 60
        )

    def test_config_without_preset_takes_the_old_defaults(self, tmp_path, monkeypatch):
        # the top-level keys a config may leave out take these values, and
        # it gives the outputs of the config that writes them out
        bare = {key: tiny_config()[key] for key in ("mode", "algorithms", "problem", "sampler")}
        written = {**bare, "schema_version": 1, "sweep": {}, "sim": {}, "baselines": {},
                   "runtime": {}, "repetitions": 1, "epsilon_accuracy": 1e-2, "base_seed": 0,
                   "output_dir": "out"}
        assert validate_config(bare).doc == written
        monkeypatch.chdir(tmp_path)
        assert run_experiment(validate_config(bare)) == run_experiment(
            validate_config(written), out_dir="written")
        names = sorted(os.listdir(tmp_path / "out"))
        assert names == ["as-lbfgs_sigma-0_rep-0.csv", "summary.json"]
        assert names == sorted(os.listdir(tmp_path / "written"))
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "written" / name).read_bytes()


class TestValidateConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config(tiny_config(bogus=1))

    def test_unknown_section_key(self):
        doc = tiny_config()
        doc["sampler"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            validate_config(doc)

    def test_per_worker_speed_is_not_a_key(self, tmp_path, capsys):
        # the per-worker speed draw is gone; a config that sets it is rejected
        doc = tiny_config()
        doc["sim"]["per_worker_speed"] = True
        with pytest.raises(ConfigError, match="per_worker_speed"):
            validate_config(doc)
        assert not hasattr(SimConfig(), "per_worker_speed")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "per_worker_speed" in capsys.readouterr().err

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config(tiny_config(mode="fly"))

    @pytest.mark.parametrize("mode, key", [("simulate", "workers"), ("run", "sigma_worker")])
    def test_sweep_key_of_the_other_mode_rejected(self, mode, key):
        with pytest.raises(ConfigError, match=f"sweep.{key}"):
            validate_config(tiny_config(mode=mode, sweep={key: [1, 2]}))

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            validate_config(tiny_config(algorithms=["bfgs"]))

    def test_missing_problem(self):
        doc = tiny_config()
        del doc["problem"]
        with pytest.raises(ConfigError, match="problem"):
            validate_config(doc)

    def test_round_trip(self):
        cfg = validate_config(tiny_config())
        again = validate_config(json.loads(cfg.to_json()))
        assert again.doc == cfg.doc

    def test_input_left_alone_and_not_shared(self):
        # validating twice gives the same config: the preset is not popped
        # from the caller's dict
        doc = {"preset": "linear-gaussian-paper", "sim": {"max_updates": 30}}
        first, second = validate_config(doc), validate_config(doc)
        assert first.doc == second.doc and first["sim"]["max_updates"] == 30
        assert doc == {"preset": "linear-gaussian-paper", "sim": {"max_updates": 30}}
        # a later change to the caller's dict does not reach a validated config
        for doc in (tiny_config(), {"preset": "linear-gaussian-paper", "sim": {}}):
            cfg = validate_config(doc)
            before = cfg.to_json()
            doc["sim"]["workers"] = 7
            doc["mode"] = "run"
            assert cfg.to_json() == before

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "workers", 2.0),
        ("sim", "workers", True),
        ("sampler", "n_s", 4.5),
        ("sampler", "n_o", 2.0),
        ("sampler", "memory_size", 1.5),
        ("runtime", "workers", 2.0),
        (None, "repetitions", 1.5),
        ("sampler", "memory_size", "3"),
        ("sim", "sample_every", [5]),
    ])
    def test_non_integer_count_is_a_config_error(self, tmp_path, capsys, section, key, value):
        doc = tiny_config(mode="run" if section == "runtime" else "simulate")
        (doc[section] if section else doc)[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key, value, message", [
        ("baselines", "a-sgd", {"step": 1e-3, "stepp": 5.0},
         r"unknown key\(s\) \['stepp'\] at baselines.a-sgd"),
        ("baselines", "a-sgd", 5.0, "baselines.a-sgd must be an object"),
        ("sim", "timing", {"as-lbfgs": {"mu_master": 0.0, "mu_wrker": 3.0}},
         r"unknown key\(s\) \['mu_wrker'\] at sim.timing.as-lbfgs"),
        ("sim", "timing", {"as-lbfgs": 3}, "sim.timing.as-lbfgs must be an object"),
        ("sim", "timing", {"bfgs": {"mu_worker": 3.0}}, r"\['bfgs'\] at sim.timing"),
        ("sim", "timing", [], "sim.timing must be an object"),
        ("sweep", "sigma_worker", 5.0, "sweep.sigma_worker must be a non-empty list"),
        ("sweep", "sigma_worker", [], "sweep.sigma_worker must be a non-empty list"),
        (None, "base_seed", -1, "base_seed must be an integer of at least 0"),
        (None, "base_seed", 1.5, "base_seed must be an integer of at least 0"),
        ("sweep", "sigma_worker", ["a"], "sweep.sigma_worker values must be numbers"),
        ("sim", "comm_time", "1", "sim.comm_time must be a number, got '1'"),
        ("sim", "sigma_worker", "a", "sim.sigma_worker must be a number"),
        ("sim", "timing", {"as-lbfgs": {"mu_master": 0.0, "mu_worker": "5"}},
         "sim.timing.as-lbfgs.mu_worker must be a number"),
        ("sampler", "step", "a", "sampler.step must be a number"),
        ("sampler", "friction", "0.1", "sampler.friction must be a number"),
        ("sim", "wait_for_stragglers", "no", "sim.wait_for_stragglers must be true or false"),
        ("sim", "timeout", True, "sim.timeout must be a number, got True"),
        ("sim", "max_time", None, "sim.max_time must be a number, got None"),
        ("sampler", "rho", [0.5], r"sampler.rho must be a number, got \[0.5\]"),
        ("baselines", "a-sgd", {"step": {"value": 1e-3}}, "baselines.a-sgd.step must be a number"),
        ("sim", "timing", {"as-lbfgs": {"mu_master": False, "mu_worker": 5.0}},
         "sim.timing.as-lbfgs.mu_master must be a number, got False"),
        (None, "preset", ["x"], r"preset must be a string, got \['x'\]"),
        (None, "algorithms", 5, "algorithms must be a non-empty list, got 5"),
        (None, "algorithms", [], "algorithms must be a non-empty list"),
        (None, "algorithms", ["as-lbfgs", 5], "algorithms values must be strings, got 5"),
        (None, "epsilon_accuracy", "0.01", "epsilon_accuracy must be a number, got '0.01'"),
        (None, "mode", ["run"], "mode must be a string"),
        (None, "output_dir", 3, "output_dir must be a string, got 3"),
        (None, "schema_version", "1", "schema_version must be an integer"),
        ("problem", "noise_variance", "10", "problem.noise_variance must be a number"),
        ("problem", "type", 3, "problem.type must be a string, got 3"),
        ("problem", "type", "quadratic", "problem.type must be one of"),
        ("problem", "rank", 7, "problem.rank does not apply to problem type 'linear-gaussian'"),
        ("problem", "type", "matrix-factorization",
         "problem.correlation does not apply to problem type 'matrix-factorization'"),
        ("problem", "path", 3, "problem.path must be a string or null, got 3"),
        # JSON parsing accepts NaN: an epsilon of NaN turned the cautious
        # test off, and a comm_time of NaN wrote nan times
        ("sampler", "epsilon", math.nan, "sampler.epsilon must be a number, got nan"),
        ("sim", "comm_time", math.nan, "sim.comm_time must be a number, got nan"),
        ("sweep", "sigma_worker", [math.nan],
         "sweep.sigma_worker values must be numbers, got nan"),
    ])
    def test_malformed_nested_value_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                      section, key, value, message):
        # each of these used to run with the value ignored, or to end in a
        # traceback; none may start a process
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        doc = tiny_config()
        (doc.setdefault(section, {}) if section else doc)[key] = value
        with pytest.raises(ConfigError, match=message):
            validate_config(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()
        assert forks == []

    @pytest.mark.parametrize("problem, key, value, message", [
        ("linear-gaussian", "dim", "100", "dim must be an integer of at least 1, got '100'"),
        ("linear-gaussian", "dim", 0, "dim must be an integer of at least 1, got 0"),
        ("linear-gaussian", "n_records", 30.0, "n_records must be an integer"),
        ("linear-gaussian", "seed", 1.5, "problem.seed must be an integer of at least 0"),
        ("linear-gaussian", "seed", -1, "problem.seed must be an integer of at least 0"),
        ("matrix-factorization", "rank", 2.0, "rank must be an integer"),
        ("matrix-factorization", "n_rows", True, "n_rows must be an integer"),
        ("matrix-factorization", "n_cols", "6", "n_cols must be an integer"),
        ("matrix-factorization", "max_ratings", 1.5, "problem.max_ratings must be an integer"),
        ("matrix-factorization", "seed", None, "problem.seed must be an integer"),
    ])
    def test_non_integer_problem_count_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                         problem, key, value, message):
        # a problem count is checked where the problem is built, before any
        # point runs, any process forks or the output directory is created
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        doc = tiny_config()
        if problem == "matrix-factorization":
            doc["problem"] = {"type": problem, "seed": 0, "n_rows": 5, "n_cols": 6, "rank": 2}
        doc["problem"][key] = value
        cfg = validate_config(doc)
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, out_dir=str(tmp_path / "direct"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be an integer" in err
        assert "Traceback" not in err
        assert not out.exists() and not (tmp_path / "direct").exists()
        assert forks == []

    def test_problem_keys_follow_its_type(self):
        for name, preset in experiments.PRESETS.items():
            # a preset written out in full matches the schema table
            assert validate_config(copy.deepcopy(preset)).doc == validate_config(
                {"preset": name}).doc
        with pytest.raises(ConfigError, match="problem.dim does not apply to problem type "
                                              "'matrix-factorization'"):
            validate_config({"preset": "ml-1m-paper", "problem": {"dim": 10}})
        doc = tiny_config()
        del doc["problem"]["type"]
        with pytest.raises(ConfigError, match="problem.type must be one of .* got None"):
            validate_config(doc)

    @pytest.mark.parametrize("problem, message", [
        ({"format": "csv", "max_ratings": 7}, "problem.format is unused without a problem.path"),
        ({"max_ratings": 7}, "problem.max_ratings is unused without a problem.path"),
        ({"path": "ratings.dat", "n_rows": 5},
         "problem.n_rows is unused with a problem.path"),
        ({"path": "ratings.dat", "noise_std": 0.5, "observed_fraction": 0.2},
         "problem.noise_std is unused with a problem.path"),
    ])
    def test_mf_keys_that_path_leaves_unused_rejected(self, tmp_path, capsys, monkeypatch,
                                                      problem, message):
        # {"format": "csv", "max_ratings": 7} used to exit 0 with both ignored
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        doc = {"preset": "ml-1m-paper", "problem": problem, "sim": {"max_updates": 20}}
        with pytest.raises(ConfigError, match=message):
            validate_config(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()
        assert forks == []

    def test_mf_keys_that_path_uses_accepted(self, tmp_path):
        # the preset's own format and max_ratings wait for a path; a path
        # takes the caller's
        assert validate_config({"preset": "ml-1m-paper"})["problem"]["format"] == (
            "dat-double-colon")
        path = tmp_path / "ratings.csv"
        path.write_text("userId,movieId,rating,timestamp\n1,1,4,0\n1,2,3,0\n2,1,5,0\n")
        cfg = validate_config({"preset": "ml-1m-paper", "problem": {
            "path": str(path), "format": "csv", "max_ratings": 2}})
        model, _ = experiments.build_problem(cfg)
        assert model.n_records == 2
        synthetic = {"type": "matrix-factorization", "seed": 0, "rank": 2, "n_rows": 5,
                     "n_cols": 6, "noise_std": 0.5, "observed_fraction": 0.5}
        assert validate_config(tiny_config(problem=synthetic))["problem"] == synthetic

    def test_unbuildable_problem_leaves_no_output_directory(self, tmp_path):
        # an unvalidated config reaches build_problem; its error creates nothing
        cfg = experiments.ExperimentConfig({**validate_config(tiny_config()).doc,
                                            "problem": {"type": "quadratic"}})
        out = tmp_path / "new" / "out"
        with pytest.raises(ConfigError, match="unknown problem type 'quadratic'"):
            run_experiment(cfg, out_dir=str(out))
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("section, key, message", [
        ("sampler", None, "missing 'sampler' section"),
        ("sampler", "step", r"missing sampler.step \(needed by as-lbfgs\)"),
        ("sampler", "friction", r"missing sampler.friction \(needed by as-lbfgs\)"),
    ], ids=["no-sampler", "no-step", "no-friction"])
    def test_missing_sampler_value_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                     section, key, message):
        # these used to end in a KeyError or TypeError traceback
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        doc = tiny_config()
        del (doc[section] if key else doc)[key or section]
        with pytest.raises(ConfigError, match=message):
            validate_config(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()
        assert forks == []

    def test_baseline_step_serves_its_own_algorithm(self):
        doc = tiny_config(algorithms=["a-sgd"])
        del doc["sampler"]["step"]
        assert validate_config(doc)["baselines"]["a-sgd"]["step"] == 1e-3

    def test_baselines_run_without_friction(self, tmp_path, on_one_cpu):
        # AS-L-BFGS alone reads friction, so the baselines' outputs do not
        # depend on it and a config of baselines may leave it out
        doc = tiny_config(algorithms=["a-sgd", "mb-lbfgs-simplified", "sgld"])
        run_experiment(validate_config(doc), out_dir=str(tmp_path / "with"))
        del doc["sampler"]["friction"]
        run_experiment(validate_config(doc), out_dir=str(tmp_path / "without"))
        names = sorted(os.listdir(tmp_path / "with"))
        assert len(names) == 4 and names == sorted(os.listdir(tmp_path / "without"))
        for name in names:
            assert (tmp_path / "with" / name).read_bytes() == (
                tmp_path / "without" / name).read_bytes()

    def test_negative_seed_option_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        assert cli_main(["--config", str(cfg_path), "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: base_seed must be an integer of at least 0")

    @pytest.mark.parametrize("mode, section", [("simulate", "sim"), ("run", "runtime")])
    def test_invalid_point_rejected_before_any_fork(self, tmp_path, monkeypatch, mode, section):
        # the points' configs are built in the parent, so a sweep over two
        # points forks no process before the error is raised
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        sweep = {"sigma_worker": [0.0, 2.0]} if mode == "simulate" else {"workers": [1, 2]}
        doc = tiny_config(mode=mode, sweep=sweep)
        doc[section]["max_updates"] = 12.5
        cfg = validate_config(doc)
        with pytest.raises(ConfigError, match="max_updates must be an integer"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert forks == []
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize("timeout, message", [
        (1.0, "no worker can meet the round timeout 1 "),
        (math.inf, "run_sync_mb requires a finite timeout"),
    ], ids=["unmeetable", "infinite"])
    def test_unusable_round_timeout_rejected_before_any_fork(self, tmp_path, monkeypatch,
                                                            timeout, message):
        # mb-L-BFGS at mu_worker 5 and sigma 0 can never meet a timeout of 1
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        doc = tiny_config(algorithms=["as-lbfgs", "mb-lbfgs-simplified"])
        doc["sim"]["timeout"] = timeout
        cfg = validate_config(doc)
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert forks == []
        assert os.listdir(tmp_path) == []


class TestSubsampleSizes:
    """A null sampler.n_s or n_o takes its value from the pair derived from
    the record count, N_Omega = N_Y/100, N_O = N_Omega/3 and
    N_S = N_Omega - N_O; a size the config sets is kept."""

    @staticmethod
    def sizes(doc, algo="as-lbfgs"):
        cfg = validate_config(doc)
        model, _ = experiments.build_problem(cfg)
        samp = experiments._sampler_cfg(cfg, algo, model)
        return samp.n_s, samp.n_o

    @pytest.mark.parametrize("sampler, want", [
        ({"n_s": None, "n_o": None}, (8, 4)),
        ({"n_s": None, "n_o": 10}, (8, 10)),
        ({"n_s": 7, "n_o": None}, (7, 4)),
        ({"n_s": 7, "n_o": 10}, (7, 10)),
    ])
    def test_only_a_null_size_is_derived(self, sampler, want):
        doc = tiny_config()
        doc["problem"]["n_records"] = 1200  # N_Omega 12: N_O 4, N_S 8
        doc["sampler"].update(sampler)
        assert self.sizes(doc) == want

    def test_small_problem_keeps_a_set_size(self):
        # 300 ratings: N_Omega is the floor 3, so the derived pair is (2, 1)
        doc = {"mode": "simulate", "algorithms": ["as-lbfgs"],
               "problem": {"type": "matrix-factorization", "n_rows": 20, "n_cols": 30,
                           "observed_fraction": 0.5},
               "sampler": {"step": 1e-3, "friction": 0.1, "n_s": None, "n_o": 10}}
        model, _ = experiments.build_problem(validate_config(doc))
        assert model.n_records == 300
        assert self.sizes(doc) == (2, 10)

    def test_preset_override_of_one_size(self):
        # the preset derives both sizes (N_Y 6,000 gives (40, 20)); n_o 10 stays
        assert self.sizes({"preset": "ml-1m-paper"}) == (40, 20)
        assert self.sizes({"preset": "ml-1m-paper", "sampler": {"n_o": 10}}) == (40, 10)
        assert self.sizes({"preset": "ml-1m-paper", "sampler": {"n_s": 5}}) == (5, 20)

    def test_baseline_sizes_take_the_same_rule(self):
        doc = {"preset": "linear-gaussian-paper", "algorithms": ["a-sgd"],
               "baselines": {"a-sgd": {"n_s": None, "n_o": 1}}}
        assert self.sizes(doc, "a-sgd") == (4, 1)  # N_Y 600: the derived N_S is 4
        assert self.sizes(doc, "as-lbfgs") == (4, 2)  # the preset's own sizes


class TestLoadConfig:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "mode": simulate\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "no-such.json")

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(tiny_config()))
        assert load_config(path)["mode"] == "simulate"


class TestSynthLinearGaussian:
    def test_gradient_vanishes_at_optimum(self):
        model, theta_star, u_star = synth_linear_gaussian(0, 100, 600, 10.0,
                                                          correlation=3.0)
        assert np.linalg.norm(full_gradient(model, theta_star)) < 1e-8
        assert u_star == pytest.approx(potential(model, theta_star))

    def test_deterministic(self):
        a = synth_linear_gaussian(1, 10, 50, 1.0)
        b = synth_linear_gaussian(1, 10, 50, 1.0)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1], b[1])

    def test_shapes(self):
        model, theta_star, _ = synth_linear_gaussian(0, 7, 20, 2.0)
        assert model.features.shape == (20, 7)
        assert theta_star.shape == (7,)


class TestSynthMatrixFactorization:
    def test_shapes_and_fraction(self):
        model = synth_matrix_factorization(0, 20, 30, 3, observed_fraction=0.1)
        assert model.dim == 3 * (20 + 30)
        assert model.n_records == 60

    def test_low_noise_is_nearly_factorizable(self):
        model = synth_matrix_factorization(0, 20, 30, 2, noise_std=0.0)
        # planted factors exist: check one via regeneration
        rng = np.random.default_rng(0)
        f = rng.standard_normal((20, 2))
        g = rng.standard_normal((2, 30))
        from asqn import rmse

        assert rmse(model, model.pack(f, g)) < 1e-12

    @pytest.mark.parametrize("seed, n_rows, n_cols, rank", [(0, 200, 300, 3), (1, 200, 300, 3),
                                                            (5, 40, 70, 5), (2, 9, 11, 1)])
    def test_values_have_the_bits_of_fancy_indexing(self, seed, n_rows, n_cols, rank):
        # the former expression, einsum over f[rows] and g[:, cols], is the
        # reference; the benchmark's stored problems depend on its bits
        model = synth_matrix_factorization(seed, n_rows, n_cols, rank)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((n_rows, rank))
        g = rng.standard_normal((rank, n_cols))
        n_obs = max(1, int(round(0.1 * n_rows * n_cols)))
        rows, cols = np.divmod(rng.choice(n_rows * n_cols, size=n_obs, replace=False), n_cols)
        values = np.einsum("ik,ki->i", f[rows], g[:, cols]) + 0.1 * rng.standard_normal(n_obs)
        assert model.values.tobytes() == values.tobytes()
        assert np.array_equal(model.rows, rows) and np.array_equal(model.cols, cols)


class TestLoadMovielens:
    def test_dat_format(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::978300760\n2::1193::3::978302109\n"
                        "1::661::3::978301968\n")
        model, info = load_movielens(path, rank=2)
        assert info == {"n_rows": 2, "n_cols": 2, "nnz": 3}
        # rows are items, columns users, ids remapped in first-seen order
        np.testing.assert_array_equal(model.rows, [0, 0, 1])
        np.testing.assert_array_equal(model.cols, [0, 1, 0])
        np.testing.assert_array_equal(model.values, [5.0, 3.0, 3.0])

    def test_csv_format_with_header(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("userId,movieId,rating,timestamp\n1,2,3.5,1112486027\n")
        model, info = load_movielens(path, fmt="csv", rank=1)
        assert info["nnz"] == 1
        assert model.values[0] == 3.5

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1::2::3::4\n1::x::3::4\n")
        with pytest.raises(ConfigError, match="bad.dat:2"):
            load_movielens(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("")
        with pytest.raises(ConfigError, match="no ratings"):
            load_movielens(path)

    def test_max_ratings_cap(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("".join(f"{u}::1::4::0\n" for u in range(1, 11)))
        _, info = load_movielens(path, max_ratings=4)
        assert info["nnz"] == 4

    def test_deterministic_ingestion(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("5::7::1::0\n3::7::2::0\n5::9::3::0\n")
        a, _ = load_movielens(path)
        b, _ = load_movielens(path)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)


class TestProblemDefaults:
    """A problem section that gives only its type (and a ratings file's
    path) builds the documented defaults, array for array."""

    @staticmethod
    def build(problem):
        return experiments.build_problem(validate_config(tiny_config(problem=problem)))

    @staticmethod
    def assert_same_mf(got, want):
        for name in ("rows", "cols", "values"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert (got.n_rows, got.n_cols, got.rank) == (want.n_rows, want.n_cols, want.rank)

    def test_linear_gaussian(self):
        model, u_star = self.build({"type": "linear-gaussian"})
        want, _, want_u = synth_linear_gaussian(seed=0, dim=100, n_records=600,
                                                noise_variance=10.0, correlation=0.0)
        np.testing.assert_array_equal(model.features, want.features)
        np.testing.assert_array_equal(model.targets, want.targets)
        assert model.noise_variance == want.noise_variance == 10.0
        assert u_star == want_u

    def test_synthetic_matrix_factorization(self):
        model, u_star = self.build({"type": "matrix-factorization"})
        self.assert_same_mf(model, synth_matrix_factorization(
            seed=0, n_rows=200, n_cols=300, rank=3, noise_std=0.1, observed_fraction=0.1))
        assert u_star is None

    def test_ratings_file_without_rank(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::0\n2::1193::3::0\n1::661::3::0\n")
        model, u_star = self.build({"type": "matrix-factorization", "path": str(path)})
        self.assert_same_mf(model, load_movielens(path, rank=5)[0])
        assert model.rank == 5 and u_star is None


class TestRunSgldSerial:
    def test_final_iterate_recorded_and_every_update_logged(self):
        model, _, _ = synth_linear_gaussian(0, 4, 30, 1.0)
        samp = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
        res = experiments.run_sgld_serial(SimConfig(max_updates=10, sample_every=4),
                                          samp, model)
        assert [r.iteration for r in res.trace] == [0, 4, 8, 10]
        assert res.trace[-1].potential == potential(model, res.final_state.theta)
        assert res.staleness_log == [(n, 0) for n in range(1, 11)]

    def test_max_time_truncates_at_last_whole_step(self):
        model, _, _ = synth_linear_gaussian(0, 4, 30, 1.0)
        samp = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)
        sim = SimConfig(mu_worker=10.0, max_updates=10, max_time=35.0, sample_every=4)
        res = experiments.run_sgld_serial(sim, samp, model)
        assert [(r.time, r.iteration) for r in res.trace] == [(0.0, 0), (30.0, 3)]
        assert res.truncated and res.iterations == 3
        assert len(res.staleness_log) == 3


class TestRunExperiment:
    def test_simulate_writes_traces_and_summary(self, tmp_path):
        cfg = validate_config(tiny_config(
            algorithms=["as-lbfgs", "a-sgd", "mb-lbfgs-simplified"],
            sweep={"sigma_worker": [0.0, 2.0]},
            repetitions=2,
        ))
        run_experiment(cfg, out_dir=str(tmp_path))
        csvs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
        assert len(csvs) == 3 * 2 * 2
        assert "as-lbfgs_sigma-0_rep-0.csv" in csvs
        assert (tmp_path / "summary.json").exists()

    def test_summary_stats_match_trace_recomputation(self, tmp_path):
        cfg = validate_config(tiny_config(sweep={"sigma_worker": [0.0]},
                                          repetitions=3,
                                          epsilon_accuracy=0.5))
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        point = summary["algorithms"]["as-lbfgs"]["points"][0]
        u_star, eps = summary["u_star"], summary["epsilon"]
        times = []
        for k in range(3):
            rows = (tmp_path / f"as-lbfgs_sigma-0_rep-{k}.csv").read_text().splitlines()
            hit = None
            for row in rows[1:]:
                t, _, _, u = row.split(",")
                if (float(u) - u_star) / u_star <= eps:
                    hit = float(t)
                    break
            times.append(hit)
        reached = [t for t in times if t is not None]
        if reached:
            assert point["time_to_epsilon_mean"] == pytest.approx(
                np.mean(reached), abs=1e-9
            )
            assert point["time_to_epsilon_std"] == pytest.approx(
                np.std(reached), abs=1e-9
            )
        assert point["reached"] == len(reached)

    def test_simulate_outputs_byte_identical(self, tmp_path):
        # one point run twice, and a sweep of 4 x 2 x 2 points run on every
        # usable CPU against the same sweep under one-CPU affinity
        sweep = tiny_config(algorithms=list(experiments.ALGORITHMS),
                            sweep={"sigma_worker": [0.0, 2.0]}, repetitions=2)
        for i, doc in enumerate([tiny_config(), sweep]):
            cfg = validate_config(doc)
            out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
            run_experiment(cfg, out_dir=str(out1))
            assert multiprocessing.active_children() == []
            with one_cpu():
                run_experiment(cfg, out_dir=str(out2))
            assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
            assert len(os.listdir(out1)) == (1 if i == 0 else 4 * 2 * 2) + 1
            for name in os.listdir(out1):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_mode_speedup_table(self, tmp_path):
        cfg = validate_config(tiny_config(mode="run",
                                          sweep={"workers": [1, 2]}))
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        points = summary["algorithms"]["as-lbfgs"]["points"]
        assert [p["workers"] for p in points] == [1, 2]
        assert all("speedup_vs_w1" in p for p in points)
        assert points[0]["speedup_vs_w1"] == pytest.approx(1.0)

    def test_sgld_is_serial_whatever_the_sweep(self, tmp_path):
        # the SGLD baseline runs on one worker without jitter, so a sigma
        # sweep over a 10-worker cluster writes the same serial trace twice
        sim = {**tiny_config()["sim"], "workers": 10}
        cfg = validate_config(tiny_config(algorithms=["sgld"], sim=sim,
                                          sweep={"sigma_worker": [0.0, 50.0]}))
        run_experiment(cfg, out_dir=str(tmp_path))
        traces = [(tmp_path / f"sgld_sigma-{s}_rep-0.csv").read_text() for s in ("0", "50")]
        assert traces[0] == traces[1]
        rows = [row.split(",") for row in traces[0].splitlines()[1:]]
        assert [(float(t), int(n), int(l)) for t, n, l, _ in rows] == [
            (5.0 * n, n, 0) for n in range(0, 41, 5)]

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """The algorithm of each engine call and the (calls, processes) of
        each _run_points call that the sweep makes in this process."""
        calls = {"engines": [], "runs": []}
        run_async, run_sync_mb = experiments.run_async, experiments.run_sync_mb
        run_points = experiments._run_points

        def counted_async(*args, algo, **kwargs):
            calls["engines"].append(algo)
            return run_async(*args, algo=algo, **kwargs)

        def counted_mb(*args, **kwargs):
            calls["engines"].append("mb-lbfgs-simplified")
            return run_sync_mb(*args, **kwargs)

        def counted_points(point_calls, procs):
            calls["runs"].append((len(point_calls), procs))
            return run_points(point_calls, procs)

        monkeypatch.setattr(experiments, "run_async", counted_async)
        monkeypatch.setattr(experiments, "run_sync_mb", counted_mb)
        monkeypatch.setattr(experiments, "_run_points", counted_points)
        return calls

    def test_sgld_runs_once_per_repetition_whatever_the_sweep(self, tmp_path, engine_calls,
                                                               on_one_cpu):
        # both sigma values resolve to the one serial SGLD run of each
        # repetition, which writes both traces
        doc = tiny_config(algorithms=["sgld"], sweep={"sigma_worker": [0.0, 50.0]},
                          repetitions=2)
        doc["sampler"]["inv_temperature"] = 50.0
        cfg = validate_config(doc)
        run_experiment(cfg, out_dir=str(tmp_path))
        assert engine_calls["engines"] == ["sgld", "sgld"]
        assert engine_calls["runs"] == [(2, 1)]
        model = experiments.build_problem(cfg)[0]
        for k in range(2):
            sim = SimConfig(workers=1, mu_worker=5.0, timeout=10.0, max_updates=40,
                            sample_every=5, seed=k)
            samp = SamplerConfig(step=1e-3, friction=0.1, inv_temperature=50.0, n_s=3, n_o=2)
            direct = tmp_path / f"direct-{k}.csv"
            experiments.write_trace_csv(
                experiments.run_async(sim, samp, model, algo="sgld").trace, direct)
            for sigma in ("0", "50"):
                assert (tmp_path / f"sgld_sigma-{sigma}_rep-{k}.csv").read_bytes() == \
                    direct.read_bytes()

    def test_sweep_processes_count_distinct_runs(self, tmp_path, engine_calls):
        # one distinct run forks no sweep process, however many CPUs
        cfg = validate_config(tiny_config(algorithms=["sgld"],
                                          sweep={"sigma_worker": [0.0, 50.0]}))
        run_experiment(cfg, out_dir=str(tmp_path))
        assert engine_calls["runs"] == [(1, 1)]
        assert engine_calls["engines"] == ["sgld"]

    def test_distinct_points_each_run(self, tmp_path, engine_calls, on_one_cpu):
        # a-SGD's and mb-L-BFGS's sigma values and every repetition are
        # distinct runs; only SGLD's sigma values are merged
        cfg = validate_config(tiny_config(
            algorithms=["a-sgd", "mb-lbfgs-simplified", "sgld"],
            sweep={"sigma_worker": [0.0, 50.0]}, repetitions=2))
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert engine_calls["engines"] == ["a-sgd"] * 4 + ["mb-lbfgs-simplified"] * 4 + \
            ["sgld"] * 2
        assert engine_calls["runs"] == [(10, 1)]
        for algo in ("a-sgd", "mb-lbfgs-simplified"):
            for k in range(2):
                traces = [(tmp_path / f"{algo}_sigma-{s}_rep-{k}.csv").read_bytes()
                          for s in ("0", "50")]
                assert traces[0] != traces[1], (algo, k)
        assert len(summary["algorithms"]["sgld"]["points"]) == 2

    def test_run_mode_never_merges_points(self, tmp_path, monkeypatch):
        # each run-mode point times its own workers, so each one runs, even
        # where every point's sim section would resolve alike
        runs = []
        run = experiments.rt.run
        monkeypatch.setattr(experiments, "_sim_cfg", lambda *args: SimConfig())
        monkeypatch.setattr(experiments.rt, "run",
                            lambda *args, **kwargs: runs.append(kwargs) or run(*args, **kwargs))
        cfg = validate_config(tiny_config(mode="run", algorithms=["as-lbfgs", "a-sgd"],
                                          sweep={"workers": [1, 2]}, repetitions=2))
        run_experiment(cfg, out_dir=str(tmp_path))
        assert [(kw["algo"], kw["workers"], kw["seed"]) for kw in runs] == [
            (algo, w, k) for algo in ("as-lbfgs", "a-sgd") for w in (1, 2) for k in (0, 1)]

    def test_run_mode_rejects_serial_baselines(self, tmp_path):
        cfg = validate_config(tiny_config(mode="run", algorithms=["sgld"]))
        with pytest.raises(ConfigError):
            run_experiment(cfg, out_dir=str(tmp_path))

    def test_run_mode_rejects_serial_baselines_before_running(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments.rt, "run", lambda *args, **kwargs: calls.append(args))
        cfg = validate_config(tiny_config(mode="run", algorithms=["as-lbfgs", "sgld"],
                                          sweep={"workers": [1, 2]}))
        with pytest.raises(ConfigError, match="sgld is not available in run mode"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert calls == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("mode, point_keys", [
        ("simulate", {"sigma_worker", "time_to_epsilon_mean", "time_to_epsilon_std", "reached",
                      "final_potential_mean", "final_rmse_mean", "final_rmse_std"}),
        ("run", {"workers", "wall_ms_mean", "wall_ms_std", "final_potential_mean",
                 "speedup_vs_w1"}),
    ])
    def test_summary_keys_of_each_mode(self, tmp_path, mode, point_keys):
        sweep = {"sigma_worker": [0.0, 2.0]} if mode == "simulate" else {"workers": [1, 2]}
        cfg = validate_config(tiny_config(mode=mode, algorithms=["as-lbfgs", "a-sgd"],
                                          sweep=sweep))
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert set(summary) == {"mode", "u_star", "epsilon", "base_seed", "repetition_seeds",
                                "algorithms"}
        assert list(summary["algorithms"]) == ["as-lbfgs", "a-sgd"]
        for algo in summary["algorithms"].values():
            assert len(algo["points"]) == 2
            assert all(set(p) == point_keys for p in algo["points"])
        label = "sigma" if mode == "simulate" else "workers"
        values = ("0", "2") if mode == "simulate" else ("1", "2")
        assert sorted(os.listdir(tmp_path)) == sorted(
            [f"{a}_{label}-{v}_rep-0.csv" for a in ("as-lbfgs", "a-sgd") for v in values]
            + ["summary.json"])

    def test_trace_rows_satisfy_invariants(self, tmp_path):
        cfg = validate_config(tiny_config(algorithms=["as-lbfgs", "sgld"]))
        run_experiment(cfg, out_dir=str(tmp_path))
        for name in os.listdir(tmp_path):
            if not name.endswith(".csv"):
                continue
            rows = (tmp_path / name).read_text().splitlines()
            ns = [int(r.split(",")[1]) for r in rows[1:]]
            stale = [int(r.split(",")[2]) for r in rows[1:]]
            assert ns == sorted(ns) and len(set(ns)) == len(ns)
            assert all(l >= 0 for l in stale)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="sweeps fork only on 2+ CPUs")
    def test_split_sweep_points_run_on_one_cpu_shares(self, monkeypatch):
        # two sweep processes on two CPUs: each point runs on its process's
        # one-CPU share, and its replay forks nothing though the fork
        # threshold is 0; the caller's affinity comes back after the
        # points, also when one raises
        monkeypatch.setattr(owners, "FORK_AFTER_S", 0.0)
        seen = {}
        real_exit = owners.WorkerOwners.__exit__

        def recording_exit(self, *exc_info):
            seen["procs"] = self.procs
            return real_exit(self, *exc_info)

        monkeypatch.setattr(owners.WorkerOwners, "__exit__", recording_exit)
        model = synth_linear_gaussian(seed=0, dim=4, n_records=30)[0]
        samp = SamplerConfig(step=1e-3, friction=0.1, n_s=3, n_o=2)

        def point(seed):
            def call():
                sim = SimConfig(workers=4, mu_worker=5.0, max_updates=200, seed=seed)
                res = experiments.run_async(sim, samp, model)
                time.sleep(0.05)  # leaves the other process time to take a point
                return os.sched_getaffinity(0), seen["procs"], res.iterations
            return call

        def failing():
            raise DivergenceError("point failed", iteration=3)

        with first_cpus(2):
            cpus = sorted(os.sched_getaffinity(0))
            got = experiments._run_points([point(seed) for seed in range(4)], 2)
            assert all(cpu_set in ({cpus[0]}, {cpus[1]}) and procs == 1 and n == 200
                       for cpu_set, procs, n in got)
            assert os.sched_getaffinity(0) == set(cpus)
            with pytest.raises(DivergenceError, match="point failed"):
                experiments._run_points([point(0), failing, point(1)], 2)
            assert os.sched_getaffinity(0) == set(cpus)
        assert multiprocessing.active_children() == []

    def test_lowest_index_failure_raised(self, tmp_path, monkeypatch):
        # the parent runs point 0, then fails at once on point 2 while a
        # child still runs point 1, which fails later: a serial run would
        # have failed on point 1 first
        def resolve_point(cfg, model, theta0, algo, seed, sigma):
            def call():
                if sigma == 1.0:
                    time.sleep(1.0)
                elif sigma == 0.0:
                    time.sleep(0.5)
                    return None
                raise DivergenceError(f"point {sigma:g}", iteration=int(sigma))
            return (algo, seed, sigma), call

        monkeypatch.setattr(experiments, "_resolve_point", resolve_point)
        cfg = validate_config(tiny_config(sweep={"sigma_worker": [0.0, 1.0, 2.0]}))
        with pytest.raises(DivergenceError, match="point 1") as info:
            run_experiment(cfg, out_dir=str(tmp_path))
        assert info.value.iteration == 1
        assert multiprocessing.active_children() == []


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert "done" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("not json")
        assert cli_main(["--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, section, key", [
        ("simulate", "sim", "max_updates"),
        ("simulate", "sim", "sample_every"),
        ("run", "runtime", "max_updates"),
        ("run", "runtime", "sample_every"),
    ])
    def test_non_integer_horizon_exit_one(self, tmp_path, capsys, mode, section, key):
        doc = tiny_config(mode=mode)
        doc[section][key] = 12.5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, clash", [
        ({"algorithms": ["as-lbfgs", "a-sgd", "as-lbfgs"]},
         r"points \(as-lbfgs, sigma_worker 0.0\) and \(as-lbfgs, sigma_worker 0.0\) "
         r"would both write as-lbfgs_sigma-0_rep-0.csv"),
        ({"sweep": {"sigma_worker": [0, 0.0]}},
         r"points \(as-lbfgs, sigma_worker 0\) and \(as-lbfgs, sigma_worker 0.0\)"),
        ({"sweep": {"sigma_worker": [1.0000001, 1.0000002]}},
         r"\(as-lbfgs, sigma_worker 1.0000002\) would both write as-lbfgs_sigma-1_rep-0.csv"),
        ({"mode": "run", "sweep": {"workers": [1, 2, 1]}},
         r"points \(as-lbfgs, workers 1\) and \(as-lbfgs, workers 1\)"),
    ], ids=["repeated-algorithm", "zero-twice", "same-under-g", "run-mode"])
    def test_points_sharing_a_trace_file_exit_one(self, tmp_path, capsys, monkeypatch,
                                                  overrides, clash):
        # each used to run every point and exit 0, one trace overwriting
        # another's file
        forks = []
        monkeypatch.setattr(owners, "fork_children", lambda *args: forks.append(args))
        doc = tiny_config(**overrides)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: points (")
        assert re.search(clash, err)
        assert not out.exists()
        assert forks == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_two(self, tmp_path, capsys):
        doc = tiny_config()
        doc["sampler"]["step"] = 1e9
        doc["sampler"]["friction"] = 0.99
        doc["sim"]["max_updates"] = 5000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["--config", str(cfg_path), "--out",
                         str(tmp_path / "out")]) == 2
        assert "divergence" in capsys.readouterr().err

    def test_mode_and_seed_overrides(self, tmp_path):
        # the file's sweep applies only to the overriding mode; the checks
        # must see the configuration that runs
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(sweep={"workers": [1]})))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--mode", "run",
                         "--seed", "9", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "run"
        assert summary["base_seed"] == 9

    def test_worker_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        class FailingModel(LinearGaussianModel):
            def likelihood_grad_sum(self, theta, indices=None):
                raise ValueError("gradient unavailable")

        model, _, u_star = synth_linear_gaussian(0, 4, 30, 1.0)
        broken = FailingModel(model.features, model.targets, 1.0)
        monkeypatch.setattr(experiments, "build_problem", lambda cfg: (broken, u_star))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(mode="run")))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 3
        assert "ValueError: gradient unavailable" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_mode_divergence_exit_two_without_a_second_type(self, tmp_path, capsys):
        doc = tiny_config(mode="run")
        doc["sampler"].update(step=1e9, friction=0.99)
        doc["runtime"]["max_updates"] = 5000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: non-finite")
        assert "DivergenceError:" not in err
        assert os.listdir(out) == []

    def test_run_mode_worker_exit_three_without_a_second_type(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(experiments.rt, "_worker_main", lambda w, *args: os._exit(7))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(mode="run")))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("worker failed: worker exited with code 7")
        assert "WorkerError:" not in err
        assert os.listdir(out) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_parallel_sweep_matches_serial(self, tmp_path, capsys):
        # both a-sgd points diverge, at different updates; no point starts
        # after the first failure, so the as-lbfgs points never run
        doc = tiny_config(algorithms=["a-sgd", "as-lbfgs"], sweep={"sigma_worker": [0.0, 2.0]})
        doc["baselines"]["a-sgd"]["step"] = 1e9
        doc["sim"]["max_updates"] = 5000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        raised = {}
        for serial, cpus in ((True, one_cpu), (False, contextlib.nullcontext)):
            out = tmp_path / f"out-{serial}"
            with cpus():
                with pytest.raises(DivergenceError) as info:
                    run_experiment(validate_config(json.loads(cfg_path.read_text())),
                                   out_dir=str(out))
                raised[serial] = (type(info.value), str(info.value), info.value.iteration)
                assert os.listdir(out) == []
                assert multiprocessing.active_children() == []
                assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 2
            assert f"after update {info.value.iteration}" in capsys.readouterr().err
        assert raised[True] == raised[False]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="sweeps fork only on 2+ CPUs")
    def test_child_exit_without_report_exit_three(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        resolve_point = experiments._resolve_point

        def exits_in_child(*args):
            key, call = resolve_point(*args)

            def checked_call():
                if os.getpid() != parent:
                    os._exit(7)
                time.sleep(0.2)  # leaves the child time to take a point
                return call()
            return key, checked_call

        monkeypatch.setattr(experiments, "_resolve_point", exits_in_child)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(sweep={"sigma_worker": [0.0, 2.0]},
                                                   repetitions=2)))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "worker exited with code 7" in err
        assert "WorkerError:" not in err  # not wrapped in a second WorkerError
        assert os.listdir(out) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partial_outputs_removed_on_failure(self, tmp_path):
        doc = tiny_config(algorithms=["as-lbfgs", "a-sgd"])
        doc["baselines"]["a-sgd"]["step"] = 1e9
        doc["sim"]["max_updates"] = 5000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert [p for p in os.listdir(out) if p.endswith(".csv")] == []
