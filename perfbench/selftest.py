"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the default test collection (the file name does not match
``test_*.py``) because the smoke run takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wk  # noqa: E402
from asqn import DivergenceError, SamplerConfig, SimConfig, run_async, time_to_epsilon  # noqa: E402
from asqn.experiments import synth_linear_gaussian  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "references.json").read_text())


def _json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_prints_the_names_in_benchmark_json():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = _json_lines(proc.stdout)
    assert {r["workload"] for r in results} == {w["name"] for w in BENCH["workloads"]}
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert len(results) == 2 * len(BENCH["workloads"])
    for r in results:
        assert r["correct"] and r["attempted"] >= 1
        units = {name: m["unit"] for name, m in r["metrics"].items()}
        assert units in (end_to_end, per_layer)
        assert all(math.isfinite(m["value"]) for m in r["metrics"].values())
    assert {tuple(r["metrics"]) == tuple(end_to_end) for r in results} == {True, False}


def test_traced_run_is_identical_restores_wrappers_and_counts_exactly():
    wl = wk.WORKLOADS["lg-async-sim"]
    ctx = wl.setup(wl.params, "")
    plain = wl.run(ctx, 0)
    before = tr.bindings()
    tracer = tr.Tracer()
    with tracer:
        traced = wl.run(ctx, 0)
    after = tr.bindings()
    assert traced.record == plain.record
    assert traced.quality == plain.quality
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    layer = tr.layer_metrics(tracer.spans)
    assert layer["model.grad_calls_per_update"] == 4
    assert layer["lbfgs.apply_calls_per_update"] == 2
    assert layer["model.grad_rows_per_update"] == 40 + 20 + 20 + 20


def _lg_direct(seed):
    model, _, u_star = synth_linear_gaussian(0, 100, 600, 10.0, correlation=3.0)
    sampler = SamplerConfig(step=4e-4, friction=3e-2, inv_temperature=5e2,
                            memory_size=3, n_s=40, n_o=20)
    sim = SimConfig(workers=10, mu_worker=160.0, comm_time=10.0, max_updates=600,
                    sample_every=25, seed=seed)
    return model, u_star, run_async(sim, sampler, model, algo="as-lbfgs")


@pytest.mark.parametrize("seed", [0, 5])
def test_stored_reference_equals_a_direct_library_call(seed):
    assert REFS["lg-async-sim"]["fingerprint"] == wk.fingerprint(wk.LG_ASYNC)
    model, u_star, res = _lg_direct(seed)
    assert REFS["lg-async-sim"]["runs"][str(seed)]["trace"] == wk.digest(wk.trace_rows(res.trace))
    out = wk.WORKLOADS["lg-async-sim"].run(wk._lg_setup(wk.LG_ASYNC, ""), seed)
    assert out.quality["time_to_eps_vt"] == time_to_epsilon(res.trace, u_star, wk.EPS)
    assert out.quality["final_rel_gap"] == (res.trace[-1].potential - u_star) / u_star


def test_known_matrix_factorization_divergence():
    """The demo's admission threshold still diverges on sub-seed 7 (README,
    "Known defect"); the workload's raised one does not, and matches its
    stored reference."""
    ctx = wk._mf_setup(wk.MF_ASYNC, "")
    demo = SamplerConfig(**{**wk.MF_ASYNC["sampler"], "epsilon": 0.1})
    sim = SimConfig(seed=7, **wk.MF_ASYNC["sim"])
    with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
        run_async(sim, demo, ctx["model"], algo="as-lbfgs", theta0=ctx["theta0"])
    assert info.value.iteration == 166
    out = wk.WORKLOADS["mf-async-sim"].run(ctx, 7)
    assert out.error is None
    assert REFS["mf-async-sim"]["runs"]["7"] == out.record


def test_compare_applies_the_tolerance():
    ref = wk.digest([[1.0, 2.0], [3.0, 4.0]])
    close = wk.digest([[1.0, 2.0], [3.0, 4.0 * (1 + 1e-12)]])
    far = wk.digest([[1.0, 2.0], [3.0, 4.0 * (1 + 1e-6)]])
    assert close != ref
    assert wk.compare(ref, close, wk.RTOL) is None
    assert wk.compare(ref, far, wk.RTOL)
    assert wk.compare({"diverged_at": 556.0}, {"diverged_at": 557.0}, wk.RTOL)
    assert wk.compare({"diverged_at": 556.0}, {"trace": ref}, wk.RTOL)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lg-async-sim",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not _json_lines(proc.stdout)

