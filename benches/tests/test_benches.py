"""Self-tests of the benchmark: tracer transparency, repeatable work counts,
oracles that reject perturbed results, and self times that cover the op.

Run from the repository root:  python -m pytest -q benches/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import groupfx  # noqa: E402
import groupfx.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from groupfx import SingularDesignError  # noqa: E402

WORK_COUNTS = ("sim.replicates", "effects.optimal_effect.sign_vectors", "clr.fold_refits",
               "linmod.fit_ols.rows", "linmod.fit_ols.calls", "sim.run_case.calls",
               "effects.optimal_effect.calls", "clr.solve_clr.calls")


@pytest.fixture(autouse=True, scope="module")
def work_dir():
    workloads.WORK_DIR.mkdir(exist_ok=True)


def _dataset(n=40, p=3, seed=0):
    y, X = workloads._group_design(np.random.default_rng(seed), n, p, 2)
    return groupfx.Dataset.from_columns(y, list(X.T), [f"x{j}" for j in range(1, X.shape[1] + 1)])


def _module_bindings():
    """Every (namespace, key) -> object binding the tracer may rebind."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "groupfx" or name.startswith("groupfx."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
                if isinstance(val, dict) and not key.startswith("__"):
                    for k2, v2 in val.items():
                        out[(name, key, k2)] = v2
    return out


# --- tracer -----------------------------------------------------------------

def test_wrappers_return_the_same_values():
    data = _dataset()
    plain_fit = groupfx.fit_ols(data)
    plain_opt = groupfx.optimal_effect(plain_fit, [1, 2, 3])
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        fit = groupfx.fit_ols(data)
        opt = groupfx.optimal_effect(fit, [1, 2, 3])
    finally:
        tr.uninstall()
    assert np.array_equal(fit.beta_hat, plain_fit.beta_hat)
    assert np.array_equal(fit.xtx_inv, plain_fit.xtx_inv)
    assert np.array_equal(opt[0].signs, plain_opt[0].signs)
    assert np.array_equal(opt[1].weights, plain_opt[1].weights)
    assert opt[2] == plain_opt[2]
    assert [s[3] for s in tr.spans] == ["linmod.fit_ols", "effects.optimal_effect"]


def test_wrappers_raise_the_same_exceptions():
    tiny = groupfx.Dataset.from_columns(
        np.arange(3.0), [np.array([1.0, 2.0, 4.0]), np.array([0.0, 1.0, 3.0])], ["a", "b"])
    with pytest.raises(SingularDesignError) as plain:
        groupfx.fit_ols(tiny)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        with pytest.raises(SingularDesignError) as traced:
            groupfx.fit_ols(tiny)
    finally:
        tr.uninstall()
    assert str(traced.value) == str(plain.value)
    (span,) = tr.spans
    assert span[3] == "linmod.fit_ols" and span[7] is True and span[8] is None


def test_install_reaches_every_binding_and_uninstall_restores_it():
    before = _module_bindings()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        for mod in (groupfx, groupfx.linmod, groupfx.sim, groupfx.clr, groupfx.cli):
            assert mod.fit_ols.__wrapped__ is before[("groupfx.linmod", "fit_ols")]
        assert groupfx.cli._RUNNERS["clr"].__wrapped__ is before[("groupfx.cli", "run_clr")]
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    after = _module_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_internal_calls_nest_under_their_caller():
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        groupfx.run_case(groupfx.paper_case_config(1, replicates=20))
    finally:
        tr.uninstall()
    by_id = {s[1]: s for s in tr.spans}
    (case,) = [s for s in tr.spans if s[3] == "sim.run_case"]
    fits = [s for s in tr.spans if s[3] == "linmod.fit_ols"]
    assert fits and all(by_id[s[2]] is case for s in fits)
    assert case[8] == {"sim.replicates": 20}


def test_layer_metrics_split_self_time_from_nested_time():
    spans = [
        (0, 1, 0, "sim.run_case", 2.0, 8.0, 1.0, False, {"sim.replicates": 10}),
        (0, 2, 1, "linmod.fit_ols", 3.0, 4.0, 0.0, False, {"linmod.fit_ols.rows": 15}),
        (0, 0, None, "sim.run_paper_suite", 0.0, 10.0, 6.0, False,
         {"sim.suite_checks_failed": 1}),
    ]
    m = tracer_mod.layer_metrics(spans, 2, {"trace.overhead_frac": 0.01})
    assert m["sim.self_ms"] == pytest.approx((5.0 + 4.0) * 1e3 / 2)
    assert m["linmod.self_ms"] == pytest.approx(1.0 * 1e3 / 2)
    assert m["sim.run_case.self_ms"] == pytest.approx(5.0 * 1e3 / 2)
    assert m["sim.calls"] == 1.0 and m["linmod.fit_ols.calls"] == 0.5
    assert m["sim.us_per_replicate"] == pytest.approx(5.0 * 1e6 / 10)
    assert m["sim.suite_checks_failed"] == 0.5
    assert m["trace.overhead_frac"] == 0.01
    assert list(m) == tracer_mod.metric_names()


# --- work counts and coverage -------------------------------------------------

def _traced_ops(workload, n_ops, seed=3):
    tr = tracer_mod.Tracer()
    records = [run.run_op(workload, seed, i, tr) for i in range(n_ops)]
    assert all(not r.problems for r in records), [r.problems for r in records]
    return tr, records


@pytest.mark.parametrize("make, n_ops, expected", [
    (workloads.McSuite, 1,
     {"sim.replicates": 5000, "sim.run_case.calls": 5, "linmod.fit_ols.rows": 75}),
    (workloads.EffectsSweep, 5,
     {"effects.optimal_effect.sign_vectors": (4 + 8 + 16 + 32 + 64) / 5,
      "effects.optimal_effect.calls": 1, "linmod.fit_ols.rows": 60}),
    (workloads.ClrCv, 1,
     {"clr.fold_refits": 100, "clr.solve_clr.calls": 5, "linmod.fit_ols.rows": 4000}),
])
def test_work_counts_repeat_exactly(make, n_ops, expected):
    def counts():
        tr, _ = _traced_ops(make(), n_ops)
        metrics = tracer_mod.layer_metrics(tr.spans, n_ops, {})
        return {k: metrics[k] for k in WORK_COUNTS}

    first = counts()
    assert counts() == first
    assert {k: first[k] for k in expected} == expected


@pytest.mark.parametrize("make, n_ops", [
    (workloads.McSuite, 2), (workloads.EffectsSweep, 5),
    (workloads.ClrCv, 1)])
def test_self_times_cover_the_op(make, n_ops):
    tr, records = _traced_ops(make(), n_ops)
    for i, record in enumerate(records):
        covered = sum(s[5] - s[4] - s[6] for s in tr.spans if s[0] == i)
        assert 0.85 * record.seconds <= covered <= record.seconds


def test_traced_cli_ops_pass_and_count():
    wl = workloads.CliCold()
    tr, records = _traced_ops(wl, 4, seed=5)
    metrics = tracer_mod.layer_metrics(tr.spans, 4, {})
    assert metrics["cli.calls"] == 4  # main, parse_args, run_<cmd>, render_report
    assert metrics["sim.replicates"] == 200 / 4
    assert metrics["clr.fold_refits"] == 10 / 4
    assert metrics["cli.output_bytes"] > 0
    assert len(wl.child_meta) == 4
    assert all(m["import_ms"] > 0 and m["interpreter_ms"] > 0 for m in wl.child_meta)


# --- oracles -------------------------------------------------------------------

def _run(workload, i, seed=7):
    inp = workload.make_input(np.random.default_rng([seed, i]), i)
    return inp, workload.run(inp)


def test_mc_suite_oracle_rejects_perturbed_results():
    wl = workloads.McSuite()
    inp, res = _run(wl, 0)
    assert wl.check(inp, res) == []

    def perturb(scale_var=1.0, shift_se=0.0):
        rep = res.reports[2]
        eff = rep.effects[0]
        bad = dataclasses.replace(
            eff, variance=eff.variance * scale_var,
            mean=eff.mean + shift_se * (eff.variance / rep.replicates) ** 0.5)
        bad_rep = dataclasses.replace(rep, effects=(bad,) + rep.effects[1:])
        reports = res.reports[:2] + (bad_rep,) + res.reports[3:]
        return dataclasses.replace(res, reports=reports)

    assert wl.check(inp, perturb(scale_var=2.0))
    assert wl.check(inp, perturb(shift_se=10.0))
    dropped = dataclasses.replace(res, reports=res.reports[:4])
    assert wl.check(inp, dropped)


def test_effects_oracle_rejects_perturbed_results():
    wl = workloads.EffectsSweep()
    inp, res = _run(wl, 3)  # p = 6
    assert wl.check(inp, res) == []
    signs, weights, var = res["optimal"]
    for bad in ({"optimal": (signs, weights, var * 1.01)},
                {"silvey": res["silvey"] * 1.01},
                {"weighted": dataclasses.replace(res["weighted"],
                                                 variance=res["weighted"].variance * 1.01)},
                {"groups": [[0], *res["groups"]]},
                {"signs": np.ones_like(res["signs"])}):
        assert wl.check(inp, {**res, **bad}), bad


def test_clr_oracle_rejects_perturbed_results():
    wl = workloads.ClrCv()
    inp, res = _run(wl, 0)
    try:
        assert wl.check(inp, res) == []
        sol = res["sol"]
        other = sol.candidates[1] if sol.chosen is sol.candidates[0] else sol.candidates[0]
        beta = sol.full_beta.copy()
        beta[-1] *= 1.01
        for bad in (dataclasses.replace(sol, chosen=other),
                    dataclasses.replace(sol, candidates=(sol.candidates[0] * 1.01,
                                                         sol.candidates[1])),
                    dataclasses.replace(sol, full_beta=beta)):
            assert wl.check(inp, {**res, "sol": bad})
    finally:
        wl.cleanup(inp)


def _scale_csv_field(text, row, col, factor):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = f"{float(fields[col]) * factor:.8g}"
    lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def test_cli_oracle_rejects_perturbed_results():
    wl = workloads.CliCold()
    # Op indices 4, 1, 2, 3 are uniform, analyze, clr and simulate; none is a
    # repeat-check index.
    # (row, column, factor) of one printed value to perturb. The simulate
    # band at 200 replicates is +-60%, so its variance is tripled.
    cases = {4: (1, 1, 1.01), 1: (2, 1, 1.01), 3: (2, 3, 3.0)}
    for i in (4, 1, 2, 3):
        inp, (code, out, err) = _run(wl, i)
        try:
            assert wl.check(inp, (code, out, err)) == [], inp["kind"]
            assert wl.check(inp, (1, out, err))
            assert wl.check(inp, (0, b"not a table", err))
            text = out.decode()
            if i in cases:
                assert wl.check(inp, (0, _scale_csv_field(text, *cases[i]), err))
            else:
                doc = json.loads(text)
                doc["candidates"][0] = [v * 1.01 for v in doc["candidates"][0]]
                assert wl.check(inp, (0, json.dumps(doc).encode(), err))
        finally:
            wl.cleanup(inp)


# --- the command ----------------------------------------------------------------

def test_command_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "effects_sweep",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
        assert {m: (v["unit"]) for m, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]}


def test_command_fails_without_the_library(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "mc_suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
