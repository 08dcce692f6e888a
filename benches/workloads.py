"""The four benchmark workloads: per-op input generation, the op itself and
its correctness oracle.

Every workload has the same shape. ``make_input(rng, i)`` builds op ``i``'s
inputs from a generator seeded by (workload seed, i); it runs outside the
timer. ``run(inp)`` is the timed op and goes through groupfx's public API
only. ``check(inp, result)`` returns a list of problems, empty when the
result is correct; it holds for any correct implementation, so it compares
against closed forms and independent numpy computations, never against the
bytes of a particular version. ``cleanup(inp)`` removes per-op files.

``cycle`` is the number of ops after which the input mix repeats; the runner
measures whole cycles so every run sees the same mix.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import groupfx

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "out"

APC_THRESHOLD = math.sqrt(2.0) / 2.0
# Sample correlation within the generated correlated group.
GROUP_RHO = 0.9

# Variables (1-based, = X column) of the four groups of the paper's mixing
# design, and its five cases.
SUITE_GROUPS = ((1, 2), (3, 4, 5), (6, 7), (8, 9, 10))
SUITE_CASES = (1, 2, 3, 4, 5)


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    """|a - b| within rtol of max(|a|, |b|, scale)."""
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def _write_csv(path: Path, y: np.ndarray, X: np.ndarray) -> None:
    """Write y and the predictors x1..xk with 17 significant digits, which
    round-trips every float64 exactly."""
    header = "y," + ",".join(f"x{j}" for j in range(1, X.shape[1] + 1))
    rows = np.column_stack([y, X]).tolist()
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _group_design(rng, n: int, p: int, n_indep: int):
    """One correlated group of p columns followed by n_indep independent
    columns, and a response with unit noise.

    The group has random signs and a shuffled set of unequal scales. Every
    column comes from one random orthonormal basis of mean-zero vectors, so
    the sample correlation within the group is exactly GROUP_RHO and the
    other predictors are exactly uncorrelated with it. The projected-gradient
    QP in optimal_effect runs a number of iterations that grows with the
    condition number of the group block; fixing that block keeps the work
    per op the same from seed to seed, so the code, not the draw, sets the
    time.
    """
    noise = rng.standard_normal((n, 1 + p + n_indep))
    basis, _ = np.linalg.qr(noise - noise.mean(axis=0))
    shared, own, indep = basis[:, :1], basis[:, 1:p + 1], basis[:, p + 1:]
    signs = rng.choice((-1.0, 1.0), size=p)
    scales = rng.permutation(np.geomspace(0.5, 2.0, p))
    group = math.sqrt(GROUP_RHO) * shared + math.sqrt(1.0 - GROUP_RHO) * own
    X = math.sqrt(n) * np.column_stack([signs * scales * group, indep])
    beta = rng.normal(0.0, 1.0, size=X.shape[1])
    y = 1.0 + X @ beta + rng.standard_normal(n)
    return y, X


class _Ols:
    """Independent reference least-squares fit of y on [1, X]."""

    def __init__(self, y: np.ndarray, X: np.ndarray):
        X1 = np.column_stack([np.ones(len(y)), X])
        self.beta, *_ = np.linalg.lstsq(X1, y, rcond=None)
        resid = y - X1 @ self.beta
        self.sigma2 = float(resid @ resid) / (X1.shape[0] - X1.shape[1])
        self.xtx_inv = np.linalg.inv(X1.T @ X1)

    def variance(self, c: np.ndarray) -> float:
        return self.sigma2 * float(c @ self.xtx_inv @ c)

    def se(self, j: int) -> float:
        return math.sqrt(self.sigma2 * self.xtx_inv[j, j])


def _apc_signs(X_group: np.ndarray) -> np.ndarray | None:
    """Signs of each column's correlation with the first one, when the first
    column meets the APC condition (the documented default anchor)."""
    R = np.corrcoef(X_group, rowvar=False)
    if np.all(np.abs(R[0, 1:]) > APC_THRESHOLD):
        return np.where(R[0] < 0.0, -1.0, 1.0)
    return None


def _makes_apc(signs: np.ndarray, X_group: np.ndarray) -> bool:
    """True when the signs turn every correlation in the group positive."""
    R = np.corrcoef(X_group * signs, rowvar=False)
    return bool(np.all(R > 0.0))


def _variability_weights(X_group: np.ndarray) -> np.ndarray:
    s = np.linalg.norm(X_group - X_group.mean(axis=0), axis=0)
    return s / s.sum()


def _components(R: np.ndarray, threshold: float) -> list[list[int]]:
    """Connected components of the |R| > threshold graph."""
    adj = np.abs(R) > threshold
    label = list(range(len(R)))
    for i, j in zip(*np.nonzero(adj)):
        a, b = label[i], label[j]
        if a != b:
            label = [a if v == b else v for v in label]
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(label):
        groups.setdefault(v, []).append(i)
    return sorted(groups.values())


def check_suite_reports(reports, seed: int, replicates: int, n: int, cases) -> list[str]:
    """Monte Carlo oracle: for every effect, the replicate mean is within 6
    Monte Carlo standard errors of the true effect and the replicate variance
    within 6 sqrt(2/(R-1)) relative of the exact sigma^2 w'(X'X)^{-1} w of the
    case's design. ``reports`` maps case number -> {label: (mean, variance)}."""
    problems = []
    var_band = 6.0 * math.sqrt(2.0 / (replicates - 1))
    for case in cases:
        config = groupfx.paper_case_config(case, seed=seed, replicates=replicates, n=n)
        X = groupfx.generate_design(config).X
        xtx_inv = np.linalg.inv(X.T @ X)
        beta = np.asarray(config.beta)
        weights = {}
        for k, cols in enumerate(SUITE_GROUPS, start=1):
            c = np.zeros(X.shape[1])
            c[list(cols)] = 1.0 / len(cols)
            weights[f"tau{k}"] = c
            c = np.zeros(X.shape[1])
            c[list(cols)] = _variability_weights(X[:, list(cols)])
            weights[f"tau{k}_w"] = c
        for j in range(X.shape[1]):
            weights["beta0" if j == 0 else f"beta{j}"] = np.eye(X.shape[1])[j]
        got = reports.get(case)
        if got is None or set(got) != set(weights):
            problems.append(f"case{case}: effects {sorted(got or ())} != {sorted(weights)}")
            continue
        for label, c in weights.items():
            mean, variance = got[label]
            exact = config.sigma2 * float(c @ xtx_inv @ c)
            truth = float(c @ beta)
            z = (mean - truth) / math.sqrt(exact / replicates)
            if not abs(z) <= 6.0:
                problems.append(f"case{case} {label}: mean {mean} is {z:.2f} SE from {truth}")
            if not abs(variance / exact - 1.0) <= var_band:
                problems.append(f"case{case} {label}: variance {variance} vs exact {exact}")
    return problems


class McSuite:
    """op = run_paper_suite(seed, replicates=1000, n=15): the Monte Carlo
    engine does nearly all the work."""

    name = "mc_suite"
    cycle = 1
    in_process = True
    replicates, n = 1000, 15

    def make_input(self, rng, i):
        return {"seed": int(rng.integers(2**31))}

    def run(self, inp, tracer=None):
        return groupfx.run_paper_suite(seed=inp["seed"], replicates=self.replicates, n=self.n)

    def check(self, inp, result) -> list[str]:
        reports = {}
        for rep in result.reports:
            case = int(rep.label.removeprefix("case"))
            reports[case] = {e.label: (e.mean, e.variance) for e in rep.effects}
        return check_suite_reports(reports, inp["seed"], self.replicates, self.n, SUITE_CASES)

    def cleanup(self, inp):
        pass


class EffectsSweep:
    """op = the full group-effect analysis of one fresh n=60 design with one
    correlated group of size p cycling 3..7 plus 5 independent predictors.
    The exhaustive sign search of optimal_effect dominates."""

    name = "effects_sweep"
    group_sizes = (3, 4, 5, 6, 7)
    cycle = len(group_sizes)
    in_process = True
    n, n_indep = 60, 5

    def make_input(self, rng, i):
        p = self.group_sizes[i % self.cycle]
        y, X = _group_design(rng, self.n, p, self.n_indep)
        data = groupfx.Dataset.from_columns(
            y, list(X.T), [f"x{j}" for j in range(1, X.shape[1] + 1)])
        return {"y": y, "X": X, "data": data, "group": list(range(1, p + 1))}

    def run(self, inp, tracer=None):
        g, data, group = groupfx, inp["data"], inp["group"]
        p = len(group)
        fit = g.fit_ols(data)
        groups = g.detect_groups(g.correlation(data, range(1, data.q)))
        corr = g.correlation(data, group)
        signs = g.apc_arrangement(corr)
        w = g.variability_weights(corr)
        individual = [g.estimate_effect(fit, [j], g.WeightVector.basis(1, 0)) for j in group]
        average = g.estimate_effect(fit, group, g.WeightVector.average(p), signs)
        weighted = g.estimate_effect(fit, group, w, signs)
        c = np.zeros(data.q)
        c[group] = signs.signs * w.weights
        silvey, _, _ = g.silvey_variance(fit, c)
        optimal = g.optimal_effect(fit, group)
        return {"groups": groups, "signs": signs.signs, "weights": w.weights,
                "individual": individual, "average": average, "weighted": weighted,
                "silvey": silvey, "optimal": optimal}

    def check(self, inp, res) -> list[str]:
        problems = []
        X, group = inp["X"], inp["group"]
        p = len(group)
        ols = _Ols(inp["y"], X)
        want_groups = _components(np.corrcoef(X, rowvar=False), APC_THRESHOLD)
        if sorted(sorted(gr) for gr in res["groups"]) != want_groups:
            problems.append(f"detect_groups {res['groups']} != {want_groups}")
        for j, est in zip(group, res["individual"]):
            se = ols.se(j)
            if not (_close(est.value, ols.beta[j], 1e-8, se) and _close(est.std_error, se, 1e-9)):
                problems.append(f"beta{j}: {est.value}±{est.std_error} vs {ols.beta[j]}±{se}")
        w = res["weights"]
        if not (np.all(w >= 0.0) and _close(w.sum(), 1.0, 1e-12)):
            problems.append(f"variability weights {w} are not on the simplex")
        signs = res["signs"]
        if not _makes_apc(signs, X[:, [j - 1 for j in group]]):
            problems.append(f"apc_arrangement signs {signs} leave a negative correlation")
        for label, est, weights in (("average", res["average"], np.full(p, 1.0 / p)),
                                    ("weighted", res["weighted"], w)):
            c = np.zeros(X.shape[1] + 1)
            c[group] = signs * weights
            var = ols.variance(c)
            if not (_close(est.value, float(c @ ols.beta), 1e-8, math.sqrt(var))
                    and _close(est.variance, var, 1e-9)):
                problems.append(f"{label} effect {est.value}±{est.variance} off")
        c = np.zeros(X.shape[1] + 1)
        c[group] = signs * w
        if not _close(res["silvey"], ols.variance(c), 1e-9):
            problems.append(f"silvey_variance {res['silvey']} vs {ols.variance(c)}")
        opt_signs, opt_w, opt_var = res["optimal"]
        G = np.linalg.inv(ols.xtx_inv[np.ix_(group, group)])
        S = np.array([(1.0,) + t for t in itertools.product((-1.0, 1.0), repeat=p - 1)])
        best = float(np.max(np.einsum("ij,jk,ik->i", S, G, S)))
        want = ols.sigma2 / best
        if not _close(opt_var, want, 1e-9):
            problems.append(f"optimal_effect variance {opt_var} vs {want}")
        if not opt_var <= res["weighted"].variance * (1.0 + 1e-12):
            problems.append("optimal_effect variance exceeds the weighted effect's")
        u = opt_w.weights
        if not (np.all(u >= -1e-12) and _close(u.sum(), 1.0, 1e-9) and opt_signs.signs[0] == 1.0):
            problems.append(f"optimal weights {u} / signs {opt_signs.signs} not normalized")
        return problems

    def cleanup(self, inp):
        pass


def _clr_geometry(sol_w, tau, c, candidates, rtol) -> list[str]:
    """Both candidates lie on the hyperplane w'b = tau and the sphere
    ||b||^2 = c."""
    problems = []
    if not (np.all(sol_w >= 0.0) and _close(sol_w.sum(), 1.0, rtol)):
        problems.append(f"clr weights {sol_w} are not on the simplex")
    for k, b in enumerate(candidates, start=1):
        if not _close(float(sol_w @ b), tau, rtol, float(np.abs(sol_w) @ np.abs(b))):
            problems.append(f"candidate {k}: w'b = {sol_w @ b} != tau_hat {tau}")
        if not _close(float(b @ b), c, rtol):
            problems.append(f"candidate {k}: ||b||^2 = {b @ b} != c {c}")
    return problems


class ClrCv:
    """op = load_csv of a fresh n=2000, 21-column CSV, fit_ols, then
    solve_clr_best_offset with 10-fold selection over 5 offsets."""

    name = "clr_cv"
    cycle = 1
    in_process = True
    n, p, n_indep = 2000, 4, 16
    offsets = (0.5, 1.0, 2.0, 4.0, 8.0)
    folds = 10

    def make_input(self, rng, i):
        y, X = _group_design(rng, self.n, self.p, self.n_indep)
        path = WORK_DIR / f"clr-{os.getpid()}-{i}.csv"
        _write_csv(path, y, X)
        return {"y": y, "X": X, "path": path, "group": list(range(1, self.p + 1)),
                "seed": int(rng.integers(2**31))}

    def run(self, inp, tracer=None):
        data = groupfx.load_csv(inp["path"], "y")
        fit = groupfx.fit_ols(data)
        sol = groupfx.solve_clr_best_offset(
            data, inp["group"], self.offsets, selection="kfold",
            n_folds=self.folds, seed=inp["seed"])
        return {"data": data, "fit": fit, "sol": sol}

    def check(self, inp, res) -> list[str]:
        problems = []
        y, X, group = inp["y"], inp["X"], inp["group"]
        data, fit, sol = res["data"], res["fit"], res["sol"]
        if not (np.array_equal(data.y, y) and np.array_equal(data.X[:, 1:], X)
                and np.all(data.X[:, 0] == 1.0)):
            return ["load_csv did not reproduce the written table"]
        ols = _Ols(y, X)
        scale = np.abs(ols.beta) + np.sqrt(ols.sigma2 * np.diag(ols.xtx_inv))
        if not np.all(np.abs(fit.beta_hat - ols.beta) <= 1e-8 * scale):
            problems.append("fit_ols coefficients differ from least squares")
        w, tau = sol.problem.w.weights, sol.problem.tau_hat
        problems += _clr_geometry(w, tau, sol.c, sol.candidates, 1e-8)
        signs = sol.signs.signs
        if not _makes_apc(signs, X[:, [j - 1 for j in group]]):
            problems.append(f"clr signs {signs} leave a negative correlation")
        want_tau = float(w @ (signs * ols.beta[group]))
        if not _close(tau, want_tau, 1e-8, float(w @ scale[group])):
            problems.append(f"tau_hat {tau} vs {want_tau}")
        scores = sol.diagnostics["scores"]
        if not np.array_equal(sol.chosen, sol.candidates[int(np.argmin(scores))]):
            problems.append("chosen candidate does not have the minimum score")
        if min(scores) != min(s for _, s in sol.diagnostics["offset_scores"]):
            problems.append("chosen offset does not have the minimum score")
        rest = [j for j in range(X.shape[1] + 1) if j not in group]
        if not np.all(np.abs(sol.full_beta[rest] - ols.beta[rest]) <= 1e-8 * scale[rest]):
            problems.append("full_beta differs from OLS outside the group")
        if not np.array_equal(sol.full_beta[group], signs * sol.chosen):
            problems.append("full_beta does not carry the chosen candidate")
        return problems

    def cleanup(self, inp):
        inp["path"].unlink(missing_ok=True)


def _uniform_rows(p: int, sigma2: float):
    """(r, average-effect variance, individual-effect variance) of the
    reference table's correlation grid, from the closed forms."""
    grid = [0.0] + [k / (k + 1.0) for k in range(1, 10)] + [0.999]
    return [(r, sigma2 / (p + p * (p - 1) * r),
             sigma2 * (1.0 + (p - 2) * r) / ((1.0 - r) * (1.0 + (p - 1) * r)))
            for r in grid]


class CliCold:
    """op = one fresh ``python -m groupfx.cli`` process, cycling through
    uniform, analyze, clr (k-fold) and simulate. Interpreter start and the
    import of groupfx.cli are paid on every op, as CLI users pay them."""

    name = "cli_cold"
    kinds = ("uniform", "analyze", "clr", "simulate")
    cycle = len(kinds)
    in_process = False
    n, p, n_indep = 200, 3, 5
    sim_replicates = 200
    # Every repeat_every-th op is run a second time, untimed, and must print
    # the same bytes; 7 is coprime to the cycle, so every kind takes turns.
    repeat_every = 7
    child_timeout_s = 120.0

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.peak_rss_kb = 0
        self.child_meta: list[dict] = []
        self.entry = HERE / "cli_entry.py"

    def make_input(self, rng, i):
        kind = self.kinds[i % self.cycle]
        inp = {"kind": kind, "i": i}
        if kind == "uniform":
            inp["sigma2"] = float(rng.uniform(0.5, 2.0))
            inp["argv"] = ["uniform", "--p", "8", "--sigma2", repr(inp["sigma2"])]
        elif kind in ("analyze", "clr"):
            inp["y"], inp["X"] = _group_design(rng, self.n, self.p, self.n_indep)
            inp["path"] = WORK_DIR / f"cli-{os.getpid()}-{i}.csv"
            _write_csv(inp["path"], inp["y"], inp["X"])
            members = ",".join(f"x{j}" for j in range(1, self.p + 1))
            inp["argv"] = [kind, "--csv", str(inp["path"]), "--response", "y",
                           "--group", members]
            if kind == "clr":
                inp["argv"] += ["--select", "kfold", "--seed", str(int(rng.integers(2**31)))]
        else:
            inp["seed"] = int(rng.integers(2**31))
            inp["argv"] = ["simulate", "--case", "3", "--replicates",
                           str(self.sim_replicates), "--seed", str(inp["seed"])]
        return inp

    def spawn(self, argv: list[str], entry_args: list[str] | None = None):
        """Run one CLI process to completion; return (exit code, stdout,
        stderr). Tracks the largest child's peak resident memory."""
        if entry_args is None:
            cmd = [sys.executable, "-m", "groupfx.cli", *argv]
        else:
            cmd = [sys.executable, str(self.entry), *entry_args, *argv]
        err_path = WORK_DIR / f"stderr-{os.getpid()}.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(self.child_timeout_s, proc.kill)
            timer.start()
            try:
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        err_text = err_path.read_text(errors="replace")
        err_path.unlink()
        return proc.returncode, out, err_text

    def run(self, inp, tracer=None):
        if tracer is None:
            return self.spawn(inp["argv"])
        spans_path = WORK_DIR / f"spans-{os.getpid()}.json"
        result = self.spawn(inp["argv"], [repr(time.perf_counter()), str(spans_path)])
        if result[0] == 0:
            child = json.loads(spans_path.read_text())
            tracer.spans.extend((inp["i"], *span[1:]) for span in child["spans"])
            self.child_meta.append(child["meta"])
        spans_path.unlink(missing_ok=True)
        return result

    def check(self, inp, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"{inp['kind']}: exit {code}: {err.strip()[-300:]}"]
        try:
            problems = getattr(self, f"_check_{inp['kind']}")(inp, out.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{inp['kind']}: output does not parse: {exc!r}"]
        if inp["i"] % self.repeat_every == 0:
            again = self.spawn(inp["argv"])
            if again[1] != out:
                problems.append(f"{inp['kind']}: a repeated run printed different bytes")
        return problems

    @staticmethod
    def _csv_rows(text: str, header: tuple) -> list[list[str]]:
        rows = list(csv.reader(io.StringIO(text)))
        if tuple(rows[0]) != header:
            raise ValueError(f"header {rows[0]}")
        return rows[1:]

    def _check_uniform(self, inp, text):
        rows = self._csv_rows(text, ("r", "var_avg", "var_indiv"))
        want = _uniform_rows(8, inp["sigma2"])
        if len(rows) != len(want):
            return [f"uniform: {len(rows)} rows, want {len(want)}"]
        return [f"uniform: row {row} vs {ref}" for row, ref in zip(rows, want)
                if not all(_close(float(v), r, 1e-6, 1e-12) for v, r in zip(row, ref))]

    def _check_analyze(self, inp, text):
        rows = self._csv_rows(text, ("effect", "estimate", "std_error", "t", "p"))
        X, group = inp["X"], list(range(1, self.p + 1))
        ols = _Ols(inp["y"], X)
        names = ["intercept"] + [f"x{j}" for j in range(1, X.shape[1] + 1)]
        want = {name: (ols.beta[j], ols.se(j)) for j, name in enumerate(names)}
        signs = _apc_signs(X[:, [j - 1 for j in group]])
        members = ",".join(names[j] for j in group)
        if signs is not None:
            for label, w in ((f"tau_a({members})", np.full(self.p, 1.0 / self.p)),
                             (f"tau_w({members})", _variability_weights(X[:, :self.p]))):
                c = np.zeros(X.shape[1] + 1)
                c[group] = signs * w
                want[label] = (float(c @ ols.beta), math.sqrt(ols.variance(c)))
        got = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        problems = [f"analyze: effects {sorted(got)} lack {sorted(set(want) - set(got))}"
                    ] if not set(want) <= set(got) else []
        for label, (value, se) in want.items():
            if label in got and not (_close(got[label][0], value, 1e-6, se)
                                     and _close(got[label][1], se, 1e-6)):
                problems.append(f"analyze: {label} {got[label]} vs {(value, se)}")
        return problems

    def _check_clr(self, inp, text):
        out = json.loads(text)
        X, group = inp["X"], list(range(1, self.p + 1))
        w = np.asarray(out["weights"])
        candidates = [np.asarray(c) for c in out["candidates"]]
        problems = _clr_geometry(w, out["tau_hat"], out["c"], candidates, 1e-6)
        scores = out["diagnostics"]["scores"]
        if out["chosen"] != out["candidates"][int(np.argmin(scores))]:
            problems.append("clr: chosen candidate does not have the minimum score")
        ols = _Ols(inp["y"], X)
        names = ["intercept"] + [f"x{j}" for j in range(1, X.shape[1] + 1)]
        for j, name in enumerate(names):
            if j not in group and not _close(out["full_beta"][name], ols.beta[j], 1e-6, ols.se(j)):
                problems.append(f"clr: full_beta[{name}] {out['full_beta'][name]} vs OLS {ols.beta[j]}")
        return problems

    def _check_simulate(self, inp, text):
        rows = self._csv_rows(text, ("case", "effect", "mean", "variance"))
        got = {row[1]: (float(row[2]), float(row[3])) for row in rows if row[0] == "case3"}
        if len(got) != len(rows):
            return [f"simulate: rows for cases other than case3: {len(rows) - len(got)}"]
        return check_suite_reports({3: got}, inp["seed"], self.sim_replicates, 15, (3,))

    def cleanup(self, inp):
        if "path" in inp:
            inp["path"].unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (McSuite, EffectsSweep, ClrCv, CliCold)}
