"""Command-line interface.

Four subcommands: ``uniform`` (closed-form variance tables for the
equicorrelated model), ``analyze`` (group-effect table for a CSV dataset),
``simulate`` (the Monte Carlo cases), and ``clr`` (constrained local
regression). Output is CSV or JSON with floats rendered to 8 significant
digits; all randomness flows from ``--seed`` (default 0), so identical
invocations produce byte-identical output at a fixed BLAS thread count.
Across thread counts the printed digits of the paper suite and of a k-fold
``clr`` run match too, but the raw float bits of a tall fit (n in the
thousands) can differ in their last place, so a value on a rounding
boundary of its eighth digit could print differently.

Each option has one name: its argparse dest, which is also its ``--config``
key and its key in :attr:`RunConfig.options`.

Exit status: 0 on success, 1 on data/runtime errors, 2 on usage errors.
Every exit-1 error, a file or memory error included, prints one JSON object
on stderr. The library states each parameter's valid range; a value it
rejects under the name of one of the subcommand's options is a usage error
that names the flag the value came from.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import clr as clr_mod
from . import sim as sim_mod
from .effects import WeightVector, apc_arrangement, estimate_effect, variability_weights
from .exceptions import GroupFxError, UsageError
from .linmod import Dataset, correlation, fit_ols, load_csv
from .uniform import TABLE1_R_VALUES, table1

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.8g}"
    return str(x)


def _round8(obj):
    """Recursively round floats to 8 significant digits for stable output.
    An inf or NaN is an error: strict JSON has no such number, and a CSV
    reader would take it for data."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(f"{float(obj):.8g}")
        if not math.isfinite(x):
            raise GroupFxError("the result holds a non-finite number (inf or nan); "
                               "an input is too large or too degenerate for float64")
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round8(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _round8(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round8(v) for v in obj]
    return obj


@dataclass
class RunConfig:
    """Parsed invocation: one subcommand plus its options.

    ``options`` is keyed by each option's dest, which is also its config
    key, and holds the merged, typed value (flag > config file > default).
    ``group`` holds one list of member tokens per group and ``c_offset`` a
    list of numbers; ``r_values``, the correlation levels of ``uniform``, is
    the one key that no option has."""

    subcommand: str
    options: dict
    # the flag of each option by its dest, and of each library parameter that
    # stands for an option by the parameter's name
    _flags: dict = field(repr=False)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser, plus each subcommand's (flag action, default) by
    dest. Flags parse to None when absent, so a config-file value can stand
    in for them, checked with the flag's own type and choices."""
    parser = argparse.ArgumentParser(
        prog="groupfx",
        description="Estimable group effects for strongly correlated predictors.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    actions: dict[str, dict[str, tuple[argparse.Action, object]]] = {}

    def add(sp, *names, default=None, **kwargs):
        action = sp.add_argument(*names, default=None, **kwargs)
        actions.setdefault(sp.prog.split()[-1], {})[action.dest] = (action, default)

    def common(sp, fmt="csv"):
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        add(sp, "--format", choices=("csv", "json"), default=fmt)
        add(sp, "--out", help="output path (default: stdout)")

    sp = sub.add_parser("uniform", help="closed-form uniform-model variances")
    add(sp, "--p", type=int, default=8)
    add(sp, "--r", type=float)
    add(sp, "--r-list", dest="r_list",
        help="comma-separated correlation levels")
    add(sp, "--sigma2", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("analyze", help="group-effect table for a CSV dataset")
    add(sp, "--csv")
    add(sp, "--response")
    add(sp, "--group", action="append", default=[],
        help="comma-separated predictor names or 1-based positions; repeatable")
    add(sp, "--anchor",
        help="anchor variable (name or 1-based position)")
    common(sp)

    sp = sub.add_parser("simulate", help="Monte Carlo simulation cases")
    add(sp, "--case", type=int, choices=(1, 2, 3, 4, 5))
    add(sp, "--paper-suite", dest="paper_suite", action="store_true",
        default=False, help="run all five cases plus invariant checks")
    add(sp, "--w1", type=float)
    add(sp, "--w2", type=float)
    add(sp, "--replicates", type=int, default=1000)
    add(sp, "--n", type=int, default=15)
    add(sp, "--seed", type=int, default=0)
    common(sp)

    sp = sub.add_parser("clr", help="constrained local regression")
    add(sp, "--csv")
    add(sp, "--response")
    add(sp, "--group", action="append", default=[])
    add(sp, "--anchor")
    add(sp, "--c-offset", dest="c_offset", default=3.0,
        help="squared-radius offset; a comma-separated list "
             "triggers a grid search")
    add(sp, "--select", choices=("min-rss", "kfold"), default="min-rss")
    add(sp, "--folds", type=int, default=5)
    add(sp, "--seed", type=int, default=0)
    common(sp, fmt="json")

    return parser, actions


# Options whose config value may also be a JSON list (a repeated --group, or
# the values of a comma-separated flag).
_LIST_OPTIONS = ("group", "r_list", "c_offset")
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _config_value(key: str, value, action: argparse.Action):
    """Check a config-file value as its flag's type and choices would check
    the flag's text; JSON null counts as absent and is handled by the
    caller. Raises :class:`UsageError` naming the key."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise UsageError(f"--config: {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(value, (list, tuple)) and key in _LIST_OPTIONS:
        if any(isinstance(v, bool) for v in value):
            raise UsageError(f"--config: {key!r} entries cannot be true or false, got {value!r}")
        return value
    convert = action.type or str
    bad_type = f"--config: {key!r} must be {_TYPE_NAMES[convert]}, got {value!r}"
    if isinstance(value, (bool, list, dict)):
        raise UsageError(bad_type)
    if convert is int and isinstance(value, float) and value.is_integer():
        value = int(value)  # JSON writers may emit 10 as 10.0
    try:
        value = convert(str(value))
    except ValueError:
        raise UsageError(bad_type) from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise UsageError(f"--config: {key!r} must be one of {choices}, got {value!r}")
    return value


def _merge(ns: argparse.Namespace, actions: dict) -> dict:
    """Resolve options as: explicit flag > config file > built-in default.
    Config values are checked like the flags they stand in for, and a config
    key that is not an option of the subcommand is a usage error."""
    cfg = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"--config: cannot read {ns.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("--config: file must contain a JSON object")
        for key in cfg:
            if key not in actions:
                raise UsageError(f"--config: {key!r} is not an option of {ns.subcommand}")

    merged = {}
    for key, (action, default) in actions.items():
        flag = getattr(ns, key)
        if flag is not None and flag != []:
            merged[key] = flag
        elif cfg.get(key) is not None:
            merged[key] = _config_value(key, cfg[key], action)
        else:
            merged[key] = default
    return merged


def _parse_floats(raw, flag: str) -> list[float]:
    """Numbers from a comma-separated string or a JSON list."""
    if isinstance(raw, (list, tuple)):
        tokens = raw
    else:
        tokens = [tok for tok in str(raw).split(",") if tok.strip() != ""]
    try:
        vals = [float(tok) for tok in tokens]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{flag}: non-numeric entry in {raw!r}") from exc
    if not vals:
        raise UsageError(f"{flag}: no values given")
    return vals


def _parse_groups(raw_groups) -> list[list[str]]:
    # Empty groups pass through; they fail downstream as a data error
    # (exit 1) rather than a usage error.
    if isinstance(raw_groups, str):
        raw_groups = [raw_groups]
    groups = []
    for raw in raw_groups:
        if isinstance(raw, (list, tuple)):
            tokens = [str(t) for t in raw]
        else:
            tokens = [t.strip() for t in str(raw).split(",") if t.strip() != ""]
        groups.append(tokens)
    return groups


# The options that no default can stand in for, and what each names.
_REQUIRED = {"csv": "an input file", "response": "a response column name"}


def parse_args(argv=None) -> RunConfig:
    """Parse the command line into a :class:`RunConfig`.

    Raises :class:`UsageError` (exit status 2) on a missing, conflicting or
    malformed option; argparse itself exits with status 2 on malformed
    flags. Values are range-checked by the library when the subcommand runs.
    """
    parser, actions = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required: uniform, analyze, simulate or clr")

    actions = actions[ns.subcommand]
    opts = _merge(ns, actions)
    flags = {dest: action.option_strings[0] for dest, (action, _) in actions.items()}
    for dest, what in _REQUIRED.items():
        if dest in opts and not opts[dest]:
            raise UsageError(f"{flags[dest]}: {what} is required")
    if "group" in opts:
        opts["group"] = _parse_groups(opts["group"] or [])

    if ns.subcommand == "uniform":
        if opts["r"] is not None and opts["r_list"] is not None:
            raise UsageError("--r and --r-list are mutually exclusive")
        if opts["r"] is not None:
            opts["r_values"] = [opts["r"]]
        elif opts["r_list"] is not None:
            opts["r_values"] = _parse_floats(opts["r_list"], "--r-list")
            flags["r"] = flags["r_list"]
        else:
            opts["r_values"] = list(TABLE1_R_VALUES)

    elif ns.subcommand == "simulate":
        if opts["case"] is None and not opts["paper_suite"]:
            if opts["w1"] is None or opts["w2"] is None:
                raise UsageError("--case: choose a case 1..5, --paper-suite, "
                                 "or give both --w1 and --w2")
        if opts["paper_suite"] and opts["case"] is not None:
            raise UsageError("--case and --paper-suite are mutually exclusive")
        if opts["paper_suite"] and (opts["w1"] is not None or opts["w2"] is not None):
            raise UsageError("--w1 and --w2 do not apply to --paper-suite")

    elif ns.subcommand == "clr":
        if len(opts["group"]) != 1:
            raise UsageError("--group: exactly one group is required")
        opts["c_offset"] = _parse_floats(opts["c_offset"], "--c-offset")
        flags["n_folds"] = flags["folds"]

    return RunConfig(ns.subcommand, opts, flags)


def _resolve_columns(data: Dataset, tokens, flag: str) -> list[int]:
    """Map predictor names or 1-based positions to X column indices. With
    the explicit intercept at column 0, 1-based predictor k is column k."""
    indices = []
    for tok in tokens:
        if tok in data.names:
            j = data.names.index(tok)
        else:
            try:
                pos = int(tok)
            except ValueError:
                raise UsageError(
                    f"{flag}: {tok!r} is neither a column name nor an index"
                ) from None
            j = pos if data.has_intercept else pos - 1
            if not (0 <= j < data.q) or pos < 1:
                raise UsageError(f"{flag}: predictor index {pos} out of range")
        if j == 0 and data.has_intercept:
            raise UsageError(f"{flag}: the intercept cannot be a group member")
        indices.append(j)
    if len(set(indices)) != len(indices):
        raise UsageError(f"{flag}: indices must be distinct")
    return indices


def _resolve_anchor(data: Dataset, idx: list[int], token) -> int | None:
    """Position within the group of the ``--anchor`` column, or None when
    no anchor is given."""
    if token is None:
        return None
    a_col = _resolve_columns(data, [token], "--anchor")[0]
    if a_col not in idx:
        raise UsageError("--anchor: anchor must belong to the group")
    return idx.index(a_col)


# Each runner returns a report: a list of CSV tables, each a (header, rows)
# pair, and the JSON document without its schema_version. The document holds
# every number in the tables, so checking it checks both formats.

def run_uniform(config: RunConfig) -> tuple[list, dict]:
    opts = config.options
    rows = table1(opts["p"], opts["r_values"], sigma2=opts["sigma2"])
    doc = {
        "p": opts["p"],
        "table": [{"r": r, "var_avg": a, "var_indiv": i} for r, a, i in rows],
    }
    return [(("r", "var_avg", "var_indiv"), rows)], doc


def run_analyze(config: RunConfig) -> tuple[list, dict]:
    opts = config.options
    data = load_csv(opts["csv"], opts["response"])
    fit = fit_ols(data)
    rows = []
    for j in range(data.q):
        est = estimate_effect(fit, [j], WeightVector.basis(1, 0))
        rows.append((data.names[j], est.value, est.std_error, est.t_stat, est.p_value))

    diagnostics = {"n": data.n, "q": data.q, "dof": fit.dof,
                   "sigma2_hat": fit.sigma2_hat, "groups": []}
    for tokens in opts["group"]:
        idx = _resolve_columns(data, tokens, "--group")
        corr = correlation(data, idx)
        anchor = _resolve_anchor(data, idx, opts["anchor"])
        signs = apc_arrangement(corr, anchor)
        w_w = variability_weights(corr)
        w_a = WeightVector.average(len(idx))
        member_names = ",".join(data.names[j] for j in idx)
        for label, w in ((f"tau_a({member_names})", w_a), (f"tau_w({member_names})", w_w)):
            est = estimate_effect(fit, idx, w, signs)
            rows.append((label, est.value, est.std_error, est.t_stat, est.p_value))
        diagnostics["groups"].append({
            "members": [data.names[j] for j in idx],
            "anchor": data.names[idx[signs.anchor]],
            "signs": signs.signs.tolist(),
            "apc_condition_met": signs.condition_met,
            "weights": w_w.weights.tolist(),
            "column_sds": corr.column_sds.tolist(),
        })
    doc = {
        "effects": [
            {"effect": e, "estimate": v, "std_error": s, "t": t, "p": p}
            for e, v, s, t, p in rows
        ],
        "diagnostics": diagnostics,
    }
    return [(("effect", "estimate", "std_error", "t", "p"), rows)], doc


def run_simulate(config: RunConfig) -> tuple[list, dict]:
    opts = config.options
    size = {k: opts[k] for k in ("seed", "replicates", "n")}
    if opts["paper_suite"]:
        suite = sim_mod.run_paper_suite(**size)
        reports, checks = suite.reports, suite.checks
    else:
        if opts["case"] is not None:
            weights = {k: opts[k] for k in ("w1", "w2") if opts[k] is not None}
            case_config = replace(sim_mod.paper_case_config(opts["case"], **size), **weights)
        else:
            case_config = sim_mod.SimCaseConfig(w1=opts["w1"], w2=opts["w2"], label="custom",
                                                **size)
        reports, checks = [sim_mod.run_case(case_config)], ()

    tables = [(("case", "effect", "mean", "variance"),
               [(rep.label, e.label, e.mean, e.variance)
                for rep in reports for e in rep.effects])]
    if checks:
        tables.append((("check", "passed", "detail"),
                       [(c.name, c.passed, c.detail) for c in checks]))
    doc = {
        "cases": [{
            "label": rep.label,
            "replicates": rep.replicates,
            "seed": rep.seed,
            "effects": [
                {"effect": e.label, "mean": e.mean, "variance": e.variance,
                 "true_value": e.true_value}
                for e in rep.effects
            ],
            "corr_ranges": {k: list(v) for k, v in rep.corr_ranges.items()},
        } for rep in reports],
        "checks": [
            {"check": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
    }
    return tables, doc


def run_clr(config: RunConfig) -> tuple[list, dict]:
    opts = config.options
    data = load_csv(opts["csv"], opts["response"])
    idx = _resolve_columns(data, opts["group"][0], "--group")
    anchor = _resolve_anchor(data, idx, opts["anchor"])
    settings = {"selection": opts["select"], "n_folds": opts["folds"],
                "seed": opts["seed"], "anchor": anchor}
    if len(opts["c_offset"]) == 1:
        sol = clr_mod.solve_clr(data, idx, c_offset=opts["c_offset"][0], **settings)
    else:
        sol = clr_mod.solve_clr_best_offset(data, idx, opts["c_offset"], **settings)

    names = data.names
    rows = [("tau_hat", "", sol.problem.tau_hat),
            ("min_norm_sq", "", sol.min_norm_sq),
            ("c", "", sol.c)]
    for label, vec in (("beta_star", sol.beta_star),
                       ("candidate_1", sol.candidates[0]),
                       ("candidate_2", sol.candidates[1]),
                       ("chosen", sol.chosen)):
        rows.extend((label, names[j], v) for j, v in zip(sol.group, vec))
    rows.extend(("full_beta", name, v) for name, v in zip(names, sol.full_beta))
    doc = {
        "group": [names[j] for j in sol.group],
        "weights": sol.problem.w.weights.tolist(),
        "signs": sol.signs.signs.tolist(),
        "tau_hat": sol.problem.tau_hat,
        "beta_star": sol.beta_star.tolist(),
        "min_norm_sq": sol.min_norm_sq,
        "c": sol.c,
        "candidates": [c.tolist() for c in sol.candidates],
        "chosen": sol.chosen.tolist(),
        "selection": sol.selection,
        "full_beta": {n: float(b) for n, b in zip(names, sol.full_beta)},
        "diagnostics": sol.diagnostics,
    }
    return [(("quantity", "component", "value"), rows)], doc


def render_report(report, fmt: str) -> bytes:
    """Serialize a runner's ``(tables, doc)`` report to CSV or JSON bytes;
    floats carry 8 significant digits so repeated runs are byte-identical.
    CSV tables are separated by a blank line. A report holding an inf or NaN
    is an error in either format."""
    tables, doc = report
    data = _round8({"schema_version": SCHEMA_VERSION, **doc})
    if fmt != "csv":
        return (json.dumps(data, indent=2) + "\n").encode("utf-8")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, (header, rows) in enumerate(tables):
        if i:
            writer.writerow(())
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


_RUNNERS = {
    "uniform": run_uniform,
    "analyze": run_analyze,
    "simulate": run_simulate,
    "clr": run_clr,
}


def main(argv=None) -> int:
    config = None
    try:
        config = parse_args(argv)
        report = _RUNNERS[config.subcommand](config)
        payload = render_report(report, config.options["format"])
        if config.options["out"]:
            with open(config.options["out"], "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except UsageError as exc:
        print(f"groupfx: {exc}", file=sys.stderr)
        return 2
    except (GroupFxError, OSError, MemoryError) as exc:
        flag = (isinstance(exc, GroupFxError) and config
                and config._flags.get(getattr(exc, "name", None)))
        if flag:
            print(f"groupfx: {flag}: {exc}", file=sys.stderr)
            return 2
        # numpy refuses a huge array with a private MemoryError subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        err = {"schema_version": SCHEMA_VERSION, "error": name, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
