"""Config-driven command line for the determinant and Evans pipelines.

A run is one JSON document plus a command name.  Its keys by dotted path
(_COMMON and _COMMANDS below hold their checks and defaults):

    problem         a builtin, ``problem.name`` and ``problem.params``, or a
                    custom scalar problem: ``problem.order``,
                    ``problem.coeffs``, ``problem.m``, ``problem.profile``
                    (``problem.profile.kind``, ``problem.profile.params``)
                    and the optional ``problem.asymptotics``, the declared
                    limits of the profile ({"v_minus", "v_plus"} or
                    {"R_minus", "R_plus"}), refused if it disagrees
    domain          ``domain.half_width``, ``domain.quad_points``,
                    ``domain.panel_order``
    evans           ``evans.rtol``: the accuracy target of E/c, in [1e-14,
                    1e-2), that sizes the Magnus steps from their own
                    error estimate
    output          ``output.format`` ("csv" or "json") and
                    ``output.path`` (null for stdout)

with ``matching_point``, where the two Jost families are matched, and per
command ``lambdas`` (roots / det / evans / compare), ``p`` (det),
``rectangle`` (``rectangle.corner_low``, ``rectangle.corner_high``) and
``function`` (locate, scan), ``samples_per_edge`` (locate), ``nx`` /
``ny`` (scan), ``lambda`` / ``quantity`` / ``n_list`` / ``x_list``
(converge).  Unknown keys anywhere are rejected before any computation
runs.

Complex numbers appear in configs and JSON output as {"re": ..., "im": ...}
(bare numbers are accepted on input); CSV output splits every complex
column into re_/im_ pairs.  Both formats embed the resolved configuration
and the library version, and rows follow the input order.  Exit codes: 0
success, 2 configuration problem (a non-finite number, unwritable output),
3 numerical refusal; failures print one JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys

import numpy as np

from . import __version__
from . import model
from .errors import ConfigError, WavedetError

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config schema
#
# A table maps each key of a config block to (check, default).  The check
# is a leaf, check(path, value) -> the parsed value (None keeps the value
# as given), or the table of a nested block: a dict, or ("name", with_it,
# without_it) for a block whose table depends on whether it holds that
# key.  A _Required default refuses a missing key, _ABSENT leaves it out,
# and a callable one is computed from the keys parsed before it.


class _Required(str):
    """A key's refusal when it is missing; {} stands for its path."""


_REQUIRED = _Required("{} is required")
_ABSENT = object()


def _object(path, value):
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _check_keys(block, allowed, path):
    for key in _object(path, block):
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}.{key}")


def _as_complex(path, value):
    if isinstance(value, dict):
        _check_keys(value, ("re", "im"), path)
        try:
            z = complex(float(value.get("re", 0.0)),
                        float(value.get("im", 0.0)))
        except (TypeError, ValueError):
            raise ConfigError(f"{path} fields must be numbers") from None
        return complex(_as_float(path, z.real), _as_float(path, z.imag))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number or {{re, im}}")
    return complex(_as_float(path, value), 0.0)


def _as_float(path, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    return model._number(value, path)


def _finite(path, value):
    """A number, kept (and echoed) as the config gave it."""
    _as_float(path, value)
    return value


def _string_or_null(path, value):
    if not isinstance(value, (str, type(None))):
        raise ConfigError(f"{path} must be a string or null")
    return value


def _scan_side(path, value):
    if model._count(path, value) < 2:
        raise ConfigError("scan needs nx, ny >= 2")
    return value


def _list(item, refusal="{} must be a list"):
    def check(path, value):
        if not isinstance(value, list):
            raise ConfigError(refusal.format(path))
        return [item(f"{path}[{i}]", v) for i, v in enumerate(value)]
    return check


def _one_of(*choices, shown=None):
    shown = shown or choices
    either = ", ".join(shown[:-1]) + " or " + shown[-1]

    def check(path, value):
        if value not in choices:
            raise ConfigError(f"{path} must be {either}")
        return value
    return check


def _walk(table, path, block):
    """The parsed block: each key of its table checked in table order,
    with its default filled in, after any unknown key is refused."""
    if isinstance(table, tuple):
        key, with_key, without_key = table
        table = with_key if key in _object(path, block) else without_key
    _check_keys(block, table, path or "config")
    parsed = {}
    for key, (check, default) in table.items():
        sub = f"{path}.{key}" if path else key
        value = block.get(key, default)
        if isinstance(value, _Required):
            raise ConfigError(value.format(sub))
        if value is _ABSENT:
            continue
        if callable(value):
            value = value(parsed)
        parsed[key] = (_walk(check, sub, value)
                       if isinstance(check, (dict, tuple)) else
                       value if check is None else check(sub, value))
    return parsed


_COMMON = {
    "problem": (("name",
                 {"name": (None, _REQUIRED), "params": (_object, {})},
                 {"order": (model._count, _REQUIRED),
                  "coeffs": (_list(_as_complex), _REQUIRED),
                  "profile": ({"kind": (None, _REQUIRED),
                               "params": (_object, {})}, _REQUIRED),
                  "m": (model._count, 0),
                  "asymptotics": (None, _ABSENT)}), _REQUIRED),
    "domain": ({"half_width": (_finite, model.DEFAULT_HALF_WIDTH),
                "quad_points": (model._count, model.DEFAULT_POINTS),
                "panel_order": (model._count, model.DEFAULT_PANEL_ORDER)},
               {}),
    "evans": ({"rtol": (_finite, model.IntegrationParams.rtol)}, {}),
    "matching_point": (_as_float, 0.0),
    "output": ({"format": (_one_of("csv", "json", shown=("'csv'", "'json'")),
                           "csv"),
                "path": (_string_or_null, None)}, {}),
}
_LAMBDAS = {"lambdas": (_list(_as_complex), [])}
_CORNER = (_as_complex, _Required("rectangle needs corner_low and "
                                  "corner_high"))
_AREA = {"rectangle": ({"corner_low": _CORNER, "corner_high": _CORNER},
                       _REQUIRED),
         "function": (_one_of("det1", "det2", "evans"), "det1")}
_LISTS = "n_list and x_list must be lists"

# command -> (its --help text, the modules that its handler runs, its own
# keys).  ``main`` loads the modules before the config is read, so their
# compilation does not sit on its heap; ``Run`` loads the route that a
# config selects.
_COMMANDS = {
    "roots": ("characteristic roots, kernel weights, residuals", ("greens",),
              _LAMBDAS),
    "det": ("Fredholm determinants per lambda", ("fredholm",),
            {"p": (model._count, 3), **_LAMBDAS}),
    "evans": ("Evans function, transmission determinants per lambda",
              ("evans",), _LAMBDAS),
    "compare": ("cross-pipeline identity report per lambda",
                ("evans", "fredholm"), _LAMBDAS),
    "locate": ("winding number and refined roots in a rectangle",
               ("fredholm", "locate"),
               {**_AREA, "samples_per_edge": (model._count, 16)}),
    "scan": ("function samples on a rectangular grid", ("fredholm", "locate"),
             {**_AREA, "nx": (_scan_side, 7),
              "ny": (_scan_side, lambda keys: keys["nx"])}),
    "converge": ("node-count and window self-convergence sweeps",
                 ("fredholm",),
                 {"lambda": (_as_complex, 4.0),
                  "quantity": (_one_of("det1", "det2"), "det1"),
                  "n_list": (_list(model._count, _LISTS), [100, 200, 400]),
                  "x_list": (_list(_as_float, _LISTS), [15.0, 20.0, 25.0])}),
}


def _echo(value):
    """A parsed value as printed: complex numbers as {re, im}."""
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, dict):
        return {key: _echo(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_echo(v) for v in value]
    return value


def _build_problem(block):
    """The ScalarProblem of a parsed problem block, whose params then hold
    all the profile parameters that the problem resolved."""
    if "name" in block:
        problem = model.builtin_problem(block["name"], **block["params"])
        block["params"] = dict(problem.profile.params)
        return problem
    prof = block["profile"]
    profile = model.make_profile(prof["kind"], **prof["params"])
    prof["params"] = dict(profile.params)
    problem = model.ScalarProblem(order=block["order"],
                                  coeffs=tuple(block["coeffs"]),
                                  profile=profile, deriv_order=block["m"])
    if "asymptotics" in block:
        _check_asymptotics(block["asymptotics"], problem)
    return problem


def _check_asymptotics(block, problem):
    """Refuse declared limits that the profile does not actually reach."""
    path = "problem.asymptotics"
    _check_keys(block, ("v_minus", "v_plus", "R_minus", "R_plus"), path)
    scalar = {"v_minus", "v_plus"} & set(block)
    matrix = {"R_minus", "R_plus"} & set(block)
    if scalar and matrix:
        raise ConfigError(f"{path}: give v_minus/v_plus or R_minus/R_plus, "
                          "not both")
    if scalar:
        if scalar != {"v_minus", "v_plus"}:
            raise ConfigError(f"{path} needs both v_minus and v_plus")
        for label, have in zip(("v_minus", "v_plus"),
                               problem.potential_limits):
            want = _as_complex(f"{path}.{label}", block[label])
            if abs(want - have) > 1e-8 * max(1.0, abs(have)):
                raise ConfigError(
                    f"{path}.{label} = {want} but the profile reaches {have}")
        return
    if matrix != {"R_minus", "R_plus"}:
        raise ConfigError(f"{path} needs both R_minus and R_plus")
    sysm = model.to_system(problem)
    for label, have in (("R_minus", sysm.r_minus), ("R_plus", sysm.r_plus)):
        refusal = f"{path}.{label} must be a matrix (list of lists)"
        rows = _list(_list(_as_complex, refusal), refusal)(f"{path}.{label}",
                                                           block[label])
        if len({len(row) for row in rows}) > 1:
            raise ConfigError(refusal)
        want = np.array(rows, dtype=complex)
        if want.shape != have.shape or not np.allclose(want, have, atol=1e-8):
            raise ConfigError(f"{path}.{label} disagrees with the limit the "
                              "profile reaches")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    return config


def _apply_overrides(config, pairs):
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not KEY=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r} descends into a "
                                  "non-object")
            node = nxt
        node[parts[-1]] = value


class Run:
    """Everything a command handler needs, resolved once up front: the
    config checked against its command's tables, with the defaults filled
    in, and the problem, grid and Jost parameters that it sets."""

    def __init__(self, command, config):
        self.config = {"command": command, **_walk(
            {**_COMMON, **_COMMANDS[command][2]}, "", config)}
        self.problem = _build_problem(self.config["problem"])
        self.system = model.to_system(self.problem)
        domain = self.config["domain"]
        self.grid = model.build_grid(domain["half_width"],
                                     domain["quad_points"],
                                     domain["panel_order"])
        self.params = model.IntegrationParams(
            half_width=float(domain["half_width"]),
            rtol=self.config["evans"]["rtol"])
        if self.config.get("function") == "evans":    # its route module
            importlib.import_module(f"{__package__}.evans")

    def target_function(self):
        """The map lambda -> value that locate / scan walk; the Fredholm
        determinants are ``locate.Batched``, evaluated a list at a time."""
        from . import locate
        name = self.config["function"]
        if name == "evans":
            from . import evans
            return name, locate.Batched(lambda lams: [
                res.ratio for res in evans.evans_function_many(
                    self.system, lams,
                    matching_point=self.config["matching_point"],
                    params=self.params)])
        from . import fredholm
        if name == "det1":
            return name, locate.Batched(lambda lams: [
                res.value for res in fredholm.det1_many(self.problem, lams,
                                                        self.grid)])
        return name, locate.Batched(lambda lams: [
            res.value for res, in fredholm.determinants_many(
                self.system, lams, self.grid, {"det2": 2})])

    def map(self, fn, items):
        return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# output rendering

# column kinds: c = complex (split into re_/im_ in CSV), f = float,
# i = integer, s = string


def _cells(columns, row):
    """The cells of one row converted per column kind: {re, im} for a
    complex, float, int or str; None stays None."""
    return [None if value is None else
            _echo(complex(value)) if kind == "c" else
            float(value) if kind == "f" else
            int(value) if kind == "i" else str(value)
            for (_, kind), value in zip(columns, row)]


def _csv_text(columns, rows, resolved):
    parts = [("re", "im") if kind == "c" else (None,) for _, kind in columns]
    header = [name if part is None else f"{part}_{name}"
              for (name, _), split in zip(columns, parts) for part in split]
    lines = [f"# wavedet {__version__}",
             "# config " + json.dumps(resolved, sort_keys=True,
                                      separators=(",", ":")),
             ",".join(header)]
    lines += [",".join("" if cell is None else
                       str(cell if part is None else cell[part])
                       for cell, split in zip(_cells(columns, row), parts)
                       for part in split) for row in rows]
    return "\n".join(lines) + "\n"


def _render(run, columns, rows, extras=None):
    resolved = _echo(run.config)
    if run.config["output"]["format"] == "csv":
        return _csv_text(columns, rows, resolved)
    doc = {"version": __version__, "config": resolved, **(extras or {}),
           "rows": [{name: cell for (name, _), cell in zip(
               columns, _cells(columns, row))} for row in rows]}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_roots(run):
    """Characteristic roots, kernel weights and interface residuals of the
    constant part (of a front too), from one ``greens.green_data`` call."""
    from . import greens
    lams = run.config["lambdas"]
    n = run.problem.order
    kappa, ks, alphas, conds = greens.green_data(run.problem, lams)

    def row(lam, kall, k, alpha, cond):
        signs = np.array([1.0] * k + [-1.0] * (n - k))
        M = (kall[None, :] ** np.arange(n)[:, None]) * signs[None, :]
        resid = M @ alpha
        resid[-1] += 1.0        # the right side is -e_(n-1)
        jump = float(abs(resid[-1]))
        moment = float(np.max(np.abs(resid[:-1]))) if n > 1 else 0.0
        return [lam, k] + list(kall) + list(alpha) + [jump, moment, cond]

    columns = ([("lambda", "c"), ("k", "i")]
               + [(f"root_{j + 1}", "c") for j in range(n)]
               + [(f"alpha_{j + 1}", "c") for j in range(n)]
               + [("jump_residual", "f"), ("moment_residual", "f"),
                  ("condition", "f")])
    return _render(run, columns, [row(*values) for values in zip(
        lams, kappa, ks, alphas, conds)])


def cmd_det(run):
    """det1 / det2 / detp per lambda (front problems: no det1), from one
    batched ``fredholm.determinants_many`` call."""
    from . import fredholm
    p, lams = run.config["p"], run.config["lambdas"]
    fredholm._check_order(p)
    kinds = {"det2": 2, f"det{p}": p}      # p = 2: one column
    if not run.system.is_front:
        kinds = {"det1": 1, **kinds}
    rows = [[lam] + [d.value for d in ds] for lam, ds in zip(
        lams, fredholm.determinants_many(run.system, lams, run.grid, kinds))]
    return _render(run, [("lambda", "c")] + [(kind, "c") for kind in kinds],
                   rows)


def cmd_evans(run):
    """E, c, E/c and, for decaying perturbations, the transmission dets,
    from one batched call over the lambda rows."""
    from . import evans
    lams = run.config["lambdas"]
    columns = [("lambda", "c"), ("evans", "c"), ("c_lambda", "c"),
               ("ratio", "c")]
    kwargs = {"matching_point": run.config["matching_point"],
              "params": run.params}
    if run.system.is_front:
        pairs = [(res, None) for res in evans.evans_function_many(
            run.system, lams, **kwargs)]
    else:
        columns += [("det_transmission", "c"), ("swinton", "c")]
        pairs = evans.evans_and_swinton_many(run.system, lams, **kwargs)
    columns.append(("truncation_error", "f"))
    rows = [[lam, res.evans, res.c_lambda, res.ratio]
            + ([] if sw is None else [res.det_transmission,
                                      complex(np.linalg.det(sw))])
            + [res.truncation_error] for lam, (res, sw) in zip(lams, pairs)]
    return _render(run, columns, rows)


def cmd_compare(run):
    """Scalar determinant, transmission determinant, Evans ratio, det2."""
    from . import evans
    lams = run.config["lambdas"]
    columns = [("lambda", "c"), ("det1", "c"), ("det_transmission", "c"),
               ("evans_ratio", "c"), ("det2_product", "c"),
               ("max_gap", "f")]

    def one(lam):
        rep = evans.identity_report(run.problem, lam, grid=run.grid,
                                    params=run.params)
        return [lam, rep["d"], rep["det_transmission"], rep["evans_ratio"],
                rep["det2_product"], rep["max_pairwise_gap"]]

    return _render(run, columns, run.map(one, lams))


def cmd_locate(run):
    """Winding number of the chosen function plus refined interior roots."""
    from . import locate
    name, fn = run.target_function()
    contour = locate.Contour(**run.config["rectangle"],
                             samples_per_edge=run.config["samples_per_edge"])
    # every evaluator refuses a sample off the resolvent set through its
    # own root split, as scan's do
    report = locate.locate_roots(fn, contour, function_used=name)
    columns = [("winding", "i"), ("root", "c"), ("abs_value", "f"),
               ("multiplicity_gap", "i")]
    rows = [[report.winding, root, value, int(report.multiplicity_gap)]
            for root, value in zip(report.roots, report.abs_values)]
    if not rows:
        rows = [[report.winding, None, None, int(report.multiplicity_gap)]]
    extras = {"report": {"winding": report.winding,
                         "function_used": report.function_used,
                         "multiplicity_gap": report.multiplicity_gap,
                         "roots": _echo(list(report.roots))}}
    return _render(run, columns, rows, extras)


def cmd_scan(run):
    """Grid samples of the chosen function over a rectangle."""
    from . import locate
    name, fn = run.target_function()
    rect = run.config["rectangle"]
    rows = [list(pair) for pair in locate.scan(
        fn, rect["corner_low"], rect["corner_high"], run.config["nx"],
        run.config["ny"])]
    return _render(run, [("lambda", "c"), (name, "c")], rows)


def cmd_converge(run):
    """Self-convergence sweeps: halve the node spacing, widen the window."""
    from . import fredholm
    lam, quantity = run.config["lambda"], run.config["quantity"]
    domain = run.config["domain"]
    base_x, base_n = domain["half_width"], domain["quad_points"]

    @functools.cache
    def value(n_points, half_width):
        grid = model.build_grid(half_width, n_points, domain["panel_order"])
        if quantity == "det1":
            return fredholm.det1(run.problem, lam, grid).value
        return fredholm.det2(run.system, lam, grid).value

    columns = [("sweep", "s"), ("parameter", "f"), ("value", "c"),
               ("gap", "f")]
    rows = []
    for n_points in run.config["n_list"]:
        v, v2 = value(n_points, base_x), value(2 * n_points, base_x)
        rows.append(["N", float(n_points), v, abs(v - v2)])
    for half_width in run.config["x_list"]:
        v, v2 = value(base_n, half_width), value(base_n, half_width + 5.0)
        rows.append(["X", float(half_width), v, abs(v - v2)])
    return _render(run, columns, rows)


_HANDLERS = {
    "roots": cmd_roots,
    "det": cmd_det,
    "evans": cmd_evans,
    "compare": cmd_compare,
    "locate": cmd_locate,
    "scan": cmd_scan,
    "converge": cmd_converge,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    common.add_argument("--output", default=None,
                        help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override output.format from the config")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path config override, repeatable")
    parser = argparse.ArgumentParser(
        prog="wavedet",
        description="Fredholm determinants and Evans functions for "
                    "travelling-wave spectral problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _emit_error(kind, exc):
    payload = {"error": {"kind": kind, "type": type(exc).__name__,
                         "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    for name in _COMMANDS[args.command][1]:
        importlib.import_module(f"{__package__}.{name}")
    try:
        config = _load_config(args.config)
        _apply_overrides(config, args.override)
        run = Run(args.command, config)
        # the flags replace what the config's output block passed
        for key, flag in (("format", args.format), ("path", args.output)):
            if flag is not None:
                run.config["output"][key] = flag
        text = _HANDLERS[args.command](run)
        path = run.config["output"]["path"]
        if path:
            try:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc}") from None
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except WavedetError as exc:
        _emit_error("numeric", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
