"""Config-driven command line for the determinant and Evans pipelines.

A run is one JSON document plus a command name.  Keys shared by every
command:

    problem         {"name": ..., "params": {...}} for a builtin, or
                    {"order", "coeffs", "profile": {"kind", "params"},
                    "m", "asymptotics"} for a custom scalar problem
    domain          {"half_width", "quad_points", "rule", "panel_order"}
    evans           {"rtol", "renorm_threshold", "orthogonalize_interval"};
                    rtol is the accuracy target of E/c that sizes the
                    Magnus steps from their own error estimate
    matching_point  where the two Jost families are matched
    output          {"format": "csv" | "json", "path": null for stdout}

Command-specific keys: ``lambdas`` (roots / det / evans / compare), ``p``
(det), ``rectangle`` / ``samples_per_edge`` / ``function`` (locate, scan),
``nx`` / ``ny`` (scan), ``lambda`` / ``quantity`` / ``n_list`` / ``x_list``
(converge).  The optional ``asymptotics`` block declares the limits the
profile is expected to reach ({"v_minus", "v_plus"} or matrix-valued
{"R_minus", "R_plus"}); a declaration that disagrees with the profile is
refused.  Unknown keys anywhere are rejected before any computation runs.

Complex numbers appear in configs and JSON output as {"re": ..., "im": ...}
(bare numbers are accepted on input); CSV output splits every complex
column into re_/im_ pairs.  Both formats embed the resolved configuration
and the library version, and rows follow the input order.  Exit codes: 0
success, 2 configuration problem, 3 numerical refusal; failures print one
JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import numpy as np

from . import __version__
from . import model
from .errors import ConfigError, WavedetError

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config plumbing


_COMMON_KEYS = ("problem", "domain", "evans", "matching_point", "output")

_COMMAND_KEYS = {
    "roots": ("lambdas",),
    "det": ("lambdas", "p"),
    "evans": ("lambdas",),
    "compare": ("lambdas",),
    "locate": ("rectangle", "samples_per_edge", "function"),
    "scan": ("rectangle", "nx", "ny", "function"),
    "converge": ("lambda", "quantity", "n_list", "x_list"),
}

# the modules that each command's handler runs.  ``main`` loads them right
# after the arguments are parsed: outside the handler's work, and before
# the config is read, so their compilation does not sit on its heap.  The
# route modules that a config selects are loaded by ``Run``.  A handler
# still imports what it calls, which is a no-op once loaded.
_ROUTES = {
    "roots": ("greens",),
    "det": ("fredholm",),
    "evans": ("evans",),
    "compare": ("evans", "fredholm"),
    "locate": ("fredholm", "locate"),
    "scan": ("fredholm", "locate"),
    "converge": ("fredholm",),
}

_DOMAIN_DEFAULTS = {"half_width": 20.0, "quad_points": 400,
                    "rule": "gauss_legendre", "panel_order": 10}
_EVANS_DEFAULTS = {"rtol": 1e-10, "renorm_threshold": 1e8,
                   "orthogonalize_interval": 1.0}
_OUTPUT_DEFAULTS = {"format": "csv", "path": None}


def _load(*names):
    for name in names:
        importlib.import_module(f"{__package__}.{name}")


def _check_keys(block, allowed, path):
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}.{key}")


def _merged(defaults, block, path):
    _check_keys(block, tuple(defaults), path)
    out = dict(defaults)
    out.update(block)
    return out


def _as_complex(value, path):
    if isinstance(value, bool):
        raise ConfigError(f"{path} must be a number or {{re, im}}")
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, dict):
        _check_keys(value, ("re", "im"), path)
        try:
            return complex(float(value.get("re", 0.0)),
                           float(value.get("im", 0.0)))
        except (TypeError, ValueError):
            raise ConfigError(f"{path} fields must be numbers") from None
    raise ConfigError(f"{path} must be a number or {{re, im}}")


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    return float(value)


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _complex_pair(z):
    return {"re": float(z.real), "im": float(z.imag)}


def _build_problem(block):
    """ScalarProblem from a config block, plus its deterministic echo."""
    if not isinstance(block, dict):
        raise ConfigError("problem must be an object")
    if "name" in block:
        _check_keys(block, ("name", "params"), "problem")
        params = block.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("problem.params must be an object")
        problem = model.builtin_problem(block["name"], **params)
        echo = {"name": block["name"], "params": dict(problem.profile.params)}
        return problem, echo
    _check_keys(block, ("order", "coeffs", "profile", "m", "asymptotics"),
                "problem")
    for key in ("order", "coeffs", "profile"):
        if key not in block:
            raise ConfigError(f"problem.{key} is required")
    prof_block = block["profile"]
    _check_keys(prof_block, ("kind", "params"), "problem.profile")
    if "kind" not in prof_block:
        raise ConfigError("problem.profile.kind is required")
    params = prof_block.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("problem.profile.params must be an object")
    profile = model.make_profile(prof_block["kind"], **params)
    coeffs = block["coeffs"]
    if not isinstance(coeffs, list):
        raise ConfigError("problem.coeffs must be a list")
    coeffs = tuple(_as_complex(c, f"problem.coeffs[{i}]")
                   for i, c in enumerate(coeffs))
    m = _as_int(block.get("m", 0), "problem.m")
    problem = model.ScalarProblem(order=_as_int(block["order"],
                                                "problem.order"),
                                  coeffs=coeffs, profile=profile,
                                  deriv_order=m)
    if "asymptotics" in block:
        _check_asymptotics(block["asymptotics"], problem)
    echo = {"order": problem.order,
            "coeffs": [_complex_pair(c) for c in problem.coeffs],
            "profile": {"kind": prof_block["kind"],
                        "params": dict(profile.params)},
            "m": m}
    if "asymptotics" in block:
        echo["asymptotics"] = block["asymptotics"]
    return problem, echo


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
        lo, hi = problem.potential_limits
        declared = (_as_complex(block["v_minus"], f"{path}.v_minus"),
                    _as_complex(block["v_plus"], f"{path}.v_plus"))
        for label, want, have in (("v_minus", declared[0], lo),
                                  ("v_plus", declared[1], hi)):
            if abs(want - have) > 1e-8 * max(1.0, abs(have)):
                raise ConfigError(
                    f"{path}.{label} = {want} but the profile reaches {have}")
        return
    if matrix != {"R_minus", "R_plus"}:
        raise ConfigError(f"{path} needs both R_minus and R_plus")
    sysm = model.to_system(problem)
    for label, have in (("R_minus", sysm.r_minus), ("R_plus", sysm.r_plus)):
        raw = block[label]
        if (not isinstance(raw, list)
                or any(not isinstance(row, list) for row in raw)):
            raise ConfigError(f"{path}.{label} must be a matrix (list of "
                              "lists)")
        want = np.array([[_as_complex(v, f"{path}.{label}") for v in row]
                         for row in raw], dtype=complex)
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
    """Everything a command handler needs, resolved once up front."""

    def __init__(self, command, config):
        allowed = _COMMON_KEYS + _COMMAND_KEYS[command]
        _check_keys(config, allowed, "config")
        if "problem" not in config:
            raise ConfigError("problem is required")
        self.command = command
        self.problem, problem_echo = _build_problem(config["problem"])
        self.system = model.to_system(self.problem)
        self.domain = _merged(_DOMAIN_DEFAULTS, config.get("domain", {}),
                              "domain")
        evans_block = _merged(_EVANS_DEFAULTS, config.get("evans", {}),
                              "evans")
        self.matching_point = _as_float(config.get("matching_point", 0.0),
                                        "matching_point")
        self.output = _merged(_OUTPUT_DEFAULTS, config.get("output", {}),
                              "output")
        if self.output["format"] not in ("csv", "json"):
            raise ConfigError("output.format must be 'csv' or 'json'")
        self.grid = model.build_grid(
            _as_float(self.domain["half_width"], "domain.half_width"),
            _as_int(self.domain["quad_points"], "domain.quad_points"),
            self.domain["rule"],
            _as_int(self.domain["panel_order"], "domain.panel_order"))
        self.params = model.IntegrationParams(
            half_width=float(self.domain["half_width"]),
            rtol=_as_float(evans_block["rtol"], "evans.rtol"),
            renorm_threshold=_as_float(evans_block["renorm_threshold"],
                                       "evans.renorm_threshold"),
            orthogonalize_interval=_as_float(
                evans_block["orthogonalize_interval"],
                "evans.orthogonalize_interval"))
        self.extra = {key: config[key] for key in _COMMAND_KEYS[command]
                      if key in config}
        # the route module that the config selects
        if self.extra.get("function") == "evans":
            _load("evans")
        self.resolved = {
            "command": command,
            "problem": problem_echo,
            "domain": dict(self.domain),
            "evans": dict(evans_block),
            "matching_point": self.matching_point,
            "output": dict(self.output),
        }

    def lambdas(self):
        raw = self.extra.get("lambdas", [])
        if not isinstance(raw, list):
            raise ConfigError("lambdas must be a list")
        lams = [_as_complex(v, f"lambdas[{i}]") for i, v in enumerate(raw)]
        self.resolved["lambdas"] = [_complex_pair(z) for z in lams]
        return lams

    def rectangle(self):
        block = self.extra.get("rectangle")
        if block is None:
            raise ConfigError("rectangle is required")
        _check_keys(block, ("corner_low", "corner_high"), "rectangle")
        if "corner_low" not in block or "corner_high" not in block:
            raise ConfigError("rectangle needs corner_low and corner_high")
        low = _as_complex(block["corner_low"], "rectangle.corner_low")
        high = _as_complex(block["corner_high"], "rectangle.corner_high")
        self.resolved["rectangle"] = {"corner_low": _complex_pair(low),
                                      "corner_high": _complex_pair(high)}
        return low, high

    def target_function(self):
        """The map lambda -> value that locate / scan walk; the Fredholm
        determinants are ``locate.Batched``, evaluated a list at a time."""
        from . import locate
        name = self.extra.get("function", "det1")
        if name not in ("det1", "det2", "front_det2", "evans"):
            raise ConfigError("function must be det1, det2, front_det2 or "
                              "evans")
        self.resolved["function"] = name
        if name == "evans":
            from . import evans
            return name, locate.Batched(lambda lams: [
                res.ratio for res in evans.evans_function_many(
                    self.system, lams, matching_point=self.matching_point,
                    params=self.params)])
        from . import fredholm
        if name == "det1":
            return name, locate.Batched(lambda lams: [
                res.value for res in fredholm.det1_many(self.problem, lams,
                                                        self.grid)])
        # front_det2 is det2 under its own name, for a front as for a pulse
        return name, locate.Batched(lambda lams: [
            res.value for res in fredholm.det2_many(self.system, lams,
                                                    self.grid)])

    def map(self, fn, items):
        return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# output rendering

# column kinds: c = complex (split into re_/im_ in CSV), f = float,
# i = integer, s = string


def _csv_text(columns, rows, resolved):
    header = []
    for name, kind in columns:
        if kind == "c":
            header.extend((f"re_{name}", f"im_{name}"))
        else:
            header.append(name)
    lines = [f"# wavedet {__version__}",
             "# config " + json.dumps(resolved, sort_keys=True,
                                      separators=(",", ":")),
             ",".join(header)]
    for row in rows:
        cells = []
        for (name, kind), value in zip(columns, row):
            if value is None:
                cells.extend(("", "") if kind == "c" else ("",))
            elif kind == "c":
                z = complex(value)
                cells.extend((repr(z.real), repr(z.imag)))
            elif kind == "f":
                cells.append(repr(float(value)))
            elif kind == "i":
                cells.append(str(int(value)))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_text(columns, rows, resolved, extras=None):
    out_rows = []
    for row in rows:
        entry = {}
        for (name, kind), value in zip(columns, row):
            if value is None:
                entry[name] = None
            elif kind == "c":
                entry[name] = _complex_pair(complex(value))
            elif kind == "f":
                entry[name] = float(value)
            elif kind == "i":
                entry[name] = int(value)
            else:
                entry[name] = str(value)
        out_rows.append(entry)
    doc = {"version": __version__, "config": resolved, "rows": out_rows}
    if extras:
        doc.update(extras)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _render(run, columns, rows, extras=None):
    if run.output["format"] == "json":
        return _json_text(columns, rows, run.resolved, extras)
    return _csv_text(columns, rows, run.resolved)


# ---------------------------------------------------------------------------
# commands


def cmd_roots(run):
    """Characteristic roots, kernel weights, and the interface residuals."""
    from . import greens
    lams = run.lambdas()
    n = run.problem.order

    def one(lam):
        roots, coeff = greens.green_data(run.problem, lam)
        kall = np.array(roots.all)
        alpha = np.array(coeff.alpha)
        signs = np.array([1.0] * roots.k + [-1.0] * (n - roots.k))
        M = (kall[None, :] ** np.arange(n)[:, None]) * signs[None, :]
        rhs = np.zeros(n, dtype=complex)
        rhs[-1] = -1.0
        resid = M @ alpha - rhs
        jump = float(abs(resid[-1]))
        moment = float(np.max(np.abs(resid[:-1]))) if n > 1 else 0.0
        return ([lam, roots.k] + list(kall) + list(alpha)
                + [jump, moment, coeff.condition])

    columns = ([("lambda", "c"), ("k", "i")]
               + [(f"root_{j + 1}", "c") for j in range(n)]
               + [(f"alpha_{j + 1}", "c") for j in range(n)]
               + [("jump_residual", "f"), ("moment_residual", "f"),
                  ("condition", "f")])
    return _render(run, columns, run.map(one, lams))


def cmd_det(run):
    """det1 / det2 / detp per lambda (front problems: no det1), from one
    batched ``fredholm.determinants_many`` call."""
    from . import fredholm
    p = _as_int(run.extra.get("p", 3), "p")
    fredholm._check_order(p)
    run.resolved["p"] = p
    lams = run.lambdas()
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
    lams = run.lambdas()
    columns = [("lambda", "c"), ("evans", "c"), ("c_lambda", "c"),
               ("ratio", "c")]
    kwargs = {"matching_point": run.matching_point, "params": run.params}
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
    lams = run.lambdas()
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
    low, high = run.rectangle()
    samples = _as_int(run.extra.get("samples_per_edge", 16),
                      "samples_per_edge")
    run.resolved["samples_per_edge"] = samples
    name, fn = run.target_function()
    contour = locate.Contour(corner_low=low, corner_high=high,
                             samples_per_edge=samples)
    problem = None if run.system.is_front else run.problem
    report = locate.locate_roots(fn, contour, problem=problem,
                                 function_used=name)
    columns = [("winding", "i"), ("root", "c"), ("abs_value", "f"),
               ("multiplicity_gap", "i")]
    rows = [[report.winding, root, value, int(report.multiplicity_gap)]
            for root, value in zip(report.roots, report.abs_values)]
    if not rows:
        rows = [[report.winding, None, None, int(report.multiplicity_gap)]]
    extras = {"report": {"winding": report.winding,
                         "function_used": report.function_used,
                         "multiplicity_gap": report.multiplicity_gap,
                         "roots": [_complex_pair(r) for r in report.roots]}}
    return _render(run, columns, rows, extras)


def cmd_scan(run):
    """Grid samples of the chosen function over a rectangle."""
    from . import locate
    low, high = run.rectangle()
    nx = _as_int(run.extra.get("nx", 7), "nx")
    ny = _as_int(run.extra.get("ny", nx), "ny")
    run.resolved["nx"] = nx
    run.resolved["ny"] = ny
    name, fn = run.target_function()
    if nx < 2 or ny < 2:
        raise ConfigError("scan needs nx, ny >= 2")
    rows = [list(pair) for pair in locate.scan(fn, low, high, nx, ny)]
    return _render(run, [("lambda", "c"), (name, "c")], rows)


def cmd_converge(run):
    """Self-convergence sweeps: halve the node spacing, widen the window."""
    from . import fredholm
    lam = _as_complex(run.extra.get("lambda", 4.0), "lambda")
    quantity = run.extra.get("quantity", "det1")
    if quantity not in ("det1", "det2"):
        raise ConfigError("quantity must be det1 or det2")
    n_list = run.extra.get("n_list", [100, 200, 400])
    x_list = run.extra.get("x_list", [15.0, 20.0, 25.0])
    if not isinstance(n_list, list) or not isinstance(x_list, list):
        raise ConfigError("n_list and x_list must be lists")
    n_list = [_as_int(v, "n_list") for v in n_list]
    x_list = [_as_float(v, "x_list") for v in x_list]
    run.resolved.update({"lambda": _complex_pair(lam), "quantity": quantity,
                         "n_list": list(n_list), "x_list": list(x_list)})
    rule = run.domain["rule"]
    porder = run.domain["panel_order"]
    base_n = run.domain["quad_points"]
    base_x = run.domain["half_width"]
    cache = {}

    def value(n_points, half_width):
        key = (n_points, half_width)
        if key not in cache:
            grid = model.build_grid(half_width, n_points, rule, porder)
            if quantity == "det1":
                cache[key] = fredholm.det1(run.problem, lam, grid).value
            else:
                cache[key] = fredholm.det2(run.system, lam, grid).value
        return cache[key]

    columns = [("sweep", "s"), ("parameter", "f"), ("value", "c"),
               ("gap", "f")]
    rows = []
    for n_points in n_list:
        v, v2 = value(n_points, base_x), value(2 * n_points, base_x)
        rows.append(["N", float(n_points), v, abs(v - v2)])
    for half_width in x_list:
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
    helps = {
        "roots": "characteristic roots, kernel weights, residuals",
        "det": "Fredholm determinants per lambda",
        "evans": "Evans function, transmission determinants per lambda",
        "compare": "cross-pipeline identity report per lambda",
        "locate": "winding number and refined roots in a rectangle",
        "scan": "function samples on a rectangular grid",
        "converge": "node-count and window self-convergence sweeps",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _emit_error(kind, exc):
    payload = {"error": {"kind": kind, "type": type(exc).__name__,
                         "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _load(*_ROUTES[args.command])
    try:
        config = _load_config(args.config)
        _apply_overrides(config, args.override)
        run = Run(args.command, config)
        if args.format is not None:
            run.output["format"] = args.format
            run.resolved["output"]["format"] = args.format
        if args.output is not None:
            run.output["path"] = args.output
            run.resolved["output"]["path"] = args.output
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except WavedetError as exc:
        _emit_error("numeric", exc)
        return 3
    try:
        text = _HANDLERS[args.command](run)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except WavedetError as exc:
        _emit_error("numeric", exc)
        return 3
    path = run.output["path"]
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
