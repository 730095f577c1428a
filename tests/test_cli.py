import ast
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import wavedet
from wavedet import cli, evans, fredholm, greens, locate
from wavedet.errors import WavedetError

import oracles

PT = {"problem": {"name": "poschl_teller"}}


def write_config(tmp_path, extra, name="config.json", domain=None):
    cfg = dict(PT)
    cfg.update(extra)
    if domain is not None:
        cfg["domain"] = domain
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# wavedet ")
    assert lines[1].startswith("# config ")
    header = lines[2].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[3:]]
    return header, rows


# ---------------------------------------------------------------------------
# happy paths


def test_compare_reports_matching_pipelines(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0]})
    code, out, err = run_cli(capsys, "compare", "--config", path)
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert header[:2] == ["re_lambda", "im_lambda"]
    row = rows[0]
    for col in ("re_det1", "re_det_transmission", "re_evans_ratio",
                "re_det2_product"):
        assert abs(float(row[col]) - 1.0 / 3.0) < 1e-5
    assert float(row["max_gap"]) < 1e-5


def test_det_json_document(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0, 9.0]})
    code, out, err = run_cli(capsys, "det", "--config", path,
                             "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == wavedet.__version__
    assert doc["config"]["output"]["format"] == "json"
    assert doc["config"]["domain"]["quad_points"] == 400
    rows = doc["rows"]
    assert [r["lambda"]["re"] for r in rows] == [4.0, 9.0]
    assert abs(rows[0]["det1"]["re"] - 1.0 / 3.0) < 1e-6
    assert abs(rows[1]["det1"]["re"] - 0.5) < 1e-6
    assert abs(rows[0]["det2"]["re"] - math.exp(1.0) / 3.0) < 1e-6
    assert "det3" in rows[0]


def test_det_shares_one_system_discretization(tmp_path, capsys,
                                              monkeypatch):
    """det1, det2 and det3 of both lambdas of an m = 0 form come from one
    set of generators and one block sweep on the scalar terms, no dense
    matrix is assembled, and R - R_inf is sampled once, at the nodes, for
    the analytic system trace and its sign check."""
    calls = {"_blocks": 0, "_sweep": 0, "decaying_part": 0}
    for owner, name in ((fredholm, "_blocks"), (fredholm, "_sweep"),
                        (wavedet.SystemProblem, "decaying_part")):
        def counted(*args, _fn=getattr(owner, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    lams = [2.5 + 0.5j, 6.0 - 1.0j]
    path = write_config(tmp_path,
                        {"lambdas": [{"re": z.real, "im": z.imag}
                                     for z in lams], "p": 3},
                        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "det", "--config", path, "--format",
                             "json")
    assert code == 0
    assert calls == {"_blocks": 1, "_sweep": 1, "decaying_part": 1}
    pt = wavedet.builtin_problem("poschl_teller")
    sysm = wavedet.to_system(pt)
    grid = wavedet.build_grid(20.0, 200)
    for row, lam in zip(json.loads(out)["rows"], lams):
        for col, want in (("det1", wavedet.det1(pt, lam, grid)),
                          ("det2", wavedet.det2(sysm, lam, grid)),
                          ("det3", wavedet.detp(sysm, lam, grid, p=3))):
            got = complex(row[col]["re"], row[col]["im"])
            assert abs(got - want.value) <= 1e-13 * abs(want.value)


@pytest.mark.parametrize("name, lambdas, bad", [
    ("poschl_teller", [4.0, -1.0, 2.0 + 1.0j], "(-1+0j)"),
    ("biharmonic_demo", [-1.0 + 1.0j, 3.0], "(3+0j)")])
def test_det_refuses_like_its_first_failing_lambda(tmp_path, capsys, name,
                                                   lambdas, bad):
    """A lambda on the essential spectrum anywhere in the list exits 3 with
    its typed error, and no row is printed."""
    path = write_config(tmp_path, {
        "problem": {"name": name},
        "lambdas": [{"re": z.real, "im": z.imag} for z in map(complex,
                                                             lambdas)]},
        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": {
        "kind": "numeric", "type": "EssentialSpectrum",
        "message": f"lambda={bad} has a characteristic root on the "
                   "imaginary axis"}}


@pytest.mark.parametrize("command", ["det", "compare"])
@pytest.mark.parametrize("im", [1e-7, 1e-9])
def test_determinant_outside_the_float_range_is_refused(tmp_path, command,
                                                        im):
    """Near lambda = 0 of Poschl-Teller N=2, det2 = det1 e^(-tau) with
    |tau| about 6 / |sqrt(lambda)| is outside the float64 range: a new
    process exits 3 with one JSON error line and nothing else, no row and
    no RuntimeWarning, where it printed inf, NaN and 0.0 under exit 0."""
    path = write_config(tmp_path, {
        "problem": {"name": "poschl_teller", "params": {"N": 2}},
        "lambdas": [{"re": 0.0, "im": im}]})
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    done = subprocess.run([sys.executable, "-m", "wavedet.cli", command,
                           "--config", path], env=env, capture_output=True)
    assert done.returncode == 3 and done.stdout == b""
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {
        "kind": "numeric", "type": "OutOfRange",
        "message": f"lambda={complex(0.0, im)}: a determinant or its trace "
                   "correction is outside the float64 range"}}


def test_compare_rows_are_frozen(tmp_path, capsys):
    """compare on Poschl-Teller N=1 at 200 nodes, with det1 and det2 from
    one engine call, prints the rows of the two separate calls byte for
    byte."""
    path = write_config(tmp_path, {"lambdas": [4.0, {"re": 2.5, "im": 0.5}]},
                        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "compare", "--config", path)
    assert code == 0 and err == ""
    assert out.strip().split("\n")[3:] == [
        "4.0,0.0,0.3333333341508321,0.0,0.3333333333328206,0.0,"
        "0.3333333333328215,0.0,0.3333333341534083,0.0,8.205877088940383e-10",
        "2.5,0.5,0.2303279961170935,0.04677489355606522,0.2303279954675542,"
        "0.046774893472056184,0.23032799546755092,0.046774893472055525,"
        "0.230327996119357,0.04677489355629611,6.572272393262508e-10"]


def test_det_p2_writes_det2_once(tmp_path, capsys):
    """p = 2 has no separate order-p column; p = 3 keeps det1, det2 and
    det3 from the library calls, bit for bit."""
    lams = [4.0, 2.5 + 0.5j]
    grid = wavedet.build_grid(20.0, 200)
    pt = wavedet.builtin_problem("poschl_teller")
    sysm = wavedet.to_system(pt)
    for p, want_header in (
            (2, ["re_lambda", "im_lambda", "re_det1", "im_det1",
                 "re_det2", "im_det2"]),
            (3, ["re_lambda", "im_lambda", "re_det1", "im_det1",
                 "re_det2", "im_det2", "re_det3", "im_det3"])):
        path = write_config(tmp_path,
                            {"lambdas": [{"re": z.real, "im": z.imag}
                                         for z in map(complex, lams)],
                             "p": p},
                            domain={"quad_points": 200})
        code, out, err = run_cli(capsys, "det", "--config", path)
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == want_header
        for row, lam in zip(rows, lams):
            want = [wavedet.det1(pt, lam, grid),
                    wavedet.det2(sysm, lam, grid)]
            if p == 3:
                want.append(wavedet.detp(sysm, lam, grid, p=3))
            for name, d in zip(("det1", "det2", "det3"), want):
                assert complex(float(row[f"re_{name}"]),
                               float(row[f"im_{name}"])) == d.value
        code, out, err = run_cli(capsys, "det", "--config", path,
                                 "--format", "json")
        keys = set(json.loads(out)["rows"][0])
        assert keys == {"lambda", "det1", "det2"} | (
            {"det3"} if p == 3 else set())


def _count_step_exponents(monkeypatch):
    calls = []
    step_exponents = evans._step_exponents

    def counted(*args, **kwargs):
        calls.append(1)
        return step_exponents(*args, **kwargs)
    monkeypatch.setattr(evans, "_step_exponents", counted)
    return calls


def test_evans_pulse_rows(tmp_path, capsys, monkeypatch):
    """E, c, E/c, det D and det(Swinton) per lambda from one minus run
    and one plus run with its adjoint on one grid of Magnus steps: two
    sets of step exponents, the pilot's and the sized steps'."""
    lams = [3.0 + 2.0j, -2.0 + 1.5j]
    path = write_config(tmp_path,
                        {"problem": {"name": "biharmonic_demo"},
                         "lambdas": [{"re": z.real, "im": z.imag}
                                     for z in lams]})
    calls = _count_step_exponents(monkeypatch)
    code, out, err = run_cli(capsys, "evans", "--config", path)
    assert code == 0 and err == ""
    assert len(calls) == 2 * len(lams)
    header, rows = csv_rows(out)
    assert header == ["re_lambda", "im_lambda", "re_evans", "im_evans",
                      "re_c_lambda", "im_c_lambda", "re_ratio", "im_ratio",
                      "re_det_transmission", "im_det_transmission",
                      "re_swinton", "im_swinton", "truncation_error"]
    bs = wavedet.to_system(wavedet.builtin_problem("biharmonic_demo"))
    for row, lam in zip(rows, lams):
        res = evans.evans_function(bs, lam)
        want = {"evans": res.evans, "c_lambda": res.c_lambda,
                "ratio": res.ratio,
                "det_transmission": res.det_transmission,
                "swinton": np.linalg.det(evans.swinton_matrix(bs, lam))}
        for name, value in want.items():
            got = complex(float(row[f"re_{name}"]), float(row[f"im_{name}"]))
            assert abs(got - value) <= 1e-12 * abs(value)
        assert float(row["truncation_error"]) == res.truncation_error
    _, again, _ = run_cli(capsys, "evans", "--config", path)
    assert again == out


def test_evans_front_rows(tmp_path, capsys, monkeypatch):
    """A front has no transmission columns and no adjoint run."""
    cfg = {"problem": {"order": 2, "coeffs": [0.0, 0.0],
                       "profile": {"kind": "tanh_front",
                                   "params": {"amplitude": 1.5,
                                              "offset": -2.5,
                                              "well": 8.0}},
                       "asymptotics": {"v_minus": -4.0, "v_plus": -1.0}},
           "lambdas": [2.0, 3.0], "matching_point": 0.37}
    path = tmp_path / "front.json"
    path.write_text(json.dumps(cfg))
    calls = _count_step_exponents(monkeypatch)
    code, out, err = run_cli(capsys, "evans", "--config", str(path))
    assert code == 0 and err == ""
    assert len(calls) == 2 * 2
    header, rows = csv_rows(out)
    assert header == ["re_lambda", "im_lambda", "re_evans", "im_evans",
                      "re_c_lambda", "im_c_lambda", "re_ratio", "im_ratio",
                      "truncation_error"]
    front = wavedet.to_system(wavedet.builtin_problem(
        "tanh_front", amplitude=1.5, offset=-2.5, well=8.0))
    for row, lam in zip(rows, (2.0, 3.0)):
        want = evans.evans_function(front, lam, matching_point=0.37).ratio
        got = complex(float(row["re_ratio"]), float(row["im_ratio"]))
        assert got == want


def _pairs(lams):
    return [{"re": z.real, "im": z.imag} for z in map(complex, lams)]


_FRONT = {"order": 2, "coeffs": [0.0, 0.0],
          "profile": {"kind": "tanh_front",
                      "params": {"amplitude": 1.5, "offset": -2.5,
                                 "well": 8.0}},
          "asymptotics": {"v_minus": -4.0, "v_plus": -1.0}}

# biharmonic lambdas with different Magnus step and segment counts (the
# segments of the last three, whose characteristic rates are large, are
# shorter than 1), an order-3 problem, whose minus and plus blocks differ
# in width (k = 1 or 2 of 3 columns), and a front matched at 0.37
_BATCHES = {
    "biharmonic": ({"problem": {"name": "biharmonic_demo"}},
                   [3.0 + 2.0j, -2.0 + 1.5j, -300.0 + 40.0j, 0.5 - 1.0j,
                    60.0 - 90.0j, -20000.0 + 3000.0j, -50000.0 + 1000.0j,
                    30000.0j]),
    "order3": ({"problem": {"order": 3, "coeffs": [0.5, 0.0, 0.0],
                            "profile": {"kind": "sech2",
                                        "params": {"amplitude": 1.0,
                                                   "width": 1.0}}}},
               [2.0 + 1.0j, -1.0 + 2.0j, 3.0 - 1.0j]),
    "front": ({"problem": _FRONT, "matching_point": 0.37},
              [2.0, 3.0, 2.0 + 1.0j]),
}


@pytest.mark.parametrize("case", sorted(_BATCHES))
def test_evans_batch_rows_equal_batches_of_one(case, tmp_path, capsys,
                                               monkeypatch):
    """The rows of a list of lambdas are those of each lambda alone, byte
    for byte, also when the list spans several sweep slices."""
    cfg, lams = _BATCHES[case]

    def rows(lams, name):
        path = tmp_path / name
        path.write_text(json.dumps(dict(cfg, lambdas=_pairs(lams))))
        code, out, err = run_cli(capsys, "evans", "--config", str(path))
        assert code == 0 and err == ""
        return out.split("\n")[3:-1]

    batch = rows(lams, "batch.json")
    assert len(batch) == len(lams)
    assert batch == [row for i, lam in enumerate(lams)
                     for row in rows([lam], f"one{i}.json")]
    monkeypatch.setattr(evans, "_SWEEP_SLICE", 2)
    assert rows(lams, "sliced.json") == batch
    if case == "biharmonic":
        sysm = wavedet.to_system(wavedet.builtin_problem("biharmonic_demo"))
        params = evans.IntegrationParams()
        steps = []
        window_steps = evans._window_steps

        def counted(*args):
            pairs, at = window_steps(*args)
            steps.append(at[-1])
            return pairs, at
        monkeypatch.setattr(evans, "_window_steps", counted)
        runs = [evans._lambda_runs(sysm, lam, params, 0.0, False,
                                   *oracles.end_bases(sysm, lam))[0]
                for lam in lams]
        assert len({len(run[3]) for run in runs}) > 2
        assert len(set(steps)) == len(lams)


def test_evans_batch_refusal_matches_the_loop(tmp_path, capsys):
    """A second lambda on the essential spectrum exits 3 with the error
    that the per-lambda loop raises first."""
    lams = [3.0 + 2.0j, 2.0 + 0.0j, -2.0 + 1.5j]
    path = write_config(tmp_path, {"problem": {"name": "biharmonic_demo"},
                                   "lambdas": _pairs(lams)})
    code, out, err = run_cli(capsys, "evans", "--config", path)
    bs = wavedet.to_system(wavedet.builtin_problem("biharmonic_demo"))
    want = None
    for lam in lams:
        try:
            evans.evans_and_swinton(bs, lam)
        except WavedetError as exc:
            want = {"error": {"kind": "numeric", "type": type(exc).__name__,
                              "message": str(exc)}}
            break
    assert want["error"]["type"] == "EssentialSpectrum"
    assert code == 3 and out == ""
    assert json.loads(err) == want


def test_evans_batches_the_qr_sweep(tmp_path, capsys, monkeypatch):
    """Four biharmonic lambdas: one grid of Magnus steps and two sets of
    step exponents (the pilot's and the sized steps') per lambda, one
    sweep, and one stacked QR per segment of the longest run (40 unit
    segments over [-20, 20]), where a sweep per run made 320 single QRs."""
    lams = [3.0 + 2.0j, -2.0 + 1.5j, -4.0 - 1.0j, 1.0 - 3.5j]
    calls = {"_window_steps": 0, "_step_exponents": 0, "_sweep": 0, "qr": 0}
    for owner, name in ((evans, "_window_steps"), (evans, "_step_exponents"),
                        (evans, "_sweep"), (np.linalg, "qr")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    path = write_config(tmp_path, {"problem": {"name": "biharmonic_demo"},
                                   "lambdas": _pairs(lams)})
    code, out, err = run_cli(capsys, "evans", "--config", path)
    assert code == 0
    assert calls == {"_window_steps": 4, "_step_exponents": 8, "_sweep": 1,
                     "qr": 40}


def test_locate_evans_batched_matches_the_loop(tmp_path, capsys,
                                               monkeypatch):
    """locate on the Evans ratio evaluates the contour as lists and finds
    the winding and root of the per-lambda evaluator."""
    sizes = []
    many = evans.evans_function_many

    def counted(system, lams, *args, **kwargs):
        sizes.append(len(lams))
        return many(system, lams, *args, **kwargs)
    monkeypatch.setattr(evans, "evans_function_many", counted)
    low, high = 0.55 - 0.45j, 1.6 + 0.45j
    path = write_config(tmp_path, {
        "problem": {"name": "poschl_teller", "params": {"N": 2}},
        "rectangle": {"corner_low": _pairs([low])[0],
                      "corner_high": _pairs([high])[0]},
        "samples_per_edge": 6, "function": "evans"})
    code, out, err = run_cli(capsys, "locate", "--config", path,
                             "--format", "json")
    assert code == 0
    assert max(sizes) == 24
    report = json.loads(out)["report"]
    pt2 = wavedet.builtin_problem("poschl_teller", N=2)
    sysm = wavedet.to_system(pt2)
    want = locate.locate_roots(
        lambda lam: evans.evans_function(sysm, lam).ratio,
        locate.Contour(low, high, samples_per_edge=6), function_used="evans")
    assert report["winding"] == want.winding == 1
    got = [complex(r["re"], r["im"]) for r in report["roots"]]
    assert len(got) == len(want.roots) == 1
    assert abs(got[0] - want.roots[0]) <= 1e-12 * abs(want.roots[0])
    assert abs(got[0] - 1.0) < 1e-6


def test_det_empty_lambda_list(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": []})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 0
    assert len(out.strip().split("\n")) == 3  # two comments + header


def test_roots_row_layout(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0]})
    code, out, err = run_cli(capsys, "roots", "--config", path)
    assert code == 0
    header, rows = csv_rows(out)
    row = rows[0]
    assert row["k"] == "1"
    assert float(row["re_root_1"]) == pytest.approx(2.0)
    assert float(row["re_root_2"]) == pytest.approx(-2.0)
    assert float(row["re_alpha_1"]) == pytest.approx(-0.25)
    assert float(row["re_alpha_2"]) == pytest.approx(-0.25)
    assert float(row["jump_residual"]) < 1e-12
    assert float(row["moment_residual"]) < 1e-12


# wavedet roots on poschl_teller N=2 at lambda = 4, 2.5 and 3 + 1.5i
_ROOTS_PT2 = "\n".join((
    "# wavedet 0.1.0",
    '# config {"command":"roots","domain":{"half_width":20.0,'
    '"panel_order":10,"quad_points":400},"evans":{"rtol":1e-10},'
    '"lambdas":[{"im":0.0,"re":4.0},{"im":0.0,"re":2.5},{"im":1.5,'
    '"re":3.0}],"matching_point":0.0,"output":{"format":"csv",'
    '"path":null},"problem":{"name":"poschl_teller","params":{"N":2}}}',
    "re_lambda,im_lambda,k,re_root_1,im_root_1,re_root_2,im_root_2,"
    "re_alpha_1,im_alpha_1,re_alpha_2,im_alpha_2,jump_residual,"
    "moment_residual,condition",
    "4.0,0.0,1,2.0,-0.0,-2.0,0.0,-0.25,-0.0,-0.25,0.0,0.0,0.0,"
    "1.9999999999999993",
    "2.5,0.0,1,1.5811388300841898,-0.0,-1.5811388300841898,0.0,"
    "-0.31622776601683794,-0.0,-0.31622776601683794,0.0,0.0,0.0,"
    "1.58113883008419",
    "3.0,1.5,1,1.7824283949502269,0.4207742662340965,-1.7824283949502269,"
    "-0.4207742662340965,-0.2657087370756367,0.06272532416546894,"
    "-0.2657087370756367,0.06272532416546894,1.7956614500671822e-17,0.0,"
    "1.8314207507423532",
    ""))


def test_roots_prints_its_pinned_bytes(tmp_path, capsys):
    path = write_config(tmp_path, {
        "problem": {"name": "poschl_teller", "params": {"N": 2}},
        "lambdas": [4.0, 2.5, {"re": 3.0, "im": 1.5}]})
    assert run_cli(capsys, "roots", "--config", path) == (0, _ROOTS_PT2, "")


def test_roots_splits_the_lambda_batch_once(tmp_path, capsys, monkeypatch):
    """The roots command reads every lambda row off one stacked root
    split."""
    calls = []
    split = greens._split

    def counted(problem, lams):
        calls.append(len(lams))
        return split(problem, lams)

    monkeypatch.setattr(greens, "_split", counted)
    path = write_config(tmp_path, {"lambdas": [4.0, 9.0, {"re": 2.0,
                                                          "im": 1.0}, 0.5]})
    code, out, err = run_cli(capsys, "roots", "--config", path)
    assert code == 0 and err == "" and len(csv_rows(out)[1]) == 4
    assert calls == [4]


@pytest.mark.parametrize("lams,kind,lam", [
    ([3.0, 1.0, 0.0], "EssentialSpectrum", "(1+0j)"),
    ([3.0, 0.0, 1.0], "NearMultipleRoots", "0j")])
def test_roots_refuses_with_the_first_failing_lambda(tmp_path, capsys, lams,
                                                     kind, lam):
    """kappa^2 + 2 kappa + 1 - lambda has a root at 0 for lambda = 1 and a
    double root at -1 for lambda = 0: the batch fails like its first
    failing lambda in input order."""
    path = write_config(tmp_path, {
        "problem": {"order": 2, "coeffs": [1.0, 2.0],
                    "profile": {"kind": "sech2"}},
        "lambdas": lams})
    code, out, err = run_cli(capsys, "roots", "--config", path)
    obj = err_object(err)
    assert code == 3 and out == "" and obj["type"] == kind
    assert f"lambda={lam} " in obj["message"]


def test_locate_finds_the_bound_state(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"rectangle": {"corner_low": {"re": 0.5, "im": -0.5},
                       "corner_high": {"re": 1.5, "im": 0.5}},
         "samples_per_edge": 8},
        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "locate", "--config", path,
                             "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["winding"] == 1
    assert doc["report"]["function_used"] == "det1"
    root = doc["report"]["roots"][0]
    assert abs(complex(root["re"], root["im"]) - 1.0) < 1e-6
    assert doc["rows"][0]["winding"] == 1


def test_locate_reports_abs_value_without_reevaluating(tmp_path, capsys,
                                                       monkeypatch):
    """The abs_value column is |det1| from the polish's last evaluation:
    no batched det1 call after locate_roots returns."""
    calls = []
    det1, det1_many = fredholm.det1, fredholm.det1_many

    def counted(*args, **kwargs):
        calls.append(1)
        return det1_many(*args, **kwargs)

    monkeypatch.setattr(fredholm, "det1_many", counted)
    locate_roots = locate.locate_roots
    done = []

    def recorded(*args, **kwargs):
        report = locate_roots(*args, **kwargs)
        done.append(len(calls))
        return report

    monkeypatch.setattr(locate, "locate_roots", recorded)
    path = write_config(
        tmp_path,
        {"rectangle": {"corner_low": {"re": 0.5, "im": -0.5},
                       "corner_high": {"re": 1.5, "im": 0.5}},
         "samples_per_edge": 8},
        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "locate", "--config", path,
                             "--format", "json")
    assert code == 0
    assert done == [len(calls)] and calls
    row = json.loads(out)["rows"][0]
    pt = wavedet.builtin_problem("poschl_teller")
    root = complex(row["root"]["re"], row["root"]["im"])
    value = det1(pt, root, wavedet.build_grid(20.0, 200)).value
    assert row["abs_value"] == abs(value)


def test_scan_walks_the_grid(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"rectangle": {"corner_low": {"re": 2.0, "im": -0.5},
                       "corner_high": {"re": 3.0, "im": 0.5}},
         "nx": 3, "ny": 2},
        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "scan", "--config", path)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["re_lambda", "im_lambda", "re_det1", "im_det1"]
    assert len(rows) == 6
    assert float(rows[0]["re_lambda"]) == 2.0
    assert float(rows[0]["im_lambda"]) == -0.5


def test_converge_sweeps(tmp_path, capsys):
    path = write_config(tmp_path, {"lambda": 4.0,
                                   "n_list": [100, 200], "x_list": [15.0]})
    code, out, err = run_cli(capsys, "converge", "--config", path,
                             "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert [r["sweep"] for r in rows] == ["N", "N", "X"]
    assert rows[0]["gap"] > rows[1]["gap"]
    assert rows[2]["gap"] < 1e-8


def test_converge_det2_values_and_gaps(tmp_path, capsys):
    """quantity det2: each value is fredholm.det2 of the first-order form
    on its grid, and each gap is |v(N) - v(2N)| or |v(X) - v(X + 5)|."""
    path = write_config(tmp_path, {"lambda": {"re": 3.0, "im": 0.5},
                                   "quantity": "det2", "n_list": [40, 80],
                                   "x_list": [10.0, 15.0]},
                        domain={"quad_points": 80, "panel_order": 8})
    code, out, err = run_cli(capsys, "converge", "--config", path,
                             "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    system = wavedet.to_system(wavedet.builtin_problem("poschl_teller"))

    def det2(half_width, n_points):
        grid = wavedet.build_grid(half_width, n_points, 8)
        return fredholm.det2(system, 3.0 + 0.5j, grid).value

    want = [("N", 40.0, det2(20.0, 40), det2(20.0, 80)),
            ("N", 80.0, det2(20.0, 80), det2(20.0, 160)),
            ("X", 10.0, det2(10.0, 80), det2(15.0, 80)),
            ("X", 15.0, det2(15.0, 80), det2(20.0, 80))]
    assert len(rows) == len(want)
    for row, (sweep, parameter, v, v2) in zip(rows, want):
        assert (row["sweep"], row["parameter"]) == (sweep, parameter)
        assert complex(row["value"]["re"], row["value"]["im"]) == v
        assert row["gap"] == abs(v - v2)


def test_front_determinant_via_cli(tmp_path, capsys):
    cfg = {"problem": {"order": 2, "coeffs": [0.0, 0.0],
                       "profile": {"kind": "tanh_front",
                                   "params": {"amplitude": 1.5,
                                              "offset": -2.5,
                                              "well": 8.0}},
                       "asymptotics": {"v_minus": -4.0, "v_plus": -1.0}},
           "lambdas": [2.0]}
    path = tmp_path / "front.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "det", "--config", str(path))
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["re_lambda", "im_lambda", "re_det2", "im_det2",
                      "re_det3", "im_det3"]
    assert abs(float(rows[0]["re_det2"]) - (-0.5187858769)) < 1e-8
    # the requested p is a column on a front too
    path.write_text(json.dumps(dict(cfg, p=4)))
    code, out, err = run_cli(capsys, "det", "--config", str(path))
    assert code == 0
    header, rows = csv_rows(out)
    assert header[-2:] == ["re_det4", "im_det4"]
    front = wavedet.to_system(wavedet.builtin_problem(
        "tanh_front", amplitude=1.5, offset=-2.5, well=8.0))
    d4, = fredholm.determinants_many(front, [2.0], wavedet.default_grid(),
                                     {"det4": 4})[0]
    assert complex(float(rows[0]["re_det4"]),
                   float(rows[0]["im_det4"])) == d4.value


def test_front_locate_and_scan_walk_batched_det2(tmp_path, capsys,
                                                 monkeypatch):
    """On a front, locate and scan evaluate det2 as lists through
    determinants_many, and their rows are those of the per-lambda
    det2."""
    sizes = []
    many = fredholm.determinants_many

    def counted(system, lams, grid, orders):
        sizes.append(len(lams))
        return many(system, lams, grid, orders)
    monkeypatch.setattr(fredholm, "determinants_many", counted)
    low, high = 3.1 - 0.3j, 3.6 + 0.3j
    rectangle = {"corner_low": _pairs([low])[0],
                 "corner_high": _pairs([high])[0]}
    front = wavedet.to_system(wavedet.builtin_problem(
        "tanh_front", amplitude=1.5, offset=-2.5, well=8.0))
    grid = wavedet.build_grid(20.0, 200)

    def det2(lam):
        return fredholm.det2(front, lam, grid).value

    base = {"problem": _FRONT, "rectangle": rectangle, "function": "det2"}
    path = write_config(tmp_path, dict(base, samples_per_edge=6),
                        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "locate", "--config", path,
                             "--format", "json")
    assert code == 0 and err == ""
    assert max(sizes) == 24
    doc = json.loads(out)
    want = locate.locate_roots(
        det2, locate.Contour(low, high, samples_per_edge=6),
        function_used="det2")
    assert doc["report"]["winding"] == want.winding == 1
    got = [complex(r["re"], r["im"]) for r in doc["report"]["roots"]]
    assert got == list(want.roots)
    assert [row["abs_value"] for row in doc["rows"]] == list(want.abs_values)
    assert abs(got[0] - 3.3279883217) < 1e-6

    sizes.clear()
    path = write_config(tmp_path, dict(base, nx=3, ny=2), name="scan.json",
                        domain={"quad_points": 200})
    code, out, err = run_cli(capsys, "scan", "--config", path,
                             "--format", "json")
    assert code == 0 and err == ""
    assert sizes == [6]
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    for row in rows:
        lam = complex(row["lambda"]["re"], row["lambda"]["im"])
        got = complex(row["det2"]["re"], row["det2"]["im"])
        assert got == det2(lam)


def test_output_file_and_overrides(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0]})
    dest = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "det", "--config", path,
                             "--output", str(dest),
                             "--override", "lambdas=[9.0]",
                             "--override", "domain.quad_points=200")
    assert code == 0 and out == ""
    header, rows = csv_rows(dest.read_text())
    assert len(rows) == 1
    assert float(rows[0]["re_lambda"]) == 9.0
    assert abs(float(rows[0]["re_det1"]) - 0.5) < 1e-6
    config_line = dest.read_text().split("\n")[1]
    echoed = json.loads(config_line[len("# config "):])
    assert echoed["domain"]["quad_points"] == 200


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0, 9.0, {"re": 2.0,
                                                          "im": 1.0}]})
    _, first, _ = run_cli(capsys, "det", "--config", path)
    _, second, _ = run_cli(capsys, "det", "--config", path)
    assert first == second


def test_import_loads_no_scipy():
    """The determinant and Evans routes are numpy-only; scipy is imported
    lazily, by tabulated profiles alone, so it stays out of start-up."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    code = ("import sys, wavedet, wavedet.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _fresh_python(code, *args):
    """stdout of code run by a new interpreter that imports this package."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


_RECTANGLE = {"corner_low": {"re": 3.1, "im": -0.5},
              "corner_high": {"re": 4.9, "im": 0.5}}
# command -> (config, its route modules, the wavedet submodules that its
# process must not load)
_STARTUP = {
    "det": ({"problem": {"name": "poschl_teller"}, "lambdas": [4.0],
             "domain": {"quad_points": 40}},
            {"fredholm"}, {"evans", "locate", "fronts"}),
    "evans": ({"problem": {"name": "biharmonic_demo"},
               "lambdas": [{"re": 3.0, "im": 2.0}]},
              {"evans"}, {"fredholm", "locate", "fronts"}),
    "locate": ({"problem": {"name": "poschl_teller"}, "rectangle": _RECTANGLE,
                "samples_per_edge": 6, "domain": {"quad_points": 100}},
               {"fredholm", "locate"}, {"evans", "fronts"}),
}


@pytest.mark.parametrize("command", [None] + sorted(_STARTUP))
def test_commands_load_only_their_route(command, tmp_path):
    """A bare import loads no submodule but, at most, errors; a command
    loads its own route modules, and neither numpy.ma (which np.unique
    pulls in on numpy 2.x) nor scipy."""
    code = ("import sys, wavedet\n"
            "if sys.argv[1:]:\n"
            "    from wavedet import cli\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted(sys.modules)))")
    args = ()
    if command is not None:
        config = _STARTUP[command][0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = (command, "--config", str(path), "--output",
                str(tmp_path / "out.csv"))
    loaded = set(_fresh_python(code, *args).split())
    assert "numpy.ma" not in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    ours = {m.split(".", 1)[1] for m in loaded if m.startswith("wavedet.")}
    if command is None:
        assert ours <= {"errors"}
    else:
        _, route, unused = _STARTUP[command]
        assert route <= ours and not ours & unused


@pytest.mark.parametrize("command,extra", [
    ("det", {"lambdas": [2.0]}),
    ("locate", {"rectangle": {"corner_low": {"re": 3.1, "im": -0.3},
                              "corner_high": {"re": 3.6, "im": 0.3}},
                "samples_per_edge": 6, "function": "det2"})])
def test_front_commands_load_no_fronts_module(command, extra, tmp_path):
    """A front's Fredholm values take its kernel basis from greens, so its
    commands load the pulse route and not the fronts module."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": _FRONT, "domain":
                                {"quad_points": 100}, **extra}))
    code = ("import sys\n"
            "from wavedet import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted(sys.modules)))")
    loaded = _fresh_python(code, command, "--config", str(path), "--output",
                           str(tmp_path / "out.csv")).split()
    assert "wavedet.fredholm" in loaded and "wavedet.fronts" not in loaded


# dir(wavedet) of the package that imported every submodule eagerly
_PUBLIC_DIR = [
    "ConfigError", "Contour", "CountMismatch", "DeterminantResult",
    "EssentialSpectrum", "EvansResult", "IllConditioned",
    "IntegrationParams",
    "NearMultipleRoots", "NoConvergence", "PhaseJump",
    "QuadratureGrid", "RootReport", "ScalarProblem",
    "SignMismatch", "StiffnessFailure", "SystemProblem",
    "WaveProfile", "WavedetError", "__builtins__",
    "__cached__", "__doc__", "__file__", "__loader__", "__name__",
    "__package__", "__path__", "__spec__", "__version__",
    "build_grid",
    "builtin_problem", "char_roots", "default_grid",
    "det1", "det2", "detp", "errors", "essential_spectrum_distance", "evans",
    "evans_and_swinton", "evans_function", "fredholm", "fronts", "greens",
    "identity_report", "locate",
    "locate_roots", "make_profile", "model",
    "reference_system", "refine_root", "scan", "swinton_matrix",
    "symbol_curve", "tabulated_profile", "to_system"]


def test_lazy_package_keeps_its_public_api():
    """dir(wavedet) is unchanged, every public name is the object of its
    home module, submodules resolve without an import, and the grid and
    parameters keep their old homes' names."""
    fresh = ("import json, wavedet as wd\n"
             "wd.locate.Contour(corner_low=0j, corner_high=1 + 1j)\n"
             "print(json.dumps(dir(wd)))")
    assert json.loads(_fresh_python(fresh)) == _PUBLIC_DIR
    assert [n for n in dir(wavedet) if n != "cli"] == _PUBLIC_DIR
    for name in _PUBLIC_DIR:
        if name.startswith("__"):
            continue
        obj = getattr(wavedet, name)
        if name in {"errors", "evans", "fredholm", "fronts", "greens",
                    "locate", "model"}:
            assert obj is sys.modules[f"wavedet.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj
    assert fredholm.build_grid is wavedet.model.build_grid
    assert fredholm.QuadratureGrid is wavedet.model.QuadratureGrid
    assert fredholm.default_grid is wavedet.model.default_grid
    assert evans.IntegrationParams is wavedet.model.IntegrationParams
    with pytest.raises(AttributeError, match="no_such_name"):
        wavedet.no_such_name


_ROOT = pathlib.Path(__file__).resolve().parent.parent
# documented entry points that no command, script or workload calls
_ENTRY_POINTS = {"detp", "swinton_matrix", "essential_spectrum_distance",
                 "tabulated_profile"}


def _public_members(cls):
    """The public methods and properties that cls defines itself."""
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (property, staticmethod, classmethod)))]


def test_every_public_function_has_a_caller():
    """Each function and class of a submodule's __all__ is used by the
    package outside its own top-level definition, by a script or by a
    benchmark workload, unless it is a documented entry point, and so is
    each public method and property of such a class: read as an attribute
    outside its own definition.  A public name that only the tests use
    belongs in the tests.  Two public classes may not define one member
    name, as a read by name cannot tell them apart.  Names in __all__, in
    _HOMES and in docstrings are strings, so they do not count."""
    used, reads = set(), []
    for path in [*(_ROOT / "src" / "wavedet").glob("*.py"),
                 *(_ROOT / "scripts").glob("*.py"),
                 _ROOT / "perfbench" / "workloads.py"]:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                # a loaded or stored name, or an attribute read
                name = getattr(node, "id", None) or getattr(node, "attr",
                                                             None)
                if name and name != getattr(top, "name", None):
                    used.add(name)
            # every attribute read, with the member definition it sits in
            parts = ([(part, (top.name, getattr(part, "name", None)))
                      for part in top.body]
                     if isinstance(top, ast.ClassDef) else [(top, None)])
            reads += [(node.attr, where) for part, where in parts
                      for node in ast.walk(part)
                      if isinstance(node, ast.Attribute)]
    uncalled, owners = [], {}
    for sub in wavedet._SUBMODULES:
        module = getattr(wavedet, sub)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            # a class re-exported from another submodule is checked there
            homed = inspect.isclass(obj) and obj.__module__ == module.__name__
            if ((inspect.isfunction(obj) or homed)
                    and name not in used | _ENTRY_POINTS):
                uncalled.append(f"{sub}.{name}")
            for member in _public_members(obj) if homed else ():
                owners.setdefault(member, []).append(f"{sub}.{name}")
                if not any(attr == member and where != (name, member)
                           for attr, where in reads):
                    uncalled.append(f"{sub}.{name}.{member}")
    assert uncalled == []
    assert {m: o for m, o in owners.items() if len(o) > 1} == {}


# ---------------------------------------------------------------------------
# failure modes


def err_object(err):
    payload = json.loads(err.strip().split("\n")[-1])
    return payload["error"]


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0], "rectangles": {}})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 2 and out == ""
    obj = err_object(err)
    assert obj["kind"] == "config"
    assert "rectangles" in obj["message"]


@pytest.mark.parametrize("problem,message", [
    ({"name": ["x"]}, "unknown builtin problem ['x']"),
    ({"name": "sech_pulse", "params": {"width": "wide"}},
     "sech width must be a number, not 'wide'"),
    ({"name": "biharmonic_demo", "params": {"amplitude": [1.0]}},
     "biharmonic_demo amplitude must be a number, not [1.0]"),
], ids=["name-list", "profile-param", "biharmonic-amplitude"])
def test_malformed_problem_is_exit_2(problem, message, tmp_path, capsys):
    """A problem name or profile parameter of the wrong type is a config
    error, not a traceback."""
    path = write_config(tmp_path, {"problem": problem, "lambdas": [4.0]})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 2 and out == ""
    obj = err_object(err)
    assert obj["kind"] == "config" and obj["message"] == message


def test_tolerances_block_is_exit_2(tmp_path, capsys):
    """Nothing reads a tolerances block, so a config that sets one is
    refused rather than silently ignored."""
    path = write_config(tmp_path, {"lambdas": [4.0],
                                   "tolerances": {"axis": 1e-6}})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 2 and out == ""
    obj = err_object(err)
    assert obj["kind"] == "config"
    assert obj["message"] == "unknown config key config.tolerances"


# the limits of R for _FRONT: -v(-inf) = 4 and -v(+inf) = 1 in the bottom
# row of its first-order form
_FRONT_R = {"R_minus": [[0.0, 0.0], [4.0, 0.0]],
            "R_plus": [[0.0, 0.0], [{"re": 1.0, "im": 0.0}, 0.0]]}


def test_matrix_asymptotics_that_match_run(tmp_path, capsys):
    path = write_config(tmp_path, {
        "problem": dict(_FRONT, asymptotics=_FRONT_R), "lambdas": [2.0]},
        domain={"quad_points": 100})
    code, out, err = run_cli(capsys, "det", "--config", path, "--format",
                             "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["problem"]["asymptotics"] == _FRONT_R


@pytest.mark.parametrize("block,message", [
    (dict(_FRONT_R, R_minus=[[0.0, 0.0], [5.0, 0.0]]),
     "problem.asymptotics.R_minus disagrees with the limit the profile "
     "reaches"),
    (dict(_FRONT_R, R_plus=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
     "problem.asymptotics.R_plus disagrees with the limit the profile "
     "reaches"),
    (dict(_FRONT_R, R_minus=4.0),
     "problem.asymptotics.R_minus must be a matrix (list of lists)"),
    (dict(_FRONT_R, R_plus=[1.0, 0.0]),
     "problem.asymptotics.R_plus must be a matrix (list of lists)"),
    ({"R_minus": _FRONT_R["R_minus"]},
     "problem.asymptotics needs both R_minus and R_plus"),
    ({"R_plus": _FRONT_R["R_plus"]},
     "problem.asymptotics needs both R_minus and R_plus"),
    (dict(_FRONT_R, v_minus=-4.0),
     "problem.asymptotics: give v_minus/v_plus or R_minus/R_plus, not "
     "both"),
], ids=["disagrees", "wrong-shape", "number", "flat-list", "minus-alone",
        "plus-alone", "both-forms"])
def test_matrix_asymptotics_refusals_are_exit_2(tmp_path, capsys, block,
                                                message):
    path = write_config(tmp_path, {
        "problem": dict(_FRONT, asymptotics=block), "lambdas": [2.0]})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert (code, out) == (2, "")
    assert err_object(err) == {"kind": "config", "type": "ConfigError",
                               "message": message}


def test_wrong_asymptotics_is_exit_2(tmp_path, capsys):
    cfg = {"problem": {"order": 2, "coeffs": [0.0, 0.0],
                       "profile": {"kind": "tanh_front",
                                   "params": {"amplitude": 1.5,
                                              "offset": -2.5,
                                              "well": 8.0}},
                       "asymptotics": {"v_minus": -7.0, "v_plus": -1.0}},
           "lambdas": [2.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "det", "--config", str(path))
    assert code == 2
    assert "v_minus" in err_object(err)["message"]


def test_compare_on_front_is_exit_2(tmp_path, capsys):
    cfg = {"problem": {"name": "tanh_front",
                       "params": {"amplitude": 1.5, "offset": -2.5,
                                  "well": 8.0}},
           "lambdas": [2.0]}
    path = tmp_path / "front.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "compare", "--config", str(path))
    assert code == 2
    assert err_object(err)["kind"] == "config"


def test_locate_refuses_an_essential_sample_as_scan_does(tmp_path, capsys):
    """The contour and the scan grid of this rectangle both hold -1, on
    the essential spectrum: each command's evaluator refuses it through its
    own root split, so both print one error line."""
    path = write_config(tmp_path, {"problem": _PT2,
                                   "domain": {"quad_points": 200},
                                   "rectangle": _box(-1 - 0.5j, 1 + 0.5j)})
    errs = []
    for command in ("locate", "scan"):
        code, out, err = run_cli(capsys, command, "--config", path)
        assert (code, out) == (3, "")
        errs.append(err)
    assert errs[0] == errs[1]
    assert err_object(errs[0]) == {
        "kind": "numeric", "type": "EssentialSpectrum",
        "message": "lambda=(-1+0j) has a characteristic root on the "
                   "imaginary axis"}


def test_locate_reports_a_near_double_root_as_the_root_split_does(
        tmp_path, capsys):
    """kappa^2 + 2 kappa + 1 - lambda has a double root at -1 for lambda =
    0, off the imaginary axis, on the left edge of this contour: locate
    refuses it as the evaluator's root split does, exit 3."""
    path = write_config(tmp_path, {
        "problem": {"order": 2, "coeffs": [1.0, 2.0],
                    "profile": {"kind": "sech2"}},
        "domain": {"quad_points": 100},
        "rectangle": _box(complex(0.0, -0.5), 0.5 + 0.5j)})
    code, out, err = run_cli(capsys, "locate", "--config", path)
    assert (code, out) == (3, "")
    assert err_object(err) == {
        "kind": "numeric", "type": "NearMultipleRoots",
        "message": "characteristic roots at lambda=0j nearly coincide"}


def test_essential_spectrum_is_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [-1.0]})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 3
    obj = err_object(err)
    assert obj["kind"] == "numeric"
    assert obj["type"] == "EssentialSpectrum"


def test_removed_threads_flag_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, {"lambdas": [4.0]})
    with pytest.raises(SystemExit) as exc:
        cli.main(["det", "--config", path, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("order", [0, -3])
def test_nonpositive_panel_order_is_exit_2(tmp_path, capsys, order):
    path = write_config(tmp_path, {"lambdas": [4.0]},
                        domain={"panel_order": order})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 2 and out == ""
    obj = err_object(err)
    assert obj["kind"] == "config"
    assert "panel_order" in obj["message"]


@pytest.mark.parametrize("problem,p", [
    ({"name": "tanh_front",
      "params": {"amplitude": 1.5, "offset": -2.5, "well": 8.0}}, 9),
    ({"name": "poschl_teller"}, 5)], ids=["front_p9", "poschl_teller_p5"])
def test_det_order_out_of_range_is_exit_2(tmp_path, capsys, monkeypatch,
                                          problem, p):
    """p is checked once, before any lambda, for every problem."""
    monkeypatch.setattr(fredholm, "_blocks", None)
    path = write_config(tmp_path, {"problem": problem, "lambdas": [2.0, 3.0],
                                   "p": p})
    code, out, err = run_cli(capsys, "det", "--config", path)
    assert code == 2 and out == ""
    obj = err_object(err)
    assert obj["kind"] == "config"
    assert "2 <= p <= 4" in obj["message"]


_COMMAND_CONFIGS = {
    "roots": {"lambdas": [4.0]}, "det": {"lambdas": [4.0]},
    "evans": {"lambdas": [4.0]}, "compare": {"lambdas": [4.0]},
    "locate": {"rectangle": _RECTANGLE}, "scan": {"rectangle": _RECTANGLE},
    "converge": {}}


@pytest.mark.parametrize("command", sorted(_COMMAND_CONFIGS))
@pytest.mark.parametrize("override,message", [
    ("domain.quad_points=2", "need at least 4 quadrature points"),
    ("evans.rtol=0.5", "rtol out of range (0, 1e-2)"),
    ("evans.rtol=1e-40", "rtol below 1e-14, which float64 rounding cannot "
                         "meet"),
    ("evans.renorm_threshold=1e8", "unknown config key "
                                   "evans.renorm_threshold"),
    ("evans.orthogonalize_interval=1.0", "unknown config key "
                                         "evans.orthogonalize_interval"),
    ("domain.rule=trapezoid", "unknown config key domain.rule"),
    ("domain.half_width=1e308", "half_width is too large: the window "
                                "width 2 * half_width overflows"),
    ('output.path=["x"]', "output.path must be a string or null")],
    ids=["quad_points", "rtol", "rtol_floor", "renorm_threshold",
         "orthogonalize_interval", "rule", "half_width_overflow",
         "output_path_list"])
def test_bad_grid_or_params_is_exit_2_before_any_lambda(
        tmp_path, capsys, monkeypatch, command, override, message):
    """Every command validates the grid and the Jost parameters with its
    config, whichever route it runs, so its handler never starts."""
    def no_handler(run):
        raise AssertionError("handler entered")
    monkeypatch.setitem(cli._HANDLERS, command, no_handler)
    path = write_config(tmp_path, _COMMAND_CONFIGS[command])
    code, out, err = run_cli(capsys, command, "--config", path,
                             "--override", override)
    assert code == 2 and out == ""
    assert err == json.dumps({"error": {"kind": "config",
                                        "message": message,
                                        "type": "ConfigError"}},
                             sort_keys=True) + "\n"


@pytest.mark.parametrize("output,argv", [
    ({"path": 2}, ()), ({"path": True}, ()),
    ({}, ("--override", "output.path=2"))],
    ids=["int", "bool", "override_int"])
def test_output_path_that_is_not_a_string_is_exit_2(tmp_path, output, argv):
    """An integer path would be opened as a file descriptor (a boolean as
    fd 0 or 1) and closed after the rows went to it, so each case runs in
    a fresh interpreter, whose stdout and stderr it would close."""
    path = write_config(tmp_path, {"lambdas": [4.0], "output": output})
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    done = subprocess.run([sys.executable, "-m", "wavedet.cli", "det",
                           "--config", path, *argv], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == json.dumps(
        {"error": {"kind": "config",
                   "message": "output.path must be a string or null",
                   "type": "ConfigError"}}, sort_keys=True) + "\n"


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "det", "--config",
                             str(tmp_path / "nope.json"))
    assert code == 2
    assert err_object(err)["kind"] == "config"


def _sech(**params):
    return {"problem": {"name": "sech_pulse", "params": params},
            "lambdas": [4.0]}


@pytest.mark.parametrize("command,extra,argv,message", [
    ("det", {"lambdas": [math.nan]}, (),
     "lambdas[0] must be finite, not nan"),
    ("det", {"lambdas": [4.0]}, ("--override", "lambdas=[Infinity]"),
     "lambdas[0] must be finite, not inf"),
    ("locate", {"rectangle": {"corner_low": {"re": math.nan, "im": -0.5},
                              "corner_high": {"re": 2.0, "im": 0.5}}}, (),
     "rectangle.corner_low must be finite, not nan"),
    ("evans", {"lambdas": [4.0], "matching_point": math.nan}, (),
     "matching_point must be finite, not nan"),
    ("det", _sech(amplitude=math.nan), (),
     "sech amplitude must be finite, not nan"),
    ("det", _sech(width=math.inf), (), "sech width must be finite, not inf"),
    ("det", {"lambdas": [4.0]}, ("--output", "{tmp}/missing/out.csv"),
     "cannot write {tmp}/missing/out.csv: "),
], ids=["nan_lambda", "inf_lambda_override", "nan_corner",
        "nan_matching_point", "nan_amplitude", "inf_width",
        "unwritable_output"])
def test_a_failure_prints_one_error_line_and_no_rows(
        tmp_path, capsys, command, extra, argv, message):
    """The CLI's failure contract: exit 2 or 3, nothing on stdout, and
    exactly one JSON error object on stderr.  json reads NaN and Infinity
    as numbers, so each is refused naming its key."""
    path = write_config(tmp_path, extra, domain={"quad_points": 80})
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, command, "--config", path, *argv)
    assert code in (2, 3) and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    obj = json.loads(err)["error"]
    assert set(obj) == {"kind", "message", "type"}
    assert obj["message"].startswith(message.replace("{tmp}", str(tmp_path)))


# the resolved config that each command echoes, by key: a new config knob
# shows up here as a test change
_ECHO_COMMON = {"command", "problem", "domain", "evans", "matching_point",
                "output"}
_ECHO_BLOCKS = {"problem": {"name", "params"},
                "domain": {"half_width", "quad_points", "panel_order"},
                "evans": {"rtol"}, "output": {"format", "path"}}
_ECHO_KEYS = {
    "roots": {"lambdas"}, "det": {"lambdas", "p"}, "evans": {"lambdas"},
    "compare": {"lambdas"},
    "locate": {"rectangle", "samples_per_edge", "function"},
    "scan": {"rectangle", "nx", "ny", "function"},
    "converge": {"lambda", "quantity", "n_list", "x_list"}}
_CHEAP = {"scan": {"nx": 2, "ny": 2},
          "converge": {"n_list": [40, 80], "x_list": [10.0, 15.0]}}


@pytest.mark.parametrize("command", sorted(_ECHO_KEYS))
def test_echoed_config_keys_are_pinned(tmp_path, capsys, command):
    path = write_config(tmp_path, dict(_COMMAND_CONFIGS[command],
                                       **_CHEAP.get(command, {})),
                        domain={"quad_points": 80})
    code, out, err = run_cli(capsys, command, "--config", path,
                             "--format", "json")
    assert code == 0 and err == ""
    echo = json.loads(out)["config"]
    assert set(echo) == _ECHO_COMMON | _ECHO_KEYS[command]
    for block, keys in _ECHO_BLOCKS.items():
        assert set(echo[block]) == keys


def _table_paths(table, prefix=""):
    """The dotted key paths of a config table of cli.py, with its nested
    blocks and both tables of a union."""
    if isinstance(table, tuple):
        return _table_paths(table[1], prefix) | _table_paths(table[2], prefix)
    paths = set()
    for key, (check, _) in table.items():
        paths.add(prefix + key)
        if isinstance(check, (dict, tuple)):
            paths |= _table_paths(check, f"{prefix}{key}.")
    return paths


def test_docstring_names_every_config_key():
    """cli.py's module docstring names every key path of its config
    tables, in double backquotes or at the head of a row of its key list,
    and no key that the tables lack."""
    tables = [cli._COMMON] + [keys for _, _, keys in cli._COMMANDS.values()]
    paths = set().union(*map(_table_paths, tables))
    named = (set(re.findall(r"``([\w.]+)``", cli.__doc__))
             | set(re.findall(r"^    (\w+) ", cli.__doc__, re.M)))
    assert named == paths


# ---------------------------------------------------------------------------
# the output bytes of the benchmarked commands

_PT2 = {"name": "poschl_teller", "params": {"N": 2}}


def _box(lo, hi):
    return {"corner_low": {"re": lo.real, "im": lo.imag},
            "corner_high": {"re": hi.real, "im": hi.imag}}


def _locate_pt2(lo, hi):
    return ("locate", {"problem": _PT2, "domain": {"quad_points": 200},
                       "rectangle": _box(lo, hi), "samples_per_edge": 6,
                       "function": "det1"})


# the seed-1 inputs of the benchmark workloads det_pt800, evans_bh and
# locate_pt2, written out: name -> (command, config)
_PINNED = {
    "det_pt800": ("det", {"problem": _PT2, "domain": {"quad_points": 800},
                          "lambdas": _pairs([
                              7.6962594321504625 + 1.205854565609484j,
                              7.418068605587132 - 1.9473466578360876j])}),
    "evans_bh": ("evans", {"problem": {"name": "biharmonic_demo"},
                           "lambdas": _pairs([
                               0.6489688709356246 + 3.154920832897885j,
                               0.2455887929741328 + 3.653538516260178j,
                               -3.89229933375147 - 1.2009794565486038j,
                               0.48718971293353347 + 4.664989323732414j])}),
    "locate_pt2_1": _locate_pt2(
        0.5790706033274334 - 0.47768660426233894j,
        1.6378919824672669 + 0.49829306386281425j),
    "locate_pt2_4": _locate_pt2(
        3.0771072060739177 - 0.4604250597211418j,
        4.852256232291487 + 0.5050271133079713j),
}


_TANH_FRONT = {"name": "tanh_front",
               "params": {"amplitude": 1.5, "offset": -2.5, "well": 8.0}}

# the front paths of the two routes: the reference kernel of det (p = 3)
# and det2, and the end bases of the Jost runs; the locate rectangle holds
# the det2 zero 3.327988 of the reference problem
_PINNED_FRONT = {
    "det_front": ("det", {"problem": _TANH_FRONT,
                          "lambdas": _pairs([2.0 + 0.5j, 3.5 - 0.25j])}),
    "evans_front": ("evans", {"problem": _TANH_FRONT,
                              "lambdas": _pairs([2.0 + 0.5j, 3.5 - 0.25j])}),
    "locate_front_det2": ("locate", {
        "problem": _TANH_FRONT, "domain": {"quad_points": 200},
        "rectangle": _box(3.0 - 0.3j, 3.7 + 0.3j), "samples_per_edge": 6,
        "function": "det2"}),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_benchmark_commands_print_pinned_bytes(tmp_path, name):
    """A new process running the command with --format json prints the
    bytes of tests/pinned/<name>.json to stdout, nothing to stderr, and
    exits 0: a change that moves any printed number fails here."""
    _assert_pinned(tmp_path, name, *_PINNED[name])


def _pinned(name):
    return json.loads((_ROOT / "tests" / "pinned" / f"{name}.json"
                       ).read_text())


def _cplx(pair):
    return complex(pair["re"], pair["im"])


def test_pinned_det_rows_meet_the_closed_forms():
    """Every row of tests/pinned/det_pt800.json is within 1e-10 relative
    of the closed-form det1, det2 and det3 of Poschl-Teller N=2, so a
    re-pin can only carry values that still pass."""
    rows = _pinned("det_pt800")["rows"]
    assert len(rows) == 2
    for row in rows:
        lam = _cplx(row["lambda"])
        for kind, exact in (("det1", oracles.pt_det1),
                            ("det2", oracles.pt_det2),
                            ("det3", oracles.pt_det3)):
            want = exact(2, lam)
            assert abs(_cplx(row[kind]) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("name,eigenvalue", [("locate_pt2_1", 1.0),
                                             ("locate_pt2_4", 4.0)])
def test_pinned_locate_roots_are_the_eigenvalues(name, eigenvalue):
    """The one root of each pinned locate_pt2 rectangle is within 1e-6 of
    the Poschl-Teller N=2 eigenvalue inside it."""
    roots = [_cplx(r) for r in _pinned(name)["report"]["roots"]]
    assert len(roots) == 1 and abs(roots[0] - eigenvalue) <= 1e-6


@pytest.mark.parametrize("name", sorted(_PINNED_FRONT))
def test_front_commands_print_pinned_bytes(tmp_path, name):
    """``test_benchmark_commands_print_pinned_bytes`` of the front
    commands."""
    _assert_pinned(tmp_path, name, *_PINNED_FRONT[name])


def _assert_pinned(tmp_path, name, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(wavedet.__file__)))
    done = subprocess.run([sys.executable, "-m", "wavedet.cli", command,
                           "--config", str(path), "--format", "json"],
                          env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (_ROOT / "tests" / "pinned"
                           / f"{name}.json").read_bytes()
