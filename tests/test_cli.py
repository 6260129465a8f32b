import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfd.cli import COMMANDS, main

PHI = (1 + math.sqrt(5)) / 2
FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
A4 = str(FIXTURES / "a4.json")
HOMOG = str(FIXTURES / "homog.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_spec(tmp_path, name, doc):
    """doc as JSON, or as given when it is already JSON text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def test_perron_a4(capsys):
    report = run_json(capsys, "perron", "--input", A4)
    assert report["command"] == "perron"
    assert report["mode"] == "rational"
    assert len(report["input_digest"]) == 64
    assert abs(float(report["result"]["d"]) - PHI) < 1e-12
    sigma = report["result"]["sigma"]
    assert abs(float(sigma[0][0]) - PHI ** 2) < 1e-12
    assert abs(float(sigma[1][1]) - 1) < 1e-12


def test_perron_integer_dimension(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json", {"D": [[3]]})
    report = run_json(capsys, "perron", "--input", spec)
    assert report["result"]["d"] == "3"
    assert report["result"]["alpha"] == ["1"]


def test_extend_a4(capsys):
    report = run_json(capsys, "extend", "--input", A4)
    res = report["result"]
    assert res["delta_complete"] == [["2", "1"], ["2", "1"]]
    assert res["eta"] == ["1", "1"]
    assert res["xi"] == ["2", "1"]
    assert report["diagnostics"]["objects"] == "4"
    assert len(res["groupoid_values"]) == 4


def test_extend_requires_delta(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json", {"D": [[1, 0], [1, 1]]})
    code, out, err = run(capsys, "extend", "--input", spec)
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_markov_trace_a4(capsys):
    report = run_json(capsys, "markov-trace", "--input", A4)
    res = report["result"]
    assert res["T"] == [["1/2", "0"], ["1/2", "1"]]
    assert res["T_tilde"] == [["2", "2"], ["0", "1"]]
    assert abs(float(res["d_squared"]) - PHI ** 2) < 1e-10
    assert abs(float(res["trace_A"][0]) - PHI ** -2) < 1e-10


def test_markov_trace_float_mode(capsys):
    report = run_json(capsys, "markov-trace", "--input", A4,
                      "--mode", "float")
    assert report["mode"] == "float"
    assert report["result"]["T"][0][0] == "0.5"


def test_markov_trace_domain_error_exit_code(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json",
                      {"D": [[1], [1]], "delta": [[1], [1]]})
    code, out, err = run(capsys, "markov-trace", "--input", spec)
    assert code == 1
    assert json.loads(err)["error"] == "ColumnNormalizationViolation"


def test_tower_steps(capsys):
    report = run_json(capsys, "tower", "--input", A4, "--steps", "3")
    levels = report["result"]["levels"]
    assert levels[0]["matrix"] == [["2", "1"], ["2", "1"]]
    assert levels[1]["matrix"] == [["5/2", "3/2"], ["5/3", "1"]]
    assert levels[2]["matrix"] == [["13/5", "8/5"], ["13/8", "1"]]
    assert levels[3]["matrix"] == [["34/13", "21/13"], ["34/21", "1"]]
    assert report["flags"]["steps"] == "3"
    assert report["diagnostics"]["steps"] == "3"


@pytest.mark.parametrize("mode", [[], ["--mode", "float"]], ids=["plain", "float"])
@pytest.mark.parametrize("fixture", ["docs/fixtures/a4.json", "docs/fixtures/homog.json",
                                     "tests/fixtures/jones.json",
                                     "tests/fixtures/jones_trace.json",
                                     "tests/fixtures/maxmin.json"])
def test_every_command_prints_the_same_tower_levels(capsys, fixture, mode):
    # tower --steps 3, report-all's tower_preview and tower to the fixed
    # point all step through one half-step, so a level has one rendering
    spec = str(FIXTURES.parent.parent / fixture)
    steps = run_json(capsys, "tower", "--input", spec, "--steps", "3", *mode)["result"]["levels"]
    preview = run_json(capsys, "report-all", "--input", spec, *mode)["result"]["tower_preview"]
    full = run_json(capsys, "tower", "--input", spec, *mode)["result"]["levels"]
    assert steps[1:] == preview
    n = min(len(full), len(steps))  # tower may stop before level 3
    assert full[:n] == steps[:n]


def test_tower_iterate(capsys):
    report = run_json(capsys, "tower", "--input", A4)
    assert report["diagnostics"]["converged"] is True
    iters = int(report["diagnostics"]["iterations"])
    assert 0 < iters <= 60
    assert float(report["result"]["residual_to_standard"]) <= 1e-9
    levels = report["result"]["levels"]
    assert len(levels) == iters + 1


def test_tower_table_format(capsys):
    code, out, err = run(capsys, "tower", "--input", A4, "--steps", "1",
                         "--format", "table")
    assert code == 0
    assert "5/2" in out and "3/2" in out and "5/3" in out
    # matrix rows are aligned into columns
    assert any("  " in line for line in out.splitlines() if "5/2" in line)


def test_downward_strict(capsys):
    report = run_json(capsys, "downward", "--input", A4)
    res = report["result"]
    assert res["status"] == "Infeasible"
    assert res["mode"] == "strict"
    assert res["certificate"]["candidate_pi"] == ["1/2", "0"]
    assert res["certificate"]["zero_columns"] == ["1"]
    assert "gamma" not in res


def test_strict_flag_is_gone(capsys):
    # downward is strict unless --markov-tunnel is given; there is no --strict
    with pytest.raises(SystemExit) as info:
        main(["downward", "--input", A4, "--strict"])
    assert info.value.code == 2
    assert "--strict" in capsys.readouterr().err


def test_downward_tunnel(capsys):
    report = run_json(capsys, "downward", "--input", A4, "--markov-tunnel")
    res = report["result"]
    assert res["status"] == "MarkovTunnelOnly"
    assert res["pi"] == ["1/2", "0"]
    assert report["flags"]["markov_tunnel"] is True


def test_downward_feasible_includes_gamma(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json", {"D": [[1], [1]],
                                           "delta": [[2], [2]]})
    report = run_json(capsys, "downward", "--input", spec)
    res = report["result"]
    assert res["status"] == "Feasible"
    assert res["pi"] == ["1/2"]
    assert res["gamma"] == [["1", "1"]]


def test_homogeneity_homog(capsys):
    report = run_json(capsys, "homogeneity", "--input", HOMOG)
    res = report["result"]
    assert res["homogeneous"] is True
    assert res["row_sums"] == ["2", "2"]
    assert report["diagnostics"]["all_flags_agree"] is True


def test_homogeneity_tolerance_sources(capsys, monkeypatch):
    report = run_json(capsys, "homogeneity", "--input", A4)
    assert report["result"]["homogeneous"] is False
    # an absurdly loose env tolerance flips every check; float mode keeps
    # the comparisons tolerance-based instead of exact
    monkeypatch.setenv("MFD_TOLERANCE", "0.5")
    loose = run_json(capsys, "homogeneity", "--input", A4, "--mode", "float")
    assert loose["result"]["homogeneous"] is True
    # an explicit flag wins over the environment
    strict = run_json(capsys, "homogeneity", "--input", A4, "--tol", "1e-9")
    assert strict["result"]["homogeneous"] is False
    monkeypatch.setenv("MFD_TOLERANCE", "not-a-number")
    code, out, err = run(capsys, "homogeneity", "--input", A4)
    assert code == 2


def test_realizable(capsys):
    report = run_json(capsys, "realizable", "--input", A4)
    res = report["result"]
    assert res["realizable"] is True
    assert res["eta"] == ["1", "1"] and res["xi"] == ["2", "1"]
    assert "violation" not in res


def test_morita_rescale_explicit_rho(capsys):
    report = run_json(capsys, "morita-rescale", "--input", A4,
                      "--rho", "1,2")
    res = report["result"]
    assert res["rho"] == ["1", "2"]
    assert res["delta_rescaled"] == [["3", "2"], ["3/2", "1"]]


def test_morita_rescale_to_standard(capsys):
    report = run_json(capsys, "morita-rescale", "--input", A4)
    res = report["result"]
    rho = [float(x) for x in res["rho"]]
    assert abs(rho[0] - 1) < 1e-10 and abs(rho[1] - PHI) < 1e-10
    assert float(res["residual_to_standard"]) < 1e-10


def test_morita_rescale_from_trace_at_tolerance_zero(capsys, tmp_path):
    # The weights come from the potentials of delta: the float ratio
    # delta/sigma is not factorized again, so its last-digit cycle
    # mismatch cannot fail a tolerance-0 check.
    spec = write_spec(tmp_path, "t.json", {"D": [[1, 1], [1, 2]],
                                           "trace_A": ["1/3", "2/3"], "tolerance": 0})
    report = run_json(capsys, "morita-rescale", "--input", spec)
    assert report["result"]["rho"] == ["1", "1.3090169943749477"]


def test_morita_rescale_bad_rho(capsys):
    code, out, err = run(capsys, "morita-rescale", "--input", A4,
                         "--rho", "1,2,3")
    assert code == 2
    for rho in ("0,1", "-1,2", ""):
        code, out, err = run(capsys, "morita-rescale", "--input", A4, f"--rho={rho}")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert error["payload"]["field"] == "--rho"


def test_loopbasis_verify(capsys):
    report = run_json(capsys, "loopbasis-verify", "--input", A4)
    res = report["result"]
    assert res["ok"] is True
    assert res["loop_counts"] == {"N0": "5", "N1": "13"}
    assert res["transfer_matrix"] == [["1", "2"], ["1/2", "2"]]
    assert float(res["watatani_deviation"]) <= 1e-10
    assert float(res["pp_deviation"]) <= 1e-10
    assert report["diagnostics"]["basis_size"] == "7"
    assert abs(float(res["h_inf"][0]) - (1 + 2 * PHI) / (2 + PHI)) < 1e-10


@pytest.mark.parametrize("steps, levels", [(None, 7), ("0", 1), ("1", 2), ("3", 4), ("10", 11)])
def test_loopbasis_verify_steps_gives_levels_h0_to_hN(capsys, steps, levels):
    extra = [] if steps is None else ["--steps", steps]
    report = run_json(capsys, "loopbasis-verify", "--input", A4, *extra)
    densities = report["result"]["densities"]
    assert len(densities) == levels
    assert densities[0] == ["1", "1"]


def test_loopbasis_verify_needs_m0(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json", {"D": [[1, 0], [1, 1]]})
    code, out, err = run(capsys, "loopbasis-verify", "--input", spec)
    assert code == 2
    assert json.loads(err)["message"].count("m0") == 1


def test_loopbasis_verify_disconnected_lambda(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json", {"D": [[1, 0], [1, 1]], "m0": [1, 1],
                                           "Lambda": [[1, 0], [0, 1]]})
    code, out, err = run(capsys, "loopbasis-verify", "--input", spec)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DisconnectedSupport"


def test_disconnected_support_components_serialize_as_sorted_lists(capsys, tmp_path):
    # the payload's row and column index sets become sorted lists, not set reprs
    spec = write_spec(tmp_path, "t.json", {"D": [[0]]})
    code, out, err = run(capsys, "perron", "--input", spec)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "DisconnectedSupport"
    assert error["payload"]["components"] == [[["0"], []], [[], ["0"]]]


def test_report_all_sections_and_stability(capsys):
    code, first, err = run(capsys, "report-all", "--input", A4)
    assert code == 0
    code, second, err = run(capsys, "report-all", "--input", A4)
    assert first == second  # byte-stable output
    report = json.loads(first)
    sections = report["result"]
    assert sections["validate"] == {"a": "2", "b": "2", "edges": "3",
                                    "connected": True}
    assert sections["extremality"] == {"E1": True, "E2": True, "E3": True,
                                       "extremal": True}
    assert sections["homogeneity"]["homogeneous"] is False
    assert sections["downward"]["strict"]["status"] == "Infeasible"
    assert sections["downward"]["markov_tunnel"]["status"] == "MarkovTunnelOnly"
    assert sections["realizability"]["realizable"] is True
    assert float(sections["standard_fixed_point_residual"]) < 1e-12
    assert sections["tower_preview"][0]["matrix"] == \
        [["5/2", "3/2"], ["5/3", "1"]]
    fd = sections["finite_dimensional"]
    assert fd["m1"] == ["3", "2"]
    assert fd["super_extremal"] is False
    assert report["diagnostics"]["delta_source"] == "explicit"


def test_report_all_standard_delta_source(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json", {"D": [[1, 0], [1, 1]],
                                           "tolerance": 1e-9})
    report = run_json(capsys, "report-all", "--input", spec)
    assert report["diagnostics"]["delta_source"] == "standard"
    assert report["result"]["homogeneity"]["homogeneous"] is True


def test_rational_pair_entries(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json",
                      {"D": [[1, 1]], "delta": [[[5, 2], "1"]]})
    report = run_json(capsys, "extend", "--input", spec)
    assert report["result"]["delta_complete"] == [["5/2", "1"]]
    bad = write_spec(tmp_path, "bad.json",
                     {"D": [[1]], "delta": [[[1, 0]]]})
    code, out, err = run(capsys, "extend", "--input", bad)
    assert code == 2
    worse = write_spec(tmp_path, "worse.json",
                       {"D": [[1]], "delta": [[[1, 2, 3]]]})
    code, out, err = run(capsys, "extend", "--input", worse)
    assert code == 2


def test_parse_errors_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "perron", "--input", missing)
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out, err = run(capsys, "perron", "--input", str(garbled))
    assert code == 2
    nodim = write_spec(tmp_path, "nodim.json", {"delta": [[1]]})
    code, out, err = run(capsys, "perron", "--input", nodim)
    assert code == 2
    badshape = write_spec(tmp_path, "badshape.json",
                          {"a": 3, "D": [[1, 0], [1, 1]]})
    code, out, err = run(capsys, "perron", "--input", badshape)
    assert code == 2
    longint = tmp_path / "longint.json"
    longint.write_text('{"D": [[' + "1" * 5000 + "]]}")
    code, out, err = run(capsys, "perron", "--input", str(longint))
    assert code == 2 and json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("command, doc", [
    ("report-all", {"D": [["1e-160"]]}),
    ("perron", {"D": [[1e-150, 1e150], [1, 1e-150]], "number_mode": "float"}),
    ("homogeneity", {"D": [[1e-150, 1e150], [1, 1e-150]], "number_mode": "float"}),
    ("downward", {"D": [[1, 1, 0], [0, 1, 1]], "number_mode": "float",
                  "delta": [[1e-200, 1e200, None], [None, 1e-200, 1e200]]}),
])
def test_double_range_failures_are_domain_errors(capsys, tmp_path, command, doc):
    # in-range input whose computation over- or underflows a double
    code, out, err = run(capsys, command, "--input", write_spec(tmp_path, "t.json", doc))
    assert code == 1 and out == ""
    assert set(json.loads(err)) == {"error", "message", "payload"}


def test_report_all_passes_on_a_small_scalar(capsys, tmp_path):
    # the Phi levels of 1e-108 stay within the double range
    spec = write_spec(tmp_path, "t.json", {"D": [["1e-108"]]})
    assert run(capsys, "report-all", "--input", spec)[0] == 0


@pytest.mark.parametrize("command", ["perron", "tower", "report-all"])
def test_underflowing_gram_matrix_leaves_one_json_error(command):
    # D^T D underflows to 0: the solve refuses the eigenvalue 0, and stderr
    # holds this one JSON error line alone, with no warning before it
    with tempfile.TemporaryDirectory() as tmp:
        spec = write_spec(Path(tmp), "t.json", {"D": [["1e-200"]]})
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "mfd.cli", command, "--input", spec],
                              capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ('{"error": "FloatingPointError", "message": "the Perron eigenvalue '
                           'of M^T M underflows to 0", "payload": {}}\n')


def test_overflowing_gram_matrix_leaves_one_json_error():
    # D^T D overflows: the solve refuses the non-finite G v, and stderr holds
    # this one JSON error line alone, with no warning before it
    with tempfile.TemporaryDirectory() as tmp:
        spec = write_spec(Path(tmp), "t.json", {"D": [["1e155", 1], [1, 1]]})
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "mfd.cli", "perron", "--input", spec],
                              capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ('{"error": "NonConvergence", "message": "eigen-solve failed its '
                           'residual check (residual nan)", "payload": {"max_iter": null, '
                           '"residual": "nan"}}\n')


@pytest.mark.parametrize("read", [0, 10])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(read):
    # The reader closes the pipe after `read` bytes; at 0 it does so before
    # the interpreter has started, so the report's first write fails.  The
    # command ends quietly: exit 1 if its write failed, 0 if it was done.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "mfd.cli", "report-all", "--input", A4],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() in ((1,) if read == 0 else (0, 1))
    assert err == b""


LAYERS = ("core", "distortion", "tower", "markov", "morita", "linear", "lp", "loopbasis",
          "numbers")
COLD_START = """
import contextlib, io, json, sys
import mfd.cli
missing = [m for m in LAYERS if "mfd." + m not in sys.modules]
runs = []
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = mfd.cli.main(argv)
    runs.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps([missing, runs]))
"""


def test_cold_start_loads_numpy_only_for_the_loop_model(tmp_path):
    # A fresh interpreter: import mfd.cli imports every layer module, whose
    # public functions the benchmark's tracer wraps, but not numpy.  Perron
    # data are solved in plain Python, so no command loads it, nor does a
    # spec that fails to parse, until loopbasis-verify builds a loop model.
    bad = write_spec(tmp_path, "bad.json", {"D": [[1, "x"]]})
    argvs = ([[command, "--input", A4] for command in COMMANDS if command != "loopbasis-verify"]
             + [["morita-rescale", "--input", A4, "--rho", "1,2"], ["perron", "--input", bad],
                ["loopbasis-verify", "--input", A4]])
    script = COLD_START.replace("LAYERS", repr(LAYERS)).replace("ARGVS", repr(argvs))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    missing, runs = json.loads(proc.stdout)
    assert missing == []
    assert [name for name, _, numpy in runs if numpy] == ["loopbasis-verify"]
    assert {name for name, code, _ in runs if code == 0} >= set(COMMANDS)
    assert runs[-2] == ["perron", 2, False]


COLD_IMPORT = """
import json, sys
import mfd.cli
print(json.dumps([[m for m in LAYERS if "mfd." + m not in sys.modules],
                  sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))]))
"""


def test_cold_import_generates_no_code():
    # import mfd.cli loads every layer but none of dataclasses, inspect and
    # typing: its records are plain classes.  -S keeps site from importing
    # typing itself, as a .pth file of an installed package may.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT.replace("LAYERS", repr(LAYERS))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_huge_exponent_is_refused_before_it_is_built(capsys, tmp_path):
    for text in ("1e4000000", "-1e4000000", "1e-4000000"):
        spec = write_spec(tmp_path, "t.json", {"D": [[text, 1], [1, 1]]})
        start = time.perf_counter()
        code, out, err = run(capsys, "perron", "--input", spec)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and json.loads(err)["payload"]["field"] == "D[0][0]"


def test_zero_entries_still_parse(capsys, tmp_path):
    spec = write_spec(tmp_path, "t.json",
                      '{"D": [[1, 0.0, "0e5"], [1, 1, 1], [0e5, "0.0", 1]]}')
    for mode in ("rational", "float"):
        report = run_json(capsys, "report-all", "--input", spec, "--mode", mode)
        assert report["result"]["validate"]["edges"] == "5"


NAN, INF = float("nan"), float("inf")
A4_D = [[1, 0], [1, 1]]


@pytest.mark.parametrize("command, doc, field", [
    ("loopbasis-verify", {"D": A4_D, "m0": ["3/2", 1], "Lambda": [[1, 0], [1, 1]]}, "m0[0]"),
    ("loopbasis-verify", {"D": A4_D, "m0": [1, 0], "Lambda": [[1, 0], [1, 1]]}, "m0[1]"),
    ("loopbasis-verify", {"D": A4_D, "m0": [1, 2], "Lambda": [[1.5, 0], [1, 1]]},
     "Lambda[0][0]"),
    ("report-all", {"D": A4_D, "m0": [1, 2], "Lambda": [[1, 0], [-1, 1]]}, "Lambda[1][0]"),
    ("loopbasis-verify", {"D": A4_D, "m0": [1, 2, 3], "Lambda": [[1, 0], [1, 1]]}, "Lambda"),
    ("perron", {"D": [[NAN, 0], [1, 1]], "number_mode": "float"}, "D[0][0]"),
    ("perron", {"D": [[INF, 0], [1, 1]], "number_mode": "float"}, "D[0][0]"),
    ("perron", {"D": [[1, 0], [-INF, 1]]}, "D[1][0]"),
    ("perron", {"D": [["1e999", 0], [1, 1]], "number_mode": "float"}, "D[0][0]"),
    ("perron", {"D": [[1, 10 ** 400], [1, 1]], "number_mode": "float"}, "D[0][1]"),
    ("perron", {"D": A4_D, "Delta": [[2, 0], [1, INF]], "number_mode": "float"},
     "Delta[1][1]"),
    ("extend", {"D": A4_D, "delta": [[NAN, None], [1, 1]], "number_mode": "float"},
     "delta[0][0]"),
    ("markov-trace", {"D": A4_D, "trace_A": [1, NAN], "number_mode": "float"}, "trace_A[1]"),
    ("markov-trace", {"D": A4_D, "trace_B": [INF, 1], "number_mode": "float"}, "trace_B[0]"),
    ("perron", {"D": [[1, "x"], [1, 1]]}, "D[0][1]"),
    ("perron", {"D": [[1, 1], [1]]}, "D[1]"),
    ("tower", {"D": A4_D, "Delta": [[1, 0, 1], [1, 1]]}, "Delta[1]"),
    ("homogeneity", {"D": A4_D, "tolerance": -1e-6}, "tolerance"),
    # delta, trace_A and trace_B entries must be numbers > 0, even for a
    # command that never reads them
    ("perron", {"D": A4_D, "delta": [[-1, None], [2, 1]]}, "delta[0][0]"),
    ("extend", {"D": A4_D, "delta": [[2, None], [0, 1]]}, "delta[1][0]"),
    ("tower", {"D": A4_D, "delta": [[2, None], [2, [-1, 2]]], "number_mode": "float"},
     "delta[1][1]"),
    ("markov-trace", {"D": A4_D, "trace_A": [1, 0]}, "trace_A[1]"),
    ("report-all", {"D": A4_D, "trace_A": ["-1/2", 1], "number_mode": "float"}, "trace_A[0]"),
    ("homogeneity", {"D": A4_D, "trace_A": [None, 1]}, "trace_A[0]"),
    ("perron", {"D": A4_D, "trace_B": [1, None]}, "trace_B[1]"),
    ("perron", {"D": A4_D, "trace_B": [0.0, 1]}, "trace_B[0]"),
    ("perron", {"D": A4_D, "Delta": [[1, 0, 1], [1, 1, 1]]}, "Delta"),
    ("extend", {"D": A4_D, "delta": [[2, None, 1]]}, "delta"),
    # exact values outside the double range, which the spectral solves need
    ("perron", {"D": [["1e999", 0], [1, 1]]}, "D[0][0]"),
    ("perron", {"D": [[[10 ** 400, 3], 0], [1, 1]], "number_mode": "float"}, "D[0][0]"),
    ("markov-trace", {"D": A4_D, "trace_A": ["1e-999", 1]}, "trace_A[0]"),
    # below the double range in float mode and as a JSON number in either
    # mode, instead of a silent 0 that drops a support edge
    ("report-all", {"D": [["1e-999", 1], [1, 1]], "number_mode": "float"}, "D[0][0]"),
    ("report-all", {"D": [["1e-324", 1], [1, 1]], "number_mode": "float"}, "D[0][0]"),
    ("report-all", '{"D": [[1e-999, 1], [1, 1]], "number_mode": "float"}', "D[0][0]"),
    ("perron", '{"D": [[1, -1e-999], [1, 1]]}', "D[0][1]"),
    # the shape of the document, its fields and their lengths; an error
    # about the whole document names the file in place of a field
    ("perron", [A4_D], None),
    ("perron", {"D": [1, 1]}, "D"),
    ("markov-trace", {"D": A4_D, "trace_A": []}, "trace_A"),
    ("perron", {"D": A4_D, "b": 3}, "b"),
    ("markov-trace", {"D": A4_D, "trace_A": [1]}, "trace_A"),
    ("markov-trace", {"D": A4_D, "trace_B": [1, 1, 1]}, "trace_B"),
    ("loopbasis-verify", {"D": A4_D, "m0": [1, 2]}, "m0"),
])
def test_malformed_entries_are_parse_errors(capsys, tmp_path, command, doc, field):
    spec = write_spec(tmp_path, "t.json", doc)
    code, out, err = run(capsys, command, "--input", spec)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["payload"]["field"] == field
    named = spec if field is None else field
    assert payload["message"].startswith(named + ": ")
    assert payload["message"].count(named) == 1


@pytest.mark.parametrize("command, options, field", [
    ("homogeneity", ["--tol=-1e-9"], "--tol"),
    ("perron", ["--tol", "-0.5"], "--tol"),
    ("batch", ["--tol", "nan", "--command", "perron"], "--tol"),
    ("tower", ["--steps", "-1"], "--steps"),
    ("tower", ["--max-iter", "0"], "--max-iter"),
    ("tower", ["--max-iter", "-3"], "--max-iter"),
])
def test_bad_options_are_parse_errors(capsys, command, options, field):
    target = str(FIXTURES) if command == "batch" else A4
    code, out, err = run(capsys, command, "--input", target, *options)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["payload"]["field"] == field


def test_tol_reaches_every_cycle_check(capsys, tmp_path):
    # a 5e-8 cycle defect: within --tol 1e-5, outside the default 1e-12
    spec = write_spec(tmp_path, "t.json", {"D": [[1, 1], [1, 1]],
                                           "delta": [[1.0, 1.0], [1.0, 1.00000005]],
                                           "number_mode": "float"})
    for command in ("extend", "tower", "homogeneity", "realizable", "report-all"):
        run_json(capsys, command, "--input", spec, "--tol", "1e-5")
    run_json(capsys, "tower", "--input", spec, "--tol", "1e-5", "--steps", "2")
    code, out, err = run(capsys, "tower", "--input", spec)
    assert code == 1 and json.loads(err)["error"] == "CycleViolation"


def test_tol_is_the_tower_convergence_test(capsys, tmp_path, monkeypatch):
    default = run_json(capsys, "tower", "--input", A4)
    assert int(default["diagnostics"]["iterations"]) == 11
    # --tol 0 asks for the fixed point itself, so the tower does not stop
    # at the 1e-9 default
    code, out, err = run(capsys, "tower", "--input", A4, "--tol", "0", "--max-iter", "30")
    payload = json.loads(err)
    assert code == 1 and payload["error"] == "NonConvergence"
    assert float(payload["payload"]["residual"]) < 1e-9
    # the spec's tolerance field and MFD_TOLERANCE reach it too
    loose = dict(json.loads(Path(A4).read_text()), tolerance=1e-3)
    spec = write_spec(tmp_path, "loose.json", loose)
    for report in (run_json(capsys, "tower", "--input", spec),
                   run_json(capsys, "tower", "--input", A4, "--tol", "1e-3")):
        assert report["diagnostics"]["iterations"] == "4"
        assert 1e-9 < float(report["result"]["residual_to_standard"]) <= 1e-3
    monkeypatch.setenv("MFD_TOLERANCE", "1e-3")
    assert run_json(capsys, "tower", "--input", A4)["diagnostics"]["iterations"] == "4"


def test_tower_converges_when_jones_differs_from_d(capsys, tmp_path):
    # Phi runs on the Jones matrix, so the tower heads for the standard
    # distortion of Delta, which is what it reports and measures against
    doc = {"D": [[1, 1], [1, 2]], "Delta": [[2, 1], [1, 3]],
           "delta": [[1, 1], [1, 1]], "number_mode": "float"}
    report = run_json(capsys, "tower", "--input", write_spec(tmp_path, "j.json", doc))
    assert report["diagnostics"]["converged"] is True
    assert float(report["result"]["residual_to_standard"]) <= 1e-9
    # the Perron data of Delta: d^2 = (15 + sqrt 125) / 2, sigma_00 = (5 + sqrt 5) / 2
    sigma = [[float(x) for x in row] for row in report["result"]["sigma"]]
    assert sigma[0][0] == pytest.approx((5 + math.sqrt(5)) / 2, rel=1e-12)
    last = [[float(x) for x in row] for row in report["result"]["levels"][-1]["matrix"]]
    for got, want in zip(last, sigma):
        assert got == pytest.approx(want, rel=1e-9)


def test_batch(capsys, tmp_path):
    batch_dir = tmp_path / "specs"
    batch_dir.mkdir()
    (batch_dir / "a4.json").write_text(Path(A4).read_text())
    (batch_dir / "homog.json").write_text(Path(HOMOG).read_text())
    (batch_dir / "broken.json").write_text("{oops")
    (batch_dir / "ignored.txt").write_text("not a spec")
    report = run_json(capsys, "batch", "--input", str(batch_dir),
                      "--command", "perron")
    assert report["command"] == "batch"
    assert report["sub_command"] == "perron"
    assert report["summary"] == {"total": "3", "ok": "2",
                                 "domain_error": "0", "parse_error": "1"}
    assert report["reports"]["broken.json"]["error"] == "ParseError"
    assert abs(float(report["reports"]["a4.json"]["result"]["d"]) - PHI) < 1e-12


def test_batch_domain_error_isolation(capsys, tmp_path):
    batch_dir = tmp_path / "specs"
    batch_dir.mkdir()
    (batch_dir / "ok.json").write_text(json.dumps({"D": [[2]]}))
    (batch_dir / "bad.json").write_text(
        json.dumps({"D": [[1], [1]], "delta": [[1], [1]]}))
    report = run_json(capsys, "batch", "--input", str(batch_dir),
                      "--command", "markov-trace")
    assert report["summary"]["ok"] == "1"
    assert report["summary"]["domain_error"] == "1"
    assert report["reports"]["bad.json"]["error"] == \
        "ColumnNormalizationViolation"


def test_batch_requires_directory(capsys):
    code, out, err = run(capsys, "batch", "--input", A4,
                         "--command", "perron")
    assert code == 2


def test_command_option_belongs_to_batch_alone(capsys):
    # One parser serves every command; batch needs --command and no other
    # command takes it, each misuse ending in one JSON line and exit 2.
    for argv, message in ((["batch", "--input", str(FIXTURES)], "--command: required by batch"),
                          (["perron", "--input", A4, "--command", "perron"],
                           "--command: taken only by batch, not by perron")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1)
        doc = json.loads(err)
        assert (doc["error"], doc["message"], doc["payload"]) == (
            "ParseError", message, {"field": "--command"})


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command", "--input", A4])
    assert info.value.code == 2


# Spec documents for the fuzz test: mostly well-formed small inclusions,
# so that the commands get past parsing, with every kind of bad entry
# mixed in.
_junk = st.one_of(
    st.integers(-3, 9),
    st.integers(-10 ** 400, 10 ** 400),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-9, 9)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-400, 400)),
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 99)),
    st.sampled_from(["x", "", "1/", "--1", "0x10", "1.2.3", "nan", "Infinity", " 2 "]),
    st.none(),
    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    st.lists(st.integers(-9, 9), max_size=3),
    st.booleans(),
    st.floats(),
)
_count = st.integers(0, 3)
_positive = st.one_of(st.integers(1, 4), st.sampled_from(["1/2", "3/2", "2.5"]),
                      st.floats(0.1, 4))


def _fuzz_matrix(a, b, good):
    row = st.lists(st.one_of(good, good, good, _junk), min_size=b, max_size=b)
    ragged = st.lists(good, min_size=1, max_size=4)
    return st.lists(st.one_of(row, row, row, row, ragged), min_size=a, max_size=a)


def _fuzz_vector(n, good):
    return st.lists(st.one_of(good, good, good, _junk), min_size=n, max_size=n)


@st.composite
def _fuzz_spec(draw):
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {"D": draw(_fuzz_matrix(a, b, _count))}
    optional = {
        "Delta": _fuzz_matrix(a, b, _count),
        "delta": _fuzz_matrix(a, b, st.one_of(_positive, st.none())),
        "trace_A": _fuzz_vector(a, _positive),
        "trace_B": _fuzz_vector(b, _positive),
        "m0": _fuzz_vector(a, st.integers(1, 3)),
        "Lambda": _fuzz_matrix(a, b, _count),
        "tolerance": st.one_of(st.sampled_from([1e-9, "1e-6", 0]), _junk),
        "number_mode": st.sampled_from(["rational", "float", "complex", None, 3]),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        doc[key] = draw(optional[key])
    if draw(st.integers(0, 9)) == 0:
        del doc["D"]
    return doc


@settings(max_examples=200, deadline=None)
@given(_fuzz_spec(), st.sampled_from(COMMANDS + ("batch",)), st.sampled_from(COMMANDS),
       st.booleans())
def test_cli_fuzz_exit_codes_and_json(doc, command, sub_command, float_mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        if command == "batch":
            argv = ["batch", "--input", tmp, "--command", sub_command]
        else:
            argv = [command, "--input", path]
        argv += ["--max-iter", "200"] + (["--mode", "float"] if float_mode else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        report = json.loads(out.getvalue())
        assert report["command"] == command
    else:
        assert out.getvalue() == ""
        payload = json.loads(err.getvalue())
        assert isinstance(payload, dict) and "error" in payload and "message" in payload


def _patch_everywhere(monkeypatch, fn, replacement):
    """Bind replacement in every mfd module namespace that holds fn."""
    modules = [m for n, m in sys.modules.items() if n == "mfd" or n.startswith("mfd.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


def _count_calls(monkeypatch, *functions):
    """Call counts of the given (module, name) functions."""
    counts = {}
    for owner, name in functions:
        fn = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        _patch_everywhere(monkeypatch, fn, counted)
    return counts


def _rows(matrix):
    return tuple(tuple(float(x) for x in row) for row in matrix)


def _count_solves(monkeypatch):
    """_solve_perron calls per matrix, keyed by its float rows."""
    from mfd import core

    solves = Counter()
    solve = core._solve_perron

    def counted(M, graph):
        solves[_rows(M)] += 1
        return solve(M, graph)

    monkeypatch.setattr(core, "_solve_perron", counted)
    return solves


def test_report_all_solves_each_engine_once(capsys, monkeypatch):
    # One spec, one analysis: the sections share Perron data, the completed
    # delta and the Markov trace pair; D (= Delta) is solved once, and the
    # loop model's Lambda, equal to D in both fixtures, shares that solve.
    import mfd
    from mfd import distortion, markov

    counts = _count_calls(monkeypatch, (markov, "markov_trace"), (distortion, "factorize"))
    solves = _count_solves(monkeypatch)
    assert mfd.cli.main(["report-all", "--input", A4]) == 0
    capsys.readouterr()
    a4 = _rows([[1, 0], [1, 1]])
    assert solves == {a4: 1}
    assert counts["markov_trace"] == 1
    assert counts["factorize"] <= 2  # the spec's delta, and sigma for one Phi step
    solves.clear()
    assert mfd.cli.main(["report-all", "--input", HOMOG]) == 0
    capsys.readouterr()
    assert solves == {_rows([[1], [1]]): 1}


def test_tower_with_jones_solves_its_limit_once(capsys, monkeypatch, tmp_path):
    # Delta once, for the tower's limit: the iteration reports the limit it
    # converged to, and D is never solved.
    spec = write_spec(tmp_path, "jones.json", {"D": [[1, 0], [1, 1]], "Delta": [[2, 0], [1, 3]],
                                               "delta": [[2, None], [2, 1]]})
    solves = _count_solves(monkeypatch)
    report = run_json(capsys, "tower", "--input", spec)
    assert report["diagnostics"]["converged"] is True
    assert solves == {_rows([[2, 0], [1, 3]]): 1}


JONES = str(Path(__file__).resolve().parent / "fixtures" / "jones.json")
JONES_TRACE = str(Path(__file__).resolve().parent / "fixtures" / "jones_trace.json")


def _verdicts(capsys, spec):
    """(realizable's report, markov-trace's exit code and output,
    report-all's realizability and markov_trace sections) on one spec."""
    realizable = run_json(capsys, "realizable", "--input", spec)["result"]
    code, out, err = run(capsys, "markov-trace", "--input", spec)
    sections = run_json(capsys, "report-all", "--input", spec)["result"]
    return (realizable, code, json.loads(out if code == 0 else err),
            sections["realizability"], sections["markov_trace"])


def test_one_realizability_verdict_when_jones_differs_from_d(capsys):
    # The column sums of Delta/delta decide realizable, markov-trace and
    # both report-all sections: column 0 of the spec's delta sums to 3/2.
    realizable, code, err, section, trace = _verdicts(capsys, JONES)
    assert code == 1 and err["error"] == "ColumnNormalizationViolation"
    assert err["payload"] == {"column": "0", "value": "3/2"}
    assert realizable["realizable"] is False and section == realizable
    assert realizable["violation"] == {"column": "0", "xi": "2", "eta_dot_D": "3"}
    assert trace == {k: err[k] for k in ("error", "message")}
    # The delta of trace_A is built with xi = eta Delta, so it is realizable
    # and its Markov trace restricts to trace_A.
    realizable, code, out, section, trace = _verdicts(capsys, JONES_TRACE)
    assert code == 0 and realizable["realizable"] is True and section == realizable
    assert trace == out["result"]
    got = [float(x) for x in out["result"]["trace_A"]]
    assert got == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_realizability_verdict_is_independent_of_the_gauge(capsys, tmp_path):
    # Delta = D, but eta_1 is 1e-9 in the gauge eta_0 = 1: comparing xi with
    # eta D absolutely passed column 1, whose sum of D/delta is 0.5.
    spec = write_spec(tmp_path, "gauge.json", {
        "D": [[1, 0], [1, 1]], "delta": [["1.000000001", None], ["1000000001", 2]],
        "number_mode": "float", "tolerance": 1e-7})
    realizable, code, err, section, trace = _verdicts(capsys, spec)
    assert realizable["realizable"] is False and section == realizable
    assert realizable["violation"]["column"] == "1"
    assert code == 1 and err["payload"] == {"column": "1", "value": "0.5"}
    assert trace["error"] == "ColumnNormalizationViolation"


def test_morita_rescale_lands_on_the_limit_of_delta(capsys):
    # rho_i = alpha_i / eta_i for the Perron data of Delta: the rescaled
    # delta is the standard distortion of Delta, the tower's limit
    for spec in (JONES, JONES_TRACE):
        res = run_json(capsys, "morita-rescale", "--input", spec)["result"]
        limit = run_json(capsys, "tower", "--input", spec, "--steps", "0")["result"]["sigma"]
        assert float(res["residual_to_standard"]) <= 1e-12
        for got, want in zip(res["delta_rescaled"], limit):
            assert [float(x) for x in got] == pytest.approx([float(x) for x in want],
                                                            rel=1e-12)


@pytest.mark.parametrize("spec", [JONES, JONES_TRACE])
def test_commands_solve_perron_data_at_most_twice_when_jones_differs(
        capsys, monkeypatch, spec):
    # Each command solves exactly the matrices it reads, once each: D for
    # its Perron section or H2/H4/H7, Delta for the tower limit, the Morita
    # target, the Markov trace or the delta of trace_A.  report-all decides
    # realizability once for both of its sections.
    import mfd
    from mfd import markov

    counts = _count_calls(monkeypatch, (markov, "column_sum_violation"))
    solves = _count_solves(monkeypatch)
    D, Delta = _rows([[1, 0], [1, 1]]), _rows([[2, 0], [1, 3]])
    # The delta of trace_A reads Delta, the spec's own delta nothing; the
    # spec's delta is not realizable, so markov-trace stops before its trace.
    from_trace = {Delta} if spec == JONES_TRACE else set()
    expected = {"perron": {D}, "extend": set(), "markov-trace": from_trace,
                "homogeneity": {D, Delta}, "tower": {Delta}, "downward": from_trace,
                "morita-rescale": {Delta}, "realizable": from_trace,
                "report-all": {D, Delta}, "morita-rescale --rho 1,2": from_trace}
    for command in COMMANDS + ("morita-rescale --rho 1,2",):
        if command == "loopbasis-verify":
            continue
        solves.clear()
        counts["column_sum_violation"] = 0
        argv = command.split()
        assert mfd.cli.main(argv[:1] + ["--input", spec] + argv[1:]) in (0, 1, 2)
        capsys.readouterr()
        assert solves == dict.fromkeys(expected[command], 1), command
        if command == "report-all":
            assert counts["column_sum_violation"] == 1


def test_report_all_solves_the_downward_lp_once_for_both_modes(capsys, monkeypatch):
    # maxmin.json leaves M pi = 1 underdetermined, so the downward section
    # needs the LP; strict and markov_tunnel read the one answer.
    import mfd
    from mfd import lp

    counts = _count_calls(monkeypatch, (lp, "solve_lp"))
    maxmin = str(Path(__file__).resolve().parent / "fixtures" / "maxmin.json")
    assert mfd.cli.main(["report-all", "--input", maxmin]) == 0
    downward = json.loads(capsys.readouterr().out)["result"]["downward"]
    assert counts["solve_lp"] == 1
    assert downward["strict"]["status"] == downward["markov_tunnel"]["status"] == "Feasible"
