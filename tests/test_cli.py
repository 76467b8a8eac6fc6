"""Command-line interface: exit codes, JSON/CSV shapes, piping.

Exit code contract: 0 on success (including a failing validation report),
1 on domain errors, 2 on usage errors.  All invocations run in-process
through main(argv).
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorentzmet
from lorentzmet import Causet, DiamondSpace, SampleSpec, sample_causet
from lorentzmet.cli import main
from lorentzmet.experiments import ExperimentConfig
from helpers import oracle_from_json

CHAIN = Causet.from_matrix([[0.0, 1.0], [0.0, 0.0]])
CHAIN_125 = Causet.from_matrix([[0.0, 1.25], [0.0, 0.0]])


def write_causet(tmp_path, c, name):
    p = tmp_path / name
    p.write_text(json.dumps(c.to_json()))
    return str(p)


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def strict_json(text):
    """json.loads that refuses the bare NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"bare {token} in JSON output")
    return json.loads(text, parse_constant=refuse)


# -- validate -----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_causet(tmp_path, CHAIN, "c.json")
    assert run_json(capsys, ["validate", path]) == {"valid": True}


def test_validate_reports_violations_with_exit_zero(tmp_path, capsys):
    bad = Causet(("p0", "p1"), np.array([[0.0, -1.0], [0.0, 0.0]]))
    path = write_causet(tmp_path, bad, "bad.json")
    blob = run_json(capsys, ["validate", path])
    assert blob["valid"] is False
    kinds = {v["kind"] for v in blob["violations"]}
    assert "negative-entry" in kinds
    assert all({"kind", "witness", "magnitude"} <= set(v)
               for v in blob["violations"])


def test_validate_reports_a_finite_magnitude_past_the_float_sum(tmp_path,
                                                                capsys):
    # 1e308 + 1e308 - 1.7e308 overflows in floats; the exact defect does
    # not, so the JSON carries its value, not null
    big = Causet.from_matrix([[0, 1e308, 1.7e308], [0, 0, 1e308], [0, 0, 0]])
    path = write_causet(tmp_path, big, "big.json")
    assert main(["validate", path]) == 0
    blob = strict_json(capsys.readouterr().out)
    assert blob["violations"] == [{"kind": "reverse-triangle",
                                   "witness": [0, 1, 2],
                                   "magnitude": 3.000000000000001e+307}]


def test_validate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CHAIN.to_json())))
    assert run_json(capsys, ["validate", "-"]) == {"valid": True}


def test_validate_out_file(tmp_path, capsys):
    path = write_causet(tmp_path, CHAIN, "c.json")
    out = tmp_path / "report.json"
    assert main(["validate", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"valid": True}


# -- usage errors -------------------------------------------------------------

def test_malformed_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "broken.json" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_causet_payload_is_usage_error(tmp_path, capsys):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"n": 2}))
    assert main(["validate", str(p)]) == 2
    assert "bad causet" in capsys.readouterr().err


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xff\xfe")  # not UTF-8: "bad causet", else bad JSON
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_false_boundary_is_domain_error(tmp_path, capsys):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"n": 2, "d": [[0, 1], [0, 0]], "boundary": 0}))
    assert main(["validate", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_net_requires_eps(tmp_path):
    path = write_causet(tmp_path, CHAIN, "c.json")
    with pytest.raises(SystemExit) as exc:
        main(["net", path])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["net", "C", "--eps", "nan"],
    ["net", "C", "--eps", "inf"],
    ["validate", "C", "--tol", "nan"],
    ["curvature", "C", "--tol", "nan"],
    ["curvature", "C", "--k", "-inf"],
    ["rationalize", "C", "--eps", "nan"],
    ["limit", "C", "C", "--tol", "inf"],
    ["experiment", "limit", "--eps", "nan"],
    ["validate", "C", "--tol", "abc"],
])
def test_non_finite_float_flags_exit_2(tmp_path, capsys, argv):
    path = write_causet(tmp_path, CHAIN, "c.json")
    with pytest.raises(SystemExit) as exc:
        main([path if a == "C" else a for a in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# -- gamma and tau ------------------------------------------------------------

def test_gamma_output(tmp_path, capsys):
    path = write_causet(tmp_path, CHAIN, "c.json")
    blob = run_json(capsys, ["gamma", path])
    assert blob["kind"] == "gamma"
    assert blob["labels"] == ["p0", "p1"]
    assert blob["d"] == [[0.0, 1.0], [1.0, 0.0]]


def test_tau_values(tmp_path, capsys):
    path = write_causet(tmp_path, CHAIN, "c.json")
    blob = run_json(capsys, ["tau", path])
    assert blob == {"kind": "time-function",
                    "values": {"p0": -0.125, "p1": 0.25}}


def test_tau_on_an_empty_causet(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 0, "d": []}')
    assert run_json(capsys, ["tau", str(empty)])["values"] == {}


def test_non_finite_values_are_written_as_null(tmp_path, capsys):
    # validate reports a NaN entry (magnitude null); every other
    # subcommand refuses it with exit 1, naming the entry
    nan = tmp_path / "nan.json"
    nan.write_text('{"n": 2, "d": [[0, NaN], [0, 0]]}')
    assert main(["validate", str(nan)]) == 0
    blob = strict_json(capsys.readouterr().out)
    assert blob["valid"] is False
    assert [v["magnitude"] for v in blob["violations"]] == [None]
    for argv in (["tau"], ["gamma"], ["net", "--eps", "0.1"], ["curvature"],
                 ["gh", str(nan)], ["limit", str(nan)]):
        assert main([argv[0], str(nan), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "(0, 1)" in err


def test_closed_stdout_exits_quietly(tmp_path):
    # `lorentzmet gamma host.json | head -1`: the output is far larger than
    # a pipe buffer, so the writer meets the closed pipe mid-write
    host = sample_causet(DiamondSpace(), SampleSpec(count=120, seed=1))
    path = write_causet(tmp_path, host, "host.json")
    src = str(Path(lorentzmet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "lorentzmet.cli", "gamma",
                             path], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


# -- gh -----------------------------------------------------------------------

def test_gh_exact(tmp_path, capsys):
    a = write_causet(tmp_path, CHAIN, "a.json")
    b = write_causet(tmp_path, CHAIN_125, "b.json")
    blob = run_json(capsys, ["gh", a, b, "--exact"])
    assert blob["exact"] == 0.25
    assert blob["method"] == "exact"
    assert blob["lower"] == blob["upper"] == 0.25
    assert isinstance(blob["witness_pairs"], list)


def test_gh_greedy_default(tmp_path, capsys):
    a = write_causet(tmp_path, CHAIN, "a.json")
    b = write_causet(tmp_path, CHAIN_125, "b.json")
    blob = run_json(capsys, ["gh", a, b])
    assert "exact" not in blob
    assert blob["method"] == "greedy"
    assert blob["upper"] >= blob["lower"]


def test_gh_empty_or_non_finite_input_exits_1(tmp_path, capsys):
    a = write_causet(tmp_path, CHAIN, "a.json")
    empty = tmp_path / "empty.json"
    empty.write_text('{"kind": "causet", "n": 0, "d": []}')
    nan = tmp_path / "nan.json"
    nan.write_text('{"kind": "causet", "n": 2, "d": [[0, NaN], [0, 0]]}')
    for argv, where in (([a, str(empty), "--exact"], "causet b has no points"),
                        ([str(empty), a], "causet a has no points"),
                        ([str(nan), a, "--exact"], "(0, 1)"),
                        ([a, str(nan)], "(0, 1)")):
        assert main(["gh", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err
        assert "Traceback" not in err


# -- net and rationalize --------------------------------------------------------

def test_net_members(tmp_path, capsys):
    path = write_causet(tmp_path, CHAIN, "c.json")
    blob = run_json(capsys, ["net", path, "--eps", "0.5"])
    assert blob == {"kind": "net", "eps": 0.5, "host_n": 2, "members": [0, 1]}
    wide = run_json(capsys, ["net", path, "--eps", "1.0"])
    assert wide["members"] == [0]


def test_rationalize_roundtrip(tmp_path, capsys, monkeypatch):
    path = write_causet(tmp_path, CHAIN, "c.json")
    blob = run_json(capsys, ["rationalize", path])
    assert blob["rational"] is True
    num, den = blob["d"][0][1]
    assert abs(num / den - 1.0) <= 1e-3
    # the emitted JSON round-trips through validate
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert run_json(capsys, ["validate", "-"]) == {"valid": True}


def test_rationalize_domain_error_exits_1(tmp_path, capsys):
    flat = Causet.from_matrix(np.zeros((2, 2)))
    path = write_causet(tmp_path, flat, "flat.json")
    assert main(["rationalize", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_rationalize_reverse_triangle_break_exits_1(tmp_path, capsys):
    broken = Causet.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert main(["rationalize", write_causet(tmp_path, broken, "b.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "reverse triangle" in err
    assert "Traceback" not in err


def test_rationalize_non_finite_entry_exits_1(tmp_path, capsys):
    p = tmp_path / "inf.json"
    p.write_text('{"kind": "causet", "n": 2, "d": [[0, Infinity], [0, 0]]}')
    assert main(["rationalize", str(p)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "(0, 1)" in err
    assert "Traceback" not in err


# -- sample, curvature, limit ---------------------------------------------------

def test_sample_pipes_into_validate(capsys, monkeypatch):
    blob = run_json(capsys, ["sample", "diamond", "--n", "20", "--seed", "4"])
    assert blob["kind"] == "causet" and blob["n"] == 20
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    assert run_json(capsys, ["validate", "-"]) == {"valid": True}
    # seed 3 leaves one point spacelike to all others; the quotient turns
    # it into the boundary class, which strips without --boundary
    smaller = run_json(capsys, ["sample", "diamond", "--n", "20", "--seed", "3"])
    assert smaller["n"] == 19


def test_sample_boundary_flag(capsys):
    blob = run_json(capsys, ["sample", "diamond", "--n", "10", "--boundary"])
    assert blob["boundary"] is not None


def test_sample_unknown_space(capsys):
    assert main(["sample", "torus", "--n", "10"]) == 2
    assert "unknown space" in capsys.readouterr().err


def test_sample_grid_needs_square_count(capsys):
    assert main(["sample", "diamond", "--n", "10", "--mode", "grid"]) == 1
    assert "perfect-square" in capsys.readouterr().err


def test_curvature_report(tmp_path, capsys):
    blob = run_json(capsys, ["sample", "diamond", "--n", "60", "--seed", "6"])
    path = tmp_path / "host.json"
    path.write_text(json.dumps(blob))
    rep = run_json(capsys, ["curvature", str(path), "--bound", "upper",
                            "--max-triangles", "5"])
    assert set(rep) == {"k", "bound", "tol", "records"}
    assert rep["bound"] == "upper" and rep["k"] == 0.0
    assert len(rep["records"]) <= 5


def test_curvature_negative_max_triangles_exits_1(tmp_path, capsys):
    path = write_causet(tmp_path, CHAIN, "c.json")
    assert main(["curvature", path, "--max-triangles", "-1"]) == 1
    assert "max_triangles must be nonnegative" in capsys.readouterr().err


def test_limit_of_chain_files(tmp_path, capsys):
    paths = []
    for m in range(1, 9):
        c = Causet.from_matrix([[0.0, 1.0 + 1.0 / m], [0.0, 0.0]])
        paths.append(write_causet(tmp_path, c, f"m{m}.json"))
    blob = run_json(capsys, ["limit", *paths, "--tol", "0.1"])
    assert blob["kind"] == "causet"
    assert blob["d"][0][1] == pytest.approx(1.0, abs=1e-9)
    # early members are too far apart for the default tolerance
    assert main(["limit", *paths[:4]]) == 1


# -- fuzz -----------------------------------------------------------------------

def _rational_chain(far):
    """A rational 3-point chain 0 -> 1 -> 2 with links 10**400 and
    d(0, 2) = far, as causet JSON text."""
    big = [10**400, 1]
    return json.dumps({"n": 3, "rational": True,
                       "d": [[[0, 1], big, [far, 1]], [[0, 1], [0, 1], big],
                             [[0, 1]] * 3]})


FUZZ_PAYLOADS = {
    "not-json": '{"n": 1, "d": [[0]]',
    "not-an-object": "[[0]]",
    "missing-d": '{"n": 1}',
    "short-row": '{"n": 2, "d": [[0, 1], [0]]}',
    "text-entry": '{"n": 1, "d": [["0"]]}',
    "bool-entry": '{"n": 2, "d": [[0, 1], [false, 0]]}',
    "null-entry": '{"n": 2, "d": [[0, 1], [0, null]]}',
    "one-number-pair": '{"n": 1, "rational": true, "d": [[[1]]]}',
    "zero-denominator": '{"n": 1, "rational": true, "d": [[[0, 0]]]}',
    "rational-bool": '{"n": 2, "rational": true, '
                     '"d": [[[0, 1], [1, true]], [[0, 1], [0, 1]]]}',
    "rational-float": '{"n": 2, "rational": true, '
                      '"d": [[[0, 1], [1.5, 2]], [[0, 1], [0, 1]]]}',
    "fractional-boundary": '{"n": 2, "d": [[0, 0], [0, 0]], "boundary": 1.5}',
    "bool-boundary": '{"n": 2, "d": [[0, 1], [0, 0]], "boundary": true}',
    "string-labels": '{"n": 2, "d": [[0, 1], [0, 0]], "labels": "ab"}',
    "nan": '{"n": 2, "d": [[0, NaN], [0, 0]]}',
    "inf": '{"n": 2, "d": [[0, Infinity], [0, 0]]}',
    "-inf": '{"n": 2, "d": [[0, -Infinity], [1, 0]]}',
    "past-2**1023": _rational_chain(2 * 10**400),
    "past-2**1023-broken": _rational_chain(0),
    "empty": '{"n": 0, "d": []}',
    "one-point": '{"n": 1, "d": [[0]]}',
    "boundary-alone": '{"n": 1, "d": [[0]], "boundary": 0}',
}
# malformed files: every subcommand refuses them as a usage error
MALFORMED = {"not-json", "not-an-object", "missing-d", "short-row",
             "text-entry", "bool-entry", "null-entry", "one-number-pair",
             "zero-denominator", "rational-bool", "rational-float",
             "fractional-boundary", "bool-boundary", "string-labels"}


@pytest.mark.parametrize("payload", sorted(FUZZ_PAYLOADS))
def test_fuzz_every_causet_reading_subcommand(tmp_path, capsys, payload):
    # exit 0 with strict JSON on stdout, or exit 1 or 2 with an error
    # line (2 on a malformed file); main itself never raises
    path = tmp_path / "c.json"
    path.write_text(FUZZ_PAYLOADS[payload])
    p = str(path)
    for argv in (["validate", p], ["gamma", p], ["tau", p],
                 ["net", p, "--eps", "0.1"], ["rationalize", p],
                 ["curvature", p], ["gh", p, p], ["gh", p, p, "--exact"],
                 ["gh", p, p, "--seed", "-1"], ["curvature", p, "--seed", "-1"],
                 ["limit", p, p]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in ((2,) if payload in MALFORMED else (0, 1, 2)), argv
        if "--seed" in argv and payload not in MALFORMED:
            assert (code, err) == (1, "error: seed must be nonnegative, "
                                      "got -1\n")
        if code:
            assert err.startswith("error:"), (argv, err)
        else:
            strict_json(out)


def _from_json_outcome(read, obj):
    try:
        c = read(obj)
    except Exception as e:  # the kind and text of the refusal are compared
        return type(e), str(e)
    return (c.labels, c.boundary, c.meta, c.d.dtype,
            [(type(v), repr(v)) for v in c.d.flat])


def test_from_json_accepts_and_refuses_as_one_fraction_per_entry():
    # zeros share one Fraction(0), but what is read, and every refusal
    # with its message, is that of converting each entry on its own
    payloads = []
    for text in FUZZ_PAYLOADS.values():
        try:
            payloads.append(json.loads(text))
        except json.JSONDecodeError:
            pass
    for entry in ([0.0, 1], [False, 1], [0, 0], [0, 1.0], [0, -3],
                  [0, True], [True, 2], [-0, 5], [None, 1], [0, 1, 2]):
        for where in ((0, 1), (1, 1)):
            d = [[[0, 1], [1, 2]], [[0, 1], [0, 1]]]
            d[where[0]][where[1]] = entry
            payloads.append({"n": 2, "rational": True, "d": d})
    for obj in payloads:
        assert _from_json_outcome(Causet.from_json, obj) == \
            _from_json_outcome(oracle_from_json, obj), obj
    d = Causet.from_json({"n": 2, "rational": True,
                          "d": [[[0, 1], [1, 2]], [[0, 7], [0, 1]]]}).d
    assert len({id(v) for v in d.flat if v == 0}) == 1


def test_fuzz_reverse_triangle_break_past_the_float_range(tmp_path, capsys):
    # d(0, 2) = 0 against links of 10**400: the violation's size has no
    # float64 value
    path = tmp_path / "c.json"
    path.write_text(FUZZ_PAYLOADS["past-2**1023-broken"])
    rep = run_json(capsys, ["validate", str(path)])
    assert rep == {"valid": False, "violations": [
        {"kind": "reverse-triangle", "witness": [0, 1, 2], "magnitude": None}]}
    assert main(["rationalize", str(path)]) == 1
    assert "reverse triangle" in capsys.readouterr().err


# -- experiments ----------------------------------------------------------------

def test_experiment_csv_with_config_on_stderr(capsys):
    assert main(["experiment", "limit", "--sizes", "25,50,100"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0] == "m,d01,limit_d01,valid"
    assert len(lines) == 4
    cfg = json.loads(err)
    assert cfg["config"]["kind"] == "limit"
    assert cfg["config"]["sizes"] == [25, 50, 100]


def test_experiment_config_rejects_nan():
    for kw in ({"eps": float("nan")}, {"tol": float("nan")}):
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentConfig(kind="limit", **kw)


def test_experiment_deterministic(capsys):
    assert main(["experiment", "gamma-scaling"]) == 0
    first = capsys.readouterr().out
    assert main(["experiment", "gamma-scaling"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "radius,gamma,fit_exponent"


def test_experiment_convergence_headers(capsys):
    assert main(["experiment", "convergence", "--sizes", "10,20"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,gh_upper,net_size_at_eps,runtime_ms"
    assert len(lines) == 3
    assert lines[2].split(",")[1] == ""  # no refinement above the top size


def test_experiment_convergence_from_one_point(capsys):
    # one diamond point quotients to an empty causet, whose net is empty
    # and whose gh_upper is blank: there is no sample to bound
    assert main(["experiment", "convergence", "--sizes", "1,5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows[0].split(",")[1:3] == ["", "0"]


def test_experiment_out_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["experiment", "limit", "--sizes", "25,50,100",
                 "--out", str(out)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["out"] == str(out)
    assert out.read_text().splitlines()[0] == "m,d01,limit_d01,valid"


def test_experiment_bad_sizes(capsys):
    assert main(["experiment", "limit", "--sizes", "5,x"]) == 2
    assert "bad experiment config" in capsys.readouterr().err
    assert main(["experiment", "limit", "--sizes", "5,5"]) == 2
    capsys.readouterr()
    # a size below 1 is refused by the config, not by the sampler (exit 1)
    for sizes in ("0,5", "-3,5"):
        assert main(["experiment", "convergence", f"--sizes={sizes}"]) == 2
        assert "sizes must be positive" in capsys.readouterr().err
    with pytest.raises(ValueError, match="sizes must be positive"):
        ExperimentConfig(kind="limit", sizes=(0, 5))


def test_experiment_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "warp"])
    assert exc.value.code == 2
