import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from streamscope.cli import main
from streamscope.errors import (BadWeightError, DuplicateEdgeError,
                                LabelOutOfRangeError, ParseError,
                                SelfLoopError, VertexCountMismatchError)
from streamscope.corpus import (cc_benchmark, random_small_components,
                                weighted_path)
from streamscope.estimators import (EstimatorParams, mis_estimate,
                                    mst_weight, num_cc, num_disc)
from streamscope.graphs import load_edge_list, serialize_edge_list
from streamscope.oracles import make_component_mis_oracle
from streamscope.streams import EdgeStream, given_order_stream, split_seed


@pytest.fixture
def cc_file(tmp_path):
    path = tmp_path / "cc.el"
    path.write_text(serialize_edge_list(cc_benchmark()))
    return str(path)


def test_run_cc_writes_report(cc_file, tmp_path):
    out = str(tmp_path / "r.json")
    rc = main(["run-cc", "--input", cc_file, "--n", "230", "--tau", "0.1",
               "--samples", "2000", "--kmax", "8", "--seed", "7",
               "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["algorithm"] == "num-cc" and "total" in doc
    assert doc["n"] == 230 and doc["m"] == 180


def test_run_cc_missing_n_exits_2(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("1 2\n2 3\n")
    rc = main(["run-cc", "--input", str(path), "--tau", "0.1",
               "--samples", "10", "--kmax", "2"])
    assert rc == 2
    assert "--n" in capsys.readouterr().err


def test_run_cc_header_supplies_n(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("n=4\n1 2\n")
    rc = main(["run-cc", "--input", str(path), "--tau", "0.1",
               "--samples", "4", "--kmax", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["n"] == 4


def test_run_cc_exact(cc_file, capsys):
    rc = main(["run-cc", "--input", cc_file, "--n", "230", "--tau", "0.1",
               "--samples", "5", "--kmax", "8", "--exact"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 100


def test_run_cc_given_order(cc_file, capsys):
    rc = main(["run-cc", "--input", cc_file, "--n", "230", "--tau", "0.1",
               "--samples", "50", "--kmax", "3", "--seed", "1",
               "--stream-order", "given"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["m"] == 180


@pytest.mark.parametrize("header,rc", [(True, 0), (False, 2)])
def test_run_cc_given_order_takes_n_from_the_header(tmp_path, capsys, header,
                                                    rc):
    # the load reads n from the n= header, so --n may be left out; with
    # neither, n is unknown and the run exits 2
    path = tmp_path / "g.el"
    path.write_text(("n=5\n" if header else "") + "1 2\n2 3\n")
    code = main(["run-cc", "--input", str(path), "--tau", "0.3",
                 "--samples", "5", "--kmax", "3", "--stream-order", "given"])
    out, err = capsys.readouterr()
    assert code == rc
    if rc:
        assert out == "" and "--n" in err and err.count("\n") == 1
    else:
        doc = json.loads(out)
        assert doc["n"] == 5 and doc["m"] == 2


def test_run_cc_given_order_matches_the_materialized_stream(tmp_path):
    # A canonical file lists its edges in the order the graph stores them,
    # so run-cc's file-order stream is the graph's given-order stream: Λ and
    # the grid cut are drawn from the same m, and the bytes are those of
    # num_cc over given_order_stream(g).
    g = cc_benchmark()
    path = tmp_path / "cc.el"
    path.write_text(serialize_edge_list(g))
    out = str(tmp_path / "r.json")
    rc = main(["run-cc", "--input", str(path), "--n", str(g.n), "--tau", "0.3",
               "--samples", "60", "--kmax", "4", "--seed", "3",
               "--stream-order", "given", "--out", out])
    assert rc == 0
    params = EstimatorParams(tau=0.3, s=60, k_max=4,
                             seed=split_seed(3, "estimator"))
    want = num_cc(given_order_stream(g), g.n, params).to_json()
    assert open(out).read() == want


def test_run_mst_given_order_matches_the_materialized_stream(tmp_path):
    # A canonical file lists its edges in the order the graph stores them,
    # so run-mst's file-order stream is the graph's given-order stream: its
    # length is known, each threshold cuts its grid, and the bytes are those
    # of mst_weight over given_order_stream(g).
    g = weighted_path(n=60, heavy_every=3, W=3)
    path = tmp_path / "w.el"
    path.write_text(serialize_edge_list(g))
    out = str(tmp_path / "r.json")
    rc = main(["run-mst", "--input", str(path), "--tau", "0.3",
               "--samples", "40", "--kmax", "4", "--seed", "5",
               "--stream-order", "given", "--out", out])
    assert rc == 0
    params = EstimatorParams(tau=0.3, s=40, k_max=4,
                             seed=split_seed(5, "estimator"))
    want = mst_weight(given_order_stream(g), g.n, g.W, params).to_json()
    assert open(out).read() == want


def _reversed_lines(g):
    # every line out of canonical order: last edge first, larger label first
    body = [f"{e.v} {e.u}" + ("" if e.w is None else f" {e.w}")
            for e in reversed(g.edges)]
    return "\n".join([f"n={g.n}", *body]) + "\n"


@pytest.mark.parametrize("command", ["run-cc", "run-mst", "run-disc",
                                     "run-mis"])
def test_given_order_streams_the_file_order(tmp_path, command):
    # The graph stores its edges sorted; --stream-order given streams them
    # in the file's order instead: every command loads the file, then
    # parses its lines again in file order
    if command == "run-mst":
        g = weighted_path(n=60, heavy_every=3, W=3)
    else:
        g = random_small_components(120, 6, 7)
    path = tmp_path / "g.el"
    path.write_text(_reversed_lines(g))
    out = str(tmp_path / "r.json")
    argv = [command, "--input", str(path), "--tau", "0.3", "--samples", "60",
            "--seed", "4", "--stream-order", "given", "--out", out]
    argv += (["--kmax", "4"] if command in ("run-cc", "run-mst")
             else ["--k", "1", "--d", "2"])
    if command == "run-mis":
        argv += ["--mis-samples", "50"]
    assert main(argv) == 0
    params = EstimatorParams(tau=0.3, s=60, k_max=4 if command in (
        "run-cc", "run-mst") else 1, seed=split_seed(4, "estimator"))

    def report(stream):
        if command == "run-cc":
            return num_cc(stream, g.n, params).to_json()
        if command == "run-mst":
            return mst_weight(stream, g.n, g.W, params).to_json()
        disc = num_disc(stream, g.n, 1 + (command == "run-mis"), 2, params)
        if command == "run-disc":
            return disc.to_json()
        return mis_estimate(disc, g.n, 2, 1, 50,
                            make_component_mis_oracle(g, 20),
                            seed=split_seed(4, "mis"),
                            oracle_name="exact-component").to_json()

    file_order = EdgeStream(reversed(g.edges), weighted=g.weighted, W=g.W)
    assert open(out).read() == report(file_order)
    assert report(file_order) != report(given_order_stream(g))


def test_input_error_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("n=3\n1 1\n")
    rc = main(["run-cc", "--input", str(path), "--n", "3", "--tau", "0.1",
               "--samples", "3", "--kmax", "2"])
    assert rc == 3


@pytest.mark.parametrize("body", [
    "1 2\n1 1\n",        # self loop
    "1 2\n9 4\n",        # label > n
    "1 2\n1 x\n",        # non-integer field
    "1 2\n2 3 5\n",      # mixed weight columns
], ids=["self-loop", "label-above-n", "non-integer", "mixed-weights"])
def test_given_order_stream_validates_lines(tmp_path, capsys, body):
    path = tmp_path / "bad.el"
    path.write_text(body)
    rc = main(["run-cc", "--input", str(path), "--n", "4", "--tau", "0.3",
               "--samples", "4", "--kmax", "2", "--stream-order", "given"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("body", ["1 2\n1 2_0\n", "1 2\n1 \u0663\n",
                                  "n=1_0\n1 2\n"],
                         ids=["underscore", "arabic-indic", "header"])
def test_given_order_refuses_malformed_integers(tmp_path, capsys, body):
    # int() would read "2_0" as 20 and an Arabic-Indic digit as 3
    path = tmp_path / "bad.el"
    path.write_bytes(body.encode("utf-8"))
    rc = main(["run-cc", "--input", str(path), "--n", "10", "--tau", "0.3",
               "--samples", "4", "--kmax", "2", "--stream-order", "given"])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err.startswith("error: line ") and "non-integer field in" in err
    assert err.count("\n") == 1


# One document per fault the load layer refuses, with the error it must
# raise; "header-vs-n" is read with a given vertex count of 5.
_REFUSALS = {
    "field-count": ("n=6\n1 2\n3\n", ParseError,
                    "line 3: expected 2 or 3 fields, got 1"),
    "non-integer": ("n=6\n1 2\n1 x\n", ParseError,
                    "line 3: non-integer field in '1 x'"),
    "mixed-weights": ("n=6\n1 2\n2 3 5\n", ParseError,
                      "line 3: mixed weighted and unweighted lines"),
    "label-zero": ("n=6\n1 2\n0 3\n", ParseError,
                   "line 3: labels must be >= 1 in '0 3'"),
    "label-above-n": ("n=6\n1 2\n3 9\n", LabelOutOfRangeError,
                      "line 3: label 9 > n=6"),
    "weight-zero": ("n=6\n1 2 1\n2 3 0\n", BadWeightError,
                    "line 3: weight 0 < 1"),
    "self-loop": ("n=6\n1 2\n3 3\n", SelfLoopError, "self loop at 3"),
    "duplicate": ("n=6\n1 2\n2 1\n", DuplicateEdgeError,
                  "duplicate edge (1, 2)"),
    "late-header": ("1 2\nn=6\n", ParseError,
                    "line 2: n= header must be the first data line"),
    "header-vs-n": ("n=6\n1 2\n", VertexCountMismatchError,
                    "line 1: n=6 header disagrees with the given vertex "
                    "count 5"),
}
_EXIT = {ParseError: 3, LabelOutOfRangeError: 3, SelfLoopError: 3,
         DuplicateEdgeError: 3, BadWeightError: 4,
         VertexCountMismatchError: 2}


@pytest.mark.parametrize("kind, command, order", [
    (kind, command, order) for kind in sorted(_REFUSALS)
    for command, order in (("run-cc", "shuffled"), ("run-cc", "given"),
                           ("run-disc", "given"))])
def test_every_load_path_refuses_alike(tmp_path, capsys, kind, command,
                                       order):
    """Each fault gives the same error type, message and exit code through
    load_edge_list and through a run in either stream order (run-cc
    shuffled and given, run-disc given): every run loads and checks the
    whole file before it streams its edges, so a duplicated line is
    refused under --stream-order given as well."""
    text, error, message = _REFUSALS[kind]
    n = 5 if kind == "header-vs-n" else None
    with pytest.raises(error) as exc:
        load_edge_list(text, n_override=n)
    assert str(exc.value) == message
    path = tmp_path / "bad.el"
    path.write_text(text)
    argv = [command, "--input", str(path), "--tau", "0.3", "--samples", "4",
            "--stream-order", order]
    argv += ["--kmax", "2"] if command == "run-cc" else ["--k", "1",
                                                         "--d", "2"]
    if n is not None:
        argv += ["--n", str(n)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out, err) == (_EXIT[error], "", f"error: {message}\n")


@pytest.mark.parametrize("command, order", [("run-cc", "shuffled"),
                                            ("run-cc", "given"),
                                            ("run-mst", "shuffled")])
def test_file_vertex_count_must_match(tmp_path, capsys, command, order):
    # a --n that differs from the file's n= header is refused in either
    # stream order; an equal --n is accepted
    path = tmp_path / "g.el"
    path.write_text("n=5\n1 2 1\n2 3 2\n" if command == "run-mst"
                    else "n=5\n1 2\n2 3\n")
    argv = [command, "--input", str(path), "--tau", "0.3", "--samples", "5",
            "--kmax", "3", "--stream-order", order]
    for n in ("3", "9"):
        assert main(argv + ["--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: line 1: n=5 header disagrees")
        assert err.endswith(f"count {n}\n")
    assert main(argv + ["--n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 5


@pytest.mark.parametrize("n,rc", [("50", 2), ("3", 2), ("6", 0)])
def test_gen_vertex_count_must_match(capsys, n, rc):
    # triangles:2 has 6 vertices; --n may repeat that count, not change it
    code = main(["run-cc", "--gen", "triangles:2", "--n", n, "--tau", "0.3",
                 "--samples", "20", "--kmax", "3"])
    out, err = capsys.readouterr()
    assert code == rc
    if rc:
        assert out == ""
        assert err.startswith("error: --n ") and err.count("\n") == 1
    else:
        assert json.loads(out)["n"] == 6


_VALID_EDGES = [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (4, 8)]

# One faulty line per kind, for a document on n = 8 whose weights are
# 1..3 when it has a weight column; "{w}" is that column.
_FAULTS = {
    "self-loop": "3 3{w}",
    "label-zero": "0 2{w}",
    "negative-label": "-1 2{w}",
    "label-above-n": "2 9{w}",
    "non-integer": "2 x{w}",
    "decimal": "2.5 3{w}",
    "one-field": "7",
    "four-fields": "1 2 3 4",
    "duplicate": "2 1{w}",
    "late-header": "n=8",
    "bad-header": "n=x",
    "weight-zero": "1 5 0",
    "weight-above-W": "1 5 9",
    "mixed-weights": None,
    "garbage": None,
    "bad-utf8": None,
}


@given(st.sampled_from(sorted(_FAULTS)), st.sampled_from(("run-cc", "run-mst")),
       st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, len(_VALID_EDGES)),
       st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_malformed_edge_list_is_one_line_error(kind, command, weighted,
                                               header, given_order, at,
                                               garbage):
    """Any malformed edge list ends in one stderr line, exit 3 (input) or 4
    (weight), no report and no traceback."""
    weighted = weighted or command == "run-mst"
    given_order = given_order and command == "run-cc"
    # run-cc takes any weight W
    assume(not (command == "run-cc" and kind == "weight-above-W"))
    if kind == "late-header":
        at = max(at, 1)
    w = " 2" if weighted else ""
    lines = [f"{u} {v}{w}".encode() for u, v in _VALID_EDGES]
    if kind == "mixed-weights":
        bad = b"1 5" if weighted else b"1 5 2"
    elif kind == "garbage":
        bad = ("x" + garbage).encode("utf-8")
    elif kind == "bad-utf8":
        bad = b"1 \xff"
    else:
        bad = _FAULTS[kind].format(w=w).encode()
    lines.insert(at, bad)
    if header:
        lines.insert(0, b"n=8")
    argv = [command, "--tau", "0.3", "--samples", "4", "--kmax", "2"]
    if not header or given_order:
        argv += ["--n", "8"]
    if command == "run-mst":
        argv += ["--W", "3"]
    if given_order:
        argv += ["--stream-order", "given"]
    fd, path = tempfile.mkstemp(suffix=".el")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv + ["--input", path])
    finally:
        os.unlink(path)
    assert rc in (3, 4), (rc, err.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def test_weight_error_exit_4(tmp_path, capsys):
    path = tmp_path / "w.el"
    path.write_text("n=3\n1 2 9\n2 3 1\n")
    rc = main(["run-mst", "--input", str(path), "--n", "3", "--W", "3",
               "--tau", "0.1", "--samples", "3", "--kmax", "2"])
    assert rc == 4


def test_run_mst_exact_k3(tmp_path, capsys):
    path = tmp_path / "k3.el"
    path.write_text("n=3\n1 2 1\n1 3 2\n2 3 3\n")
    rc = main(["run-mst", "--input", str(path), "--n", "3", "--tau", "0.1",
               "--samples", "3", "--kmax", "2", "--exact"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["estimate"] == 3


def test_run_mst_w1_short_circuit(tmp_path, capsys):
    path = tmp_path / "w1.el"
    path.write_text("n=2\n1 2 1\n")
    rc = main(["run-mst", "--input", str(path), "--n", "2", "--W", "1",
               "--tau", "0.1", "--samples", "2", "--kmax", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] == 1
    # W = 1 runs mst_weight with no thresholds, so the report is a full one
    assert doc["m"] == 1 and doc["params"]["s"] == 2


def test_run_disc_report(capsys):
    rc = main(["run-disc", "--gen", "triangles:5", "--k", "1", "--d", "2",
               "--tau", "0.3", "--samples", "15", "--seed", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algorithm"] == "num-disc" and "per_type" in doc


def test_run_mis_near_half(tmp_path, capsys):
    from streamscope.corpus import mixed_components
    path = tmp_path / "pairs.el"
    path.write_text(serialize_edge_list(mixed_components(edges_=40)))
    rc = main(["run-mis", "--input", str(path), "--n", "80", "--k", "2",
               "--d", "2", "--tau", "0.3", "--samples", "400",
               "--mis-samples", "600", "--mis-component-cap", "4",
               "--seed", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["estimate"] - 40) <= 12


def test_run_mis_component_cap_exit_5(tmp_path, capsys):
    from streamscope.corpus import disjoint_union, path_block
    path = tmp_path / "big.el"
    g = disjoint_union([path_block(9), []], [9, 1])
    path.write_text(serialize_edge_list(g))
    rc = main(["run-mis", "--input", str(path), "--n", "10", "--k", "0",
               "--d", "3", "--tau", "0.4", "--samples", "200",
               "--mis-component-cap", "3", "--seed", "2"])
    assert rc == 5


def test_reports_byte_identical(cc_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        rc = main(["run-cc", "--input", cc_file, "--n", "230", "--tau", "0.1",
                   "--samples", "400", "--kmax", "4", "--seed", "11",
                   "--out", out])
        assert rc == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_gen_round_trip(tmp_path, capsys):
    rc = main(["gen", "--preset", "mst-path", "--out",
               str(tmp_path / "g.el")])
    assert rc == 0
    from streamscope.graphs import load_edge_list
    g = load_edge_list(open(tmp_path / "g.el", "rb"))
    assert g.n == 200 and g.weighted


@pytest.mark.parametrize("argv", [
    ["gen", "--preset", "random:5"],
    ["gen", "--preset", "random:5,3,1,9"],
    ["run-cc", "--gen", "random:5", "--tau", "0.2", "--samples", "3",
     "--kmax", "2"],
    ["run-cc", "--gen", "random:5,3,1,9", "--tau", "0.2", "--samples", "3",
     "--kmax", "2"],
])
def test_random_spec_needs_two_or_three_fields(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: generator spec random:")
    assert err.count("\n") == 1


def test_random_spec_seed_defaults_to_zero(capsys):
    assert main(["gen", "--preset", "random:6,4"]) == 0
    two = capsys.readouterr().out
    assert main(["gen", "--preset", "random:6,4,0"]) == 0
    assert capsys.readouterr().out == two and two.startswith("n=6\n")


def test_verify_only_single_check(capsys):
    rc = main(["verify", "--only", "false-positive-ratio"])
    out = capsys.readouterr().out
    assert rc == 0 and "false-positive-ratio" in out and "PASS" in out


def test_verify_unknown_check(capsys):
    rc = main(["verify", "--only", "nonsense"])
    assert rc == 2


def test_verify_mutation_detected(capsys):
    # A deliberate off-by-one in the depth-gap test must break the exact
    # probability check; runtime stays small via an in-process call.
    from streamscope.verification import (check_exact_probabilities,
                                          mutated_depth_gap)
    from streamscope import canonical

    with mutated_depth_gap(canonical.DEPTH_GAP + 1):
        result = check_exact_probabilities(trials=2000)
    assert not result.passed


def test_verify_mutation_prints_fail_lines(capsys):
    # Under the mutation the canonical disc construction breaks depth
    # stability; the check must fail with a line, not a traceback.
    rc = main(["verify", "--only", "canonical-replay", "--fast",
               "--mutate", "depth-gap"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] canonical-replay: InvariantError" in out
    assert "1 of 1 checks failed" in out


def test_params_documentation(capsys):
    rc = main(["params", "--epsilon", "0.5", "--rho", "0.333333333333"])
    out = capsys.readouterr().out
    assert rc == 0 and "-24.8" in out


def test_env_seed_default(monkeypatch, capsys):
    argv = ["run-cc", "--gen", "cc-benchmark", "--tau", "0.3", "--samples",
            "50", "--kmax", "3"]
    assert main(argv + ["--seed", "12345"]) == 0
    explicit = capsys.readouterr().out
    monkeypatch.setenv("STREAMSCOPE_SEED", "12345")
    assert main(argv) == 0
    assert capsys.readouterr().out == explicit
    # --seed wins over the variable
    assert main(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr().out != explicit


def test_non_integer_env_seed_is_a_config_error(monkeypatch, capsys):
    monkeypatch.setenv("STREAMSCOPE_SEED", "abc")
    argv = ["run-cc", "--gen", "triangles:2", "--tau", "0.3", "--samples",
            "3", "--kmax", "2"]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: STREAMSCOPE_SEED must be an integer, got 'abc'\n"
    # read only when --seed is not given, and never by gen
    assert main(argv + ["--seed", "1"]) == 0
    assert main(["gen", "--preset", "triangles:1"]) == 0


@pytest.mark.parametrize("command", ["run-cc", "run-mst"])
def test_underflowing_rescaling_is_a_config_error(command, capsys):
    # gamma_k(200, 0.01) is 0.0: the report would divide by zero
    gen = "cc-benchmark" if command == "run-cc" else "mst-path"
    rc = main([command, "--gen", gen, "--tau", "0.01", "--samples", "50",
               "--kmax", "200"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: tau=0.01 and k_max=200 underflow")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("preset", ["random:5,-1", "triangles:-3",
                                    "padded-triangles:-5",
                                    "padded-triangles:-1"])
def test_negative_generator_count_is_a_config_error(preset, capsys):
    for argv in (["gen", "--preset", preset],
                 ["run-cc", "--gen", preset, "--tau", "0.3", "--samples",
                  "3", "--kmax", "2"]):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_run_checks_fast_suite_passes():
    from streamscope.verification import run_checks
    results = run_checks(fast=True)
    assert all(r.passed for r in results), [r.line() for r in results]
    assert len(results) == 7


def test_sweep_jobs_deterministic():
    from streamscope.verification import check_enumerator_montecarlo
    a = check_enumerator_montecarlo(trials=2000, max_n=4, max_m=4, jobs=1)
    b = check_enumerator_montecarlo(trials=2000, max_n=4, max_m=4, jobs=2)
    assert a.details == b.details and a.passed == b.passed


def test_sweep_pool_is_no_larger_than_its_tasks(monkeypatch):
    # A stand-in Pool that records its size and maps serially, so no worker
    # process starts whatever --jobs asks for.
    from streamscope import verification
    from streamscope.corpus import all_graphs_up_to

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(verification, "Pool", SerialPool)
    kw = dict(trials=500, max_n=3, max_m=3)
    serial = verification.check_enumerator_montecarlo(jobs=1, **kw)
    assert sizes == []
    for jobs in (2, 1_000_000):
        got = verification.check_enumerator_montecarlo(jobs=jobs, **kw)
        assert got.details == serial.details
    # one task per distinct edge list: graphs that differ only in isolated
    # vertices share one order table
    edge_lists = {g.edges for g in all_graphs_up_to(3, 3)}
    assert sizes == [2, len(edge_lists)]


def test_sweep_replays_each_order_and_root_once(monkeypatch):
    # Graphs that share an edge list and differ only in isolated vertices
    # share one order table, so no (edge order, root) is replayed twice.
    from collections import Counter

    from streamscope import verification

    replays = Counter()
    replay = verification.tree_replay_profile

    def counting_replay(order, root):
        replays[(tuple(order), root)] += 1
        return replay(order, root)

    monkeypatch.setattr(verification, "tree_replay_profile", counting_replay)
    verification.check_enumerator_montecarlo(trials=50, max_n=4, max_m=4)
    assert replays and max(replays.values()) == 1


def test_canonical_replay_grows_each_disc_once(monkeypatch):
    from streamscope import verification

    calls = []
    grow = verification.grow_cano_disc

    def counting_grow(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(verification, "grow_cano_disc", counting_grow)
    result = verification.check_canonical_replay(n_graphs=4)
    assert result.passed
    disc_cases = int(result.details.split(" + ")[1].split()[0])
    assert len(calls) == disc_cases > 0
    assert len(set(calls)) == len(calls)


def test_canonical_replay_catches_swapped_tree_children(monkeypatch):
    # The tree replay compares depths and the outcome. With the root's first
    # two children swapped in the reference order, the detector attaches the
    # larger child first and then dies violating on the smaller one.
    from streamscope import verification

    cbfs = verification.cbfs_tree
    swapped = []

    def swapping_cbfs(g, v, k):
        t = cbfs(g, v, k)
        order = t.edge_order
        if len(order) >= 2 and order[0][0] == order[1][0] == v:
            order[0], order[1] = order[1], order[0]
            swapped.append((v, k))
        return t

    monkeypatch.setattr(verification, "cbfs_tree", swapping_cbfs)
    result = verification.check_canonical_replay(n_graphs=4)
    assert swapped and not result.passed
    assert result.details.startswith("tree replay mismatch")


def test_run_mst_path_corpus_report(tmp_path):
    out = str(tmp_path / "mst.json")
    rc = main(["run-mst", "--gen", "mst-path", "--tau", "0.05",
               "--samples", "5000", "--kmax", "8", "--seed", "3",
               "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["algorithm"] == "mst-weight"
    assert set(doc["per_threshold"]) == {"1"}
    assert doc["n"] == 200 and doc["W"] == 2


@pytest.mark.parametrize("command, k, d", [
    ("run-mis", "-1", "1"),
    ("run-mis", "1", "0"),
    ("run-disc", "-1", "2"),
    ("run-disc", "1", "0"),
    ("run-disc", "0", "-3"),
])
def test_disc_shape_is_a_config_error(command, k, d, tmp_path, capsys):
    # Refused before the graph is loaded: the missing file is never opened,
    # which would exit 3.
    argv = [command, "--input", str(tmp_path / "missing.el"), "--tau", "0.3",
            "--samples", "4", "--k", k, "--d", d]
    if command == "run-mis":
        argv += ["--mis-samples", "10"]
    for extra in ([], ["--exact"]):
        rc = main(argv + extra)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_mis_samples_is_a_config_error(samples, tmp_path, capsys):
    # Refused before the graph is loaded, like --k and --d: the missing file
    # is never opened, which would exit 3.
    argv = ["run-mis", "--input", str(tmp_path / "missing.el"), "--tau",
            "0.3", "--samples", "4", "--k", "1", "--d", "2",
            "--mis-samples", samples]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"error: --mis-samples must be >= 1, got {samples}\n"
    # a component cap below 1 is refused the same way, with or without
    # --exact: no component is that small
    argv[-2:] = ["--mis-component-cap", samples]
    for extra in ([], ["--exact"]):
        rc = main(argv + extra)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == (f"error: --mis-component-cap must be >= 1, got "
                       f"{samples}\n")


def _python_m_streamscope(argv, *flags):
    """Run `python [flags] -m streamscope argv` in a fresh interpreter that
    imports this checkout's package."""
    import subprocess
    import sys

    import streamscope

    src = os.path.dirname(os.path.dirname(streamscope.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-m", "streamscope",
                           *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def _same_bytes_as_in_process(argv, tmp_path, *flags):
    out = tmp_path / "subprocess.json"
    done = _python_m_streamscope(argv + ["--out", str(out)], *flags)
    assert done.returncode == 0, done.stderr
    assert main(argv + ["--out", str(tmp_path / "in-process.json")]) == 0
    assert out.read_bytes() == (tmp_path / "in-process.json").read_bytes()


def test_python_dash_m_runs_the_cli(tmp_path):
    _same_bytes_as_in_process(
        ["run-cc", "--gen", "cc-benchmark", "--tau", "0.2", "--samples",
         "50", "--kmax", "3", "--seed", "4"], tmp_path)
    bad = _python_m_streamscope(["run-mis", "--gen", "cc-benchmark", "--tau",
                                 "0.3", "--samples", "4", "--k", "1", "--d",
                                 "2", "--mis-samples", "0"])
    assert bad.returncode == 2 and bad.stdout == ""
    assert "--mis-samples" in bad.stderr


def test_optimized_mode_writes_the_same_reports(cc_file, tmp_path):
    # `python -O` strips asserts; the runtime checks (heads' InvariantError,
    # the read-once guard) are typed errors, so the reports must not move
    _same_bytes_as_in_process(
        ["run-cc", "--input", cc_file, "--n", "230", "--tau", "0.3",
         "--samples", "80", "--kmax", "4", "--seed", "2",
         "--stream-order", "given"], tmp_path, "-O")
    _same_bytes_as_in_process(
        ["run-mst", "--gen", "mst-path", "--tau", "0.3", "--samples", "40",
         "--kmax", "4", "--seed", "6"], tmp_path, "-O")
