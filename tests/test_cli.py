import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conifold_flop import cli, jsonio
from conifold_flop.cli import main
from conifold_flop.freecomplex import StabilizationError
from conifold_flop.reps import make_catalog_rep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_relations_text(capsys):
    code, out = run(capsys, "relations")
    assert code == 0
    assert "yzw" in out and "d_x" in out


def test_mc_json_matches_relations(capsys):
    code, out = run(capsys, "mc", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data["components"]) == {"Xbar", "Ybar", "Zbar", "Wbar"}
    zbar = {item["word"]: item["coeff"] for item in data["components"]["Zbar"]}
    assert zbar == {"yxw": "1", "wxy": "-1"}


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "scan", "--bound", "3", "--z0", "-1,2", "--z1", "1,1", "--json")
    _, second = run(capsys, "scan", "--bound", "3", "--z0", "-1,2", "--z1", "1,1", "--json")
    assert first == second


def test_truncate(capsys):
    code, out = run(capsys, "truncate", "--n", "4", "--json")
    data = json.loads(out)
    four = [row for row in data["dims"] if row["length"] == 4 and row["source"] == 0]
    assert four[0]["dim"] == 9


def test_rep_roundtrip_via_files(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _ = run(capsys, "rep", "make", "--kind", "vplus:2", "--out", str(path))
    assert code == 0
    code, out = run(capsys, "rep", "check", "--rep", str(path))
    assert code == 0 and "relations_ok True" in out


def test_rep_check_fails_on_bad_rep(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dims": [1, 1], "x": [["1"]], "z": [["1"]], "y": [["1"]], "w": [["1"]]}))
    code, out = run(capsys, "rep", "check", "--rep", str(path))
    assert code == 1
    assert "nilpotent False" in out


def test_stable_verdicts(capsys):
    code, out = run(capsys, "stable", "--kind", "vplus:2", "--z0", "-1,2", "--z1", "1,1", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "stable"
    code, out = run(capsys, "stable", "--kind", "vplus:2", "--z0", "1,1", "--z1", "-1,2", "--json")
    data = json.loads(out)
    assert data["verdict"] == "unstable" and data["witness_dims"] == [0, 1]


def test_psi_sphere(capsys):
    code, out = run(capsys, "psi", "--object", "sphere:3", "--json")
    assert code == 0 and json.loads(out)["dims"] == [2, 3]


def test_psi_table(capsys):
    code, out = run(capsys, "psi", "--object", "table:torus:2", "--json")
    data = json.loads(out)
    assert data["0"]["dims"] == [1, 1]
    assert data["0"]["x"] == [["1"]] and data["0"]["z"] == [["2"]]


def test_ext_commands(capsys):
    code, out = run(capsys, "ext", "--from", "simple:0", "--to", "simple:1", "--json")
    assert json.loads(out) == {"hom": 0, "ext1": 2}
    code, out = run(capsys, "ext", "--from", "simple:0", "--to", "simple:1", "--higher", "--json")
    data = json.loads(out)
    assert data["ext_dims"] == [0, 2, 2, 0] and data["total"] == 4 and data["euler"] == 0


@pytest.mark.parametrize("src,dst,dims", [
    ("simple:0", "vplus:16", [0, 17, 32, 15]), ("simple:1", "vplus:16", [16, 30, 14, 0]),
    ("simple:0", "vminus:16", [0, 15, 32, 17]), ("simple:1", "vminus:16", [16, 34, 18, 0]),
])
def test_ext_higher_on_long_chains(capsys, src, dst, dims):
    code, out = run(capsys, "ext", "--from", src, "--to", dst, "--higher", "--json")
    assert code == 0
    assert out == jsonio.dumps({"ext_dims": dims, "total": sum(dims), "euler": 0})


def test_ext_takes_no_truncation(capsys):
    # the resolutions of the simples are the shipped sphere tables: no cutoff
    with pytest.raises(SystemExit) as exc:
        main(["ext", "--from", "simple:0", "--to", "simple:1", "--higher", "--n", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 6" in capsys.readouterr().err


def test_flop_commands(capsys):
    code, out = run(capsys, "flop", "--dimvec", "1,2", "--json")
    assert json.loads(out)["image"] == [3, 2]
    code, out = run(capsys, "flop", "--point", "1,1", "--z0", "1,1", "--z1", "-1,2", "--json")
    data = json.loads(out)
    assert data["k_image"] == [1, 1]
    assert data["verdict"]["verdict"] == "unstable"


def test_arc_commands(tmp_path, capsys):
    code, out = run(capsys, "arc", "--op", "invariants", "--catalog", "S:2", "--json")
    data = json.loads(out)
    assert (data["ray_crossings"], data["seg_crossings"]) == (1, 1)
    code, out = run(capsys, "arc", "--op", "flop", "--catalog", "S:1", "--json")
    data = json.loads(out)
    assert data["invariants"]["ray_crossings"] == 1
    assert data["invariants"]["start"] == "b"
    # write an arc file and read it back
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(data["arc"]))
    code, out = run(capsys, "arc", "--op", "invariants", "--arc", str(path), "--json")
    assert json.loads(out)["seg_crossings"] == 0


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for z0, z1 in ((["-1", "2"], ["1", "1"]), ([-1, 2], [1, 1])):
        cfg.write_text(json.dumps({"z0": z0, "z1": z1}))
        code, out = run(capsys, "stable", "--kind", "point:1:1", "--config", str(cfg), "--json")
        assert code == 0 and json.loads(out)["verdict"] == "stable"


def test_bad_inputs_exit_two(capsys):
    assert main(["scan", "--bound", "9", "--z0", "-1,2", "--z1", "1,1"]) == 2
    assert main(["stable", "--kind", "vplus:2", "--z0", "1,1", "--z1", "2,2"]) == 2
    assert main(["rep", "make", "--kind", "mystery:1"]) == 2
    assert main(["psi", "--object", "sphere:9"]) == 2
    # rationals that Fraction divides by zero or expands from an exponent
    assert main(["psi", "--object", "cone:1/0,1"]) == 2
    assert main(["psi", "--object", "table:torus:1/0"]) == 2
    assert main(["flop", "--point", "1/0,1", "--z0", "1,1", "--z1", "-1,2"]) == 2
    assert main(["stable", "--kind", "point:1:1", "--z0", "1e3,1", "--z1", "-1,2"]) == 2
    assert capsys.readouterr().err.count("error: ") == 8
    # a table name is torus or torus:RHO exactly, not any name starting with torus
    assert main(["psi", "--object", "table:torusXYZ"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown table 'torusXYZ'")
    # every field of --object is read, so junk after the last one is an error
    for obj in ("sphere:3:junk", "cone:1,2:junk", "table:sphere:5:junk"):
        assert main(["psi", "--object", obj]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["scan", "--bound", "3", "--z0", "1,1", "--z1", "1,1"]) == 2
    assert capsys.readouterr().err == "error: parameters lie on the wall arg z0 = arg z1\n"
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_ainfty_check(capsys):
    code, out = run(capsys, "ainfty-check", "--json")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("loader,data", [
    ("rep_from_json", {"dims": [1, 1]}),
    ("rep_from_json", {"dims": [1], "x": [], "z": [], "y": [], "w": []}),
    ("rep_from_json", {"dims": [1, 1], "x": ["1"], "z": [["1"]], "y": [["1"]], "w": [["1"]]}),
    ("rep_from_json", {"dims": [1, -1], "x": [], "z": [], "y": [], "w": []}),
    ("rep_from_json", {"dims": [1, 2], "x": [["1"], ["1", "0"]], "z": [["0"], ["0"]],
                       "y": [["0", "0"]], "w": [["0", "0"]]}),
    ("arc_from_json", {"points": [["-3", "0"], ["1"]]}),
    ("arc_from_json", [["-3", "0"], ["-1", "0"]]),
    ("scene_from_json", {"a": "-3", "b": "-1"}),
    ("scene_from_json", {"a": "-3", "b": "1/0", "r1": "2", "r2": "3/2", "eps": "1/8"}),
    ("matrix_from_json", [[True]]),
    ("scene_from_json", {"a": "-4", "b": "-2", "r1": "3/2", "r2": "5/2", "eps": True}),
])
def test_malformed_json_raises_value_error(loader, data):
    with pytest.raises(ValueError):
        getattr(jsonio, loader)(data)


_WRONG_ENDPOINT = {"points": [["-4", "0"], ["-3", "1"], ["-1", "0"]]}
_SELF_CROSSING = {"points": [["-4", "0"], ["-3", "2"], ["-2", "-2"], ["-4", "1"], ["-2", "0"]]}


@pytest.mark.parametrize("argv,payload", [
    (["rep", "check", "--rep"], {"dims": [1, 1]}),
    (["stable", "--z0", "-1,2", "--z1", "1,1", "--rep"], {"dims": [1, 1], "x": [["1"]]}),
    (["arc", "--op", "invariants", "--arc"], {"points": [["-3", "0"], [None, "0"]]}),
    (["arc", "--op", "invariants", "--catalog", "S:1", "--scene"], {"a": "-3"}),
    (["arc", "--op", "flop", "--arc"], _WRONG_ENDPOINT),
    (["arc", "--op", "flop", "--arc"], _SELF_CROSSING),
    (["arc", "--op", "twist", "--arc"], _WRONG_ENDPOINT),
    (["arc", "--op", "twist", "--arc"], _SELF_CROSSING),
    (["arc", "--op", "flop", "--arc"], {"points": [["-4", "0"], ["-2", "0"]], "orientation": True}),
    (["stable", "--kind", "point:1:1", "--config"], {"z0": ["-1", "2"]}),
    (["stable", "--kind", "point:1:1", "--config"], {"z0": ["-1"], "z1": ["1", "1"]}),
    (["stable", "--kind", "point:1:1", "--config"], {"z0": [True, "2"], "z1": ["1", "1"]}),
])
def test_malformed_json_files_exit_two(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(argv + [str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RuntimeError, StabilizationError])
def test_runtime_errors_exit_one_without_traceback(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("did not stabilize")

    monkeypatch.setattr(cli, "psi_sphere", fail)
    assert main(["psi", "--object", "sphere:2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: did not stabilize\n"


# --- stable --rep FILE against fuzzed JSON files -----------------------------

_NON_RATIONALS = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), "1/0", "x", "1/2/3", "", "--1"]),
    st.floats(), st.booleans(), st.none(), st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=2), st.dictionaries(st.just("p"), st.integers()))
_JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                            lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                            max_leaves=8)


@st.composite
def _rep_payload(draw):
    """A JSON value for a representation file: a module with small dims and
    integer entries, which mostly breaks the relations or is not nilpotent,
    or such a module with one entry that is not a rational, one matrix of
    the wrong shape, bad dims or a missing key; or any JSON value."""
    fault = draw(st.sampled_from(["none", "entry", "shape", "dims", "key", "any"]))
    if fault == "any":
        return draw(_JSON_VALUES)
    d0, d1 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = draw(st.sampled_from([st.integers(-2, 2), st.sampled_from([0, 1])]))
    shapes = {"x": (d1, d0), "z": (d1, d0), "y": (d0, d1), "w": (d0, d1)}
    if fault == "shape":
        arrow = draw(st.sampled_from("xzyw"))
        rows, cols = shapes[arrow]
        shapes[arrow] = (max(rows + draw(st.integers(-1, 1)), 0), cols + 1)
    payload = {"dims": [d0, d1]}
    for arrow, (rows, cols) in shapes.items():
        payload[arrow] = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    cells = [(a, i, j) for a in "xzyw" for i, row in enumerate(payload[a]) for j in range(len(row))]
    if fault == "entry" and cells:
        a, i, j = draw(st.sampled_from(cells))
        payload[a][i][j] = draw(_NON_RATIONALS)
    elif fault == "dims":
        payload["dims"] = draw(st.one_of(
            st.lists(st.integers(-1, 4), max_size=3), st.lists(_NON_RATIONALS, max_size=2),
            _NON_RATIONALS))
    elif fault == "key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    return payload


def _point(x):
    return {"dims": [1, 1], "x": [[x]], "z": [["0"]], "y": [["0"]], "w": [["0"]]}


def _run_keeping_contract(argv):
    """Run the CLI in process and check the exit-code contract: 0, 1 or 2,
    no traceback, and an ``error:`` line on stderr for a nonzero code.
    Returns the code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("error: ")
    return code, out.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_rep_payload(), st.sampled_from([("-1,2", "1,1"), ("1,1", "-1,2")]))
@example(_point(float("inf")), ("-1,2", "1,1"))
@example(_point(float("nan")), ("-1,2", "1,1"))
@example(_point("1/0"), ("-1,2", "1,1"))
@example(_point("1e10000000"), ("-1,2", "1,1"))
@example({"dims": [1, 1], "x": [["1"]], "z": [["1"]], "y": [["1"]], "w": [["1"]]}, ("-1,2", "1,1"))
def test_stable_rep_file_keeps_exit_code_contract(payload, chamber):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)  # NaN and Infinity are written as JSON reads them
        code, out = _run_keeping_contract(
            ["stable", "--rep", path, "--json", "--z0", chamber[0], "--z1", chamber[1]])
    if code == 0:
        assert json.loads(out)["verdict"] in (
            "stable", "semistable_only", "unstable", "undetermined")


# --- rational CLI arguments and config files against fuzzed input ------------

_RATIONAL_TEXT = st.one_of(
    st.sampled_from(["1/0", "1e3", "1E-2", "inf", "nan", "", "1/2/3", "x", "--1", "0", "-3/4"]),
    st.text(alphabet="0123456789/-+.eE,:", max_size=6))
# every command-line argument that carries rationals, {a} and {b} its entries
_RATIONAL_ARGV = [
    "stable --kind=point:1:1 --z0={a},{b} --z1=-1,2",
    "stable --kind=point:1:1 --z0=-1,2 --z1={a},{b}",
    "stable --kind=point:{a}:{b} --z0=1,1 --z1=-1,2",
    "stable --kind=point-flopped:{a}:{b} --z0=-1,2 --z1=1,1",
    "psi --object=cone:{a},{b}",
    "psi --object=table:torus:{a}",
    "flop --point={a},{b} --z0=1,1 --z1=-1,2",
]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(_RATIONAL_ARGV), _RATIONAL_TEXT, _RATIONAL_TEXT)
@example("psi --object=cone:{a},{b}", "1/0", "1")
@example("psi --object=table:torus:{a}", "1/0", "")
@example("flop --point={a},{b} --z0=1,1 --z1=-1,2", "1/0", "1")
@example("stable --kind=point:1:1 --z0={a},{b} --z1=-1,2", "1e3", "1")
def test_rational_arguments_keep_exit_code_contract(template, a, b):
    _run_keeping_contract(template.format(a=a, b=b).split(" "))


_CHAIN_KINDS = ["vplus", "vminus", "vplus-dag", "vminus-dag"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(_CHAIN_KINDS),
       st.one_of(st.integers(-2, 2 * cli.MAX_CHAIN_LENGTH).map(str), _RATIONAL_TEXT))
@example("vplus", "1000000")
@example("vminus-dag", str(cli.MAX_CHAIN_LENGTH + 1))
def test_chain_lengths_keep_exit_code_contract(kind, length):
    # a length above the cap is refused before any matrix is built
    code, _ = _run_keeping_contract(["rep", "make", "--kind=%s:%s" % (kind, length), "--json"])
    try:
        n = int(length)
    except ValueError:
        return
    if n > cli.MAX_CHAIN_LENGTH:
        assert code == 2


def test_chain_length_cap_holds_for_every_command(capsys):
    too_long = "vplus:%d" % (cli.MAX_CHAIN_LENGTH + 1)
    assert main(["rep", "make", "--kind", "vplus:%d" % cli.MAX_CHAIN_LENGTH, "--json"]) == 0
    assert main(["rep", "check", "--kind", too_long]) == 2
    assert main(["stable", "--kind", too_long, "--z0", "-1,2", "--z1", "1,1"]) == 2
    assert main(["ext", "--from", "simple:0", "--to", too_long]) == 2
    assert capsys.readouterr().err.count("above the limit") == 3
    # ext has a lower cap of its own, on either module
    ext_too_long = "vminus-dag:%d" % (cli.MAX_EXT_CHAIN_LENGTH + 1)
    assert main(["ext", "--from", ext_too_long, "--to", "simple:0"]) == 2
    assert main(["ext", "--from", "simple:1", "--to", ext_too_long, "--higher"]) == 2
    assert capsys.readouterr().err.count("above the limit of %d" % cli.MAX_EXT_CHAIN_LENGTH) == 2
    assert main(["ext", "--from", "simple:0", "--to", "vplus:%d" % cli.MAX_EXT_CHAIN_LENGTH]) == 0
    assert main(["rep", "check", "--kind", ext_too_long]) == 0
    # library callers keep the full range
    assert make_catalog_rep("vplus", cli.MAX_CHAIN_LENGTH + 1).dims == (
        cli.MAX_CHAIN_LENGTH, cli.MAX_CHAIN_LENGTH + 1)


def test_config_n_key_changes_nothing(tmp_path, capsys):
    # --n has one source, the command line; a config file never supplies it
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": 4}))
    for argv in (["psi", "--object", "table:sphere0", "--json"],
                 ["truncate", "--n", "3", "--json"]):
        assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["truncate", "--config", str(cfg)])
    assert exc.value.code == 2


_PAIR_VALUES = st.one_of(
    st.lists(st.one_of(_NON_RATIONALS, st.integers(-3, 3), _RATIONAL_TEXT), max_size=3),
    st.builds("{},{}".format, _RATIONAL_TEXT, _RATIONAL_TEXT), _JSON_VALUES)


@st.composite
def _config_payload(draw):
    """A JSON value for a config file: an object with some of z0, z1 and
    scene, each a pair, a string or any JSON value; or any JSON value."""
    if draw(st.booleans()):
        return draw(_JSON_VALUES)
    payload = {}
    for key in draw(st.sets(st.sampled_from(["z0", "z1", "scene"]))):
        payload[key] = draw(_PAIR_VALUES if key != "scene" else _JSON_VALUES)
    return payload


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_config_payload(), st.sampled_from([
    ["stable", "--kind", "point:1:1", "--json"],
    ["scan", "--bound", "2", "--json"],
    ["flop", "--point", "1,1", "--json"],
    ["arc", "--op", "invariants", "--catalog", "S:1", "--json"]]))
@example([1, 2], ["stable", "--kind", "point:1:1", "--json"])
@example({"z0": [1, 1], "z1": [-1, 2]}, ["stable", "--kind", "point:1:1", "--json"])
def test_config_file_keeps_exit_code_contract(payload, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        _run_keeping_contract(argv + ["--config", path])


_CHAMBERS = (["--z0", "-1,2", "--z1", "1,1"], ["--z0", "1,1", "--z1", "-1,2"])
_PINNED_KINDS = ["simple:0", "simple:1", "point:1:2", "point:1:0", "point:0:1", "point:1:-1",
                 "point-flopped:1:2", "point-flopped:0:1", "vplus:1", "vplus:2", "vplus:3",
                 "vplus:4", "vminus:0", "vminus:1", "vminus:2", "vminus:3", "vplus-dag:2",
                 "vplus-dag:3", "vminus-dag:1", "vminus-dag:2"]
_PINNED_TABLES = ["sphere0", "L0", "sphere1", "L1", "torus", "torus:3", "torus:1/2",
                  "sphere:2", "sphere:3", "sphere:4", "sphere:5", "sphere:6"]
_PINNED_EXT_PAIRS = (
    [("simple:%d" % v, k)
     for v in (0, 1) for k in ("simple:0", "simple:1", "point:1:2", "vplus:3", "vminus:2")]
    + [("vplus:3", "vplus:3"), ("point:1:2", "point:1:2"), ("vminus:2", "vplus:3")])
_PINNED_ARCS = ["%s:%d" % (label, k) for label in ("S", "Sp") for k in range(-3, 4)]
_PINNED_ARGV = (
    [["scan", "--bound", "5", *ch] for ch in _CHAMBERS]
    + [["psi", "--object", "sphere:%d" % k] for k in range(-5, 6)]
    + [["psi", "--object", "table:" + t, "--n", n] for t in _PINNED_TABLES for n in ("6", "7")]
    + [["ext", "--from", a, "--to", b, "--higher"] for a, b in _PINNED_EXT_PAIRS]
    + [["stable", "--kind", k, *ch] for k in _PINNED_KINDS for ch in _CHAMBERS]
    + [["truncate", "--n", str(n)] for n in range(13)] + [["relations"], ["mc"]]
    + [["ext", "--from", a, "--to", b] for a, b in _PINNED_EXT_PAIRS]
    + [["arc", "--op", op, "--catalog", c]
       for op in ("invariants", "flop", "twist") for c in _PINNED_ARCS]
    + [["arc", "--op", "twist", "--inverse", "--catalog", c] for c in _PINNED_ARCS[:7]]
    + [["flop", "--dimvec", "3,2"], ["flop", "--point", "1,1", "--z0", "1,1", "--z1", "-1,2"],
       ["rep", "make", "--kind", "vplus:3"], ["ainfty-check"]]
    + [["ext", "--from", "vplus:21", "--to", "vplus:21", "--higher"]])
_PINNED = [argv + mode for argv in _PINNED_ARGV for mode in ([], ["--json"])]
_VERIFY_ALL_ARGV = ["verify-all", "--json"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_record(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, _sha256(out.getvalue()), _sha256(err.getvalue())]


def _verify_all_sha256():
    """The pin of `verify-all --json`, shared with the layer benchmark."""
    return (Path(__file__).resolve().parent / "data" / "verify_all.sha256").read_text().strip()


def test_cli_outputs_are_pinned():
    # tests/data/cli_outputs.json maps " ".join(argv) to the _cli_record of
    # each invocation in _PINNED; a change meant to alter an output
    # rewrites that entry from _cli_record
    with open(Path(__file__).resolve().parent / "data" / "cli_outputs.json") as fh:
        want = json.load(fh)
    assert sorted(want) == sorted(" ".join(argv) for argv in _PINNED)
    for argv in _PINNED:
        assert _cli_record(argv) == want[" ".join(argv)], argv
    assert _cli_record(_VERIFY_ALL_ARGV) == [0, _verify_all_sha256(), _sha256("")]
