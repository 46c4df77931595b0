import json
from pathlib import Path

import numpy as np
import pytest

from bloch_braids import ModelSpec, io as bio, phase_diagram, track_bands
from bloch_braids.cli import RunConfig, main
from bloch_braids.topology import find_eps_k

DIMER = {"kind": "dimer",
         "params": {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": 1.0, "m": 1}}
TRIMER = {"kind": "trimer",
          "params": {"alpha": 1.0, "beta": -1.2, "delta": 0.3, "gamma": 0.7, "v": 0.7, "m": 1}}


@pytest.fixture
def dimer_file(tmp_path):
    path = tmp_path / "dimer.json"
    path.write_text(json.dumps(DIMER))
    return str(path)


@pytest.fixture
def trimer_file(tmp_path):
    path = tmp_path / "trimer.json"
    path.write_text(json.dumps(TRIMER))
    return str(path)


# -- serialisation ------------------------------------------------------------

def test_trajectory_csv_shape_and_roundtrip_floats():
    spec = ModelSpec.from_json_dict(DIMER)
    traj = track_bands(spec, 0.0, samples=64)
    text = bio.trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "k,re_E1,im_E1,re_E2,im_E2"
    assert len(lines) == traj.samples + 2
    cells = lines[1].split(",")
    assert float(cells[0]) == traj.t_grid[0]
    assert float(cells[1]) == traj.bands[0, 0].real  # exact: repr round-trips


def test_trajectory_json_fields():
    spec = ModelSpec.from_json_dict(DIMER)
    traj = track_bands(spec, 0.0, samples=64)
    doc = bio.trajectory_to_json_dict(traj)
    assert doc["model"] == DIMER
    assert doc["closure_permutation"] == [1, 0]
    assert doc["band_mapping"] == "(E1,E2)->(E2,E1)"
    assert len(doc["bands"]) == 2
    assert len(doc["bands"][0]) == len(doc["k_grid"])


def test_phase_diagram_csv_and_json():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 0.0, 1)
    pd = phase_diagram(spec, ("beta", 1.4, 1.6, 3), ("gamma", -1.0, 1.0, 5), samples=128)
    text = bio.phase_diagram_to_csv(pd)
    lines = text.strip().split("\n")
    assert lines[0] == "beta,gamma,word,nu,degenerate"
    assert len(lines) == 1 + 3 * 5
    doc = bio.phase_diagram_to_json_dict(pd)
    assert doc["axis1"]["name"] == "beta"
    assert len(doc["cells"]) == 3 and len(doc["cells"][0]) == 5
    assert "boundaries" in doc


def test_eps_json():
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 0.5, 1)
    doc = bio.eps_to_json_dict(spec, find_eps_k(spec))
    assert doc["count"] == 1
    assert doc["model"] == spec.to_json_dict()
    ep = doc["exceptional_points"][0]
    assert ep["space"] == "k"
    assert ep["bands"] == [1, 2]
    assert abs(ep["location"][0] - np.pi) < 1e-6
    # a search that finds nothing still names the model it searched
    spec = ModelSpec.dimer(1.0, 1.5, 0.3, 1.0, 1)
    assert find_eps_k(spec) == []
    assert bio.eps_to_json_dict(spec, []) == {"count": 0, "model": spec.to_json_dict(),
                                              "exceptional_points": []}


def _stdlib_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


HOSTILE_JSON = {
    "non-finite": [float("nan"), float("inf"), -float("inf"), 1.5],
    "non-finite-rows": [[0.5, float("nan")], [float("-inf"), 2.0]],
    "tiny-huge-negzero": [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1e16, 123456789.0],
    "float64": [np.float64(0.1), np.float64(-0.0), 0.5, np.float64("nan")],
    "float64-rows": [[np.float64(1.0), 2.0], [3.0, np.float64(4.0)]],
    "bool-in-floats": [1.0, True, 0.5, False],
    "bools-only": [True, False],
    "int-and-float": [1, 2.0, -3, 4.5],
    "ints": [0, -1, 2 ** 70, 3],
    "unequal-rows": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
    "rows-with-empty": [[], [], []],
    "row-and-scalar": [[1.0, 2.0], 3.0],
    "deep-rows": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [-0.0, 8.0]]],
    "empty": {"list": [], "dict": {}, "tuple": (), "nested": [[], {}, [[]]]},
    "tuples": ((1.0, 2.0), (3.0, 4.0), (0.5, -0.5, 1.0)),
    "tuple-rows": [(1.0, 2.0), [3.0, 4.0]],
    "strings": ["plain", "caf\u00e9", "\u2603 snow", "tab\there", "nl\n", "quote\"\\",
                "\x00\x1f\x7f", "\ud83d\ude00 astral", ""],
    "unicode-keys": {"\u00e9": 1, "a": None, "B": True, "\n": [1.0]},
    "top-level-float": 0.1,
    "top-level-nan": float("nan"),
    "top-level-string": "\u00fcber",
    "null": None,
    "mixed": {"z": [1.0, "x", None, [2.0, 3.0], {"k": -0.0}], "a": {"b": {"c": [0.25] * 3}}},
}


@pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
def test_dumps_json_matches_stdlib_on_hostile_documents(name):
    doc = HOSTILE_JSON[name]
    assert bio.dumps_json(doc) == _stdlib_json(doc)
    assert bio.dumps_json({"doc": doc, "rows": [doc, doc]}) == \
        _stdlib_json({"doc": doc, "rows": [doc, doc]})


@pytest.mark.parametrize("doc", [{1: 2.0}, {"a": {None: 1}}, {"a": 1, 2: "b"}, {1.5: []},
                                 [{0.5: 1.0}, {2.5: 3.0}], [np.int64(3)],
                                 {"x": np.array([1.0])}, {"x": {1.0, 2.0}}, [1j],
                                 [np.bool_(True)]],
                         ids=["int-key", "none-key", "mixed-keys", "float-key", "float-key-rows",
                              "np-int64", "ndarray", "set", "complex", "np-bool"])
def test_dumps_json_raises_type_error_where_it_cannot_match(doc):
    # the standard library writes the non-string keys; the writer refuses them
    with pytest.raises(TypeError):
        bio.dumps_json(doc)


def test_dumps_json_matches_stdlib_on_every_cli_document(dimer_file, trimer_file, tmp_path,
                                                        capsys, monkeypatch):
    # each document the CLI writes, compared where it is written
    written = []
    dumps_json = bio.dumps_json

    def checked(doc):
        text = dumps_json(doc)
        assert text == _stdlib_json(doc)
        written.append(doc)
        return text

    monkeypatch.setattr(bio, "dumps_json", checked)
    pd = ["--axis1", "beta:1.4:1.6:3", "--axis2", "gamma:-1:1:5", "--samples", "128"]
    runs = [("bands", dimer_file, ["--format", "json"]), ("braid", trimer_file, []),
            ("eps", dimer_file, []), ("winding", dimer_file, ["--eref", "0.5,-0.25"]),
            ("phase-diagram", dimer_file, [*pd, "--format", "json"]),
            ("phase-diagram", trimer_file, ["--axis1", "beta:-2:2:3", "--axis2",
                                            "gamma:0.02:1:4", "--format", "json"]),
            ("riemann", dimer_file, ["--format", "json"]), ("riemann", dimer_file, [])]
    for i, (command, model, args) in enumerate(runs):
        assert main([command, "--model", model, *args, "--out", str(tmp_path / f"out{i}"),
                     "--dump-config", str(tmp_path / f"config{i}.json")]) == 0
    eps_model = tmp_path / "eps_model.json"
    eps_model.write_text(json.dumps({**DIMER, "params": {**DIMER["params"], "gamma": 0.5}}))
    assert main(["eps", "--model", str(eps_model), "--out", str(tmp_path / "eps.json")]) == 0
    capsys.readouterr()
    # each run's config and one JSON output (for the CSV riemann run, its .eps.json), and eps
    assert len(written) == 2 * len(runs) + 1
    assert json.loads((tmp_path / "eps.json").read_text())["count"] == 1


def _csv_reference(traj) -> str:
    """trajectory_to_csv written one value at a time."""
    lines = ["k," + ",".join(f"re_E{i + 1},im_E{i + 1}" for i in range(traj.n_bands))]
    for j, t in enumerate(traj.t_grid):
        cells = [repr(float(t))]
        for i in range(traj.n_bands):
            cells += [repr(float(traj.bands[i, j].real)), repr(float(traj.bands[i, j].imag))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_the_per_value_writer(fig3_trimer):
    from dataclasses import replace

    from bloch_braids import riemann_loop
    refined = track_bands(fig3_trimer(-1.2, 0.5176), np.pi / 4)     # near the fig4a boundary
    assert refined.samples > 512
    dimer = track_bands(ModelSpec.from_json_dict(DIMER), 0.3, samples=128)
    bands = dimer.bands.copy()
    bands[0, ::3] = complex(-0.0, 1.0)
    bands[1, ::4] = complex(0.5, -0.0)
    signed_zero = replace(dimer, bands=bands, t_grid=-0.0 * dimer.t_grid)
    for traj in (dimer, track_bands(ModelSpec.from_json_dict(TRIMER), 0.0, samples=64),
                 riemann_loop(ModelSpec.from_json_dict(DIMER), 0.8, 64, 0.1), refined,
                 signed_zero):
        assert bio.trajectory_to_csv(traj) == _csv_reference(traj)
    assert "-0.0,1.0" in bio.trajectory_to_csv(signed_zero)
    assert ",0.5,-0.0" in bio.trajectory_to_csv(signed_zero)


def test_trajectory_json_matches_the_per_value_dict(fig3_trimer):
    from bloch_braids import riemann_loop
    for traj in (track_bands(ModelSpec.from_json_dict(TRIMER), 0.0, samples=64),
                 riemann_loop(ModelSpec.from_json_dict(DIMER), 0.8, 64, 0.1)):
        doc = bio.trajectory_to_json_dict(traj)
        assert doc["k_grid"] == [float(t) for t in traj.t_grid]
        assert doc["bands"] == [[[float(e.real), float(e.imag)] for e in band]
                                for band in traj.bands]
        assert {type(x) for band in doc["bands"] for pair in band for x in pair} == {float}


# -- RunConfig ------------------------------------------------------------------

def test_runconfig_roundtrip():
    cfg = RunConfig("bands", DIMER, {"k0": 0.0, "samples": 128}, "out.csv", "csv")
    doc = cfg.to_json_dict()
    again = RunConfig.from_json_dict(json.loads(json.dumps(doc)))
    assert again == cfg


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig.from_json_dict({"command": "fly", "model": DIMER})
    cfg = RunConfig("phase-diagram", DIMER, {}, None, "csv")
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = RunConfig("bands", DIMER, {"k0": 0.0, "radius": 2.0}, None, "csv")
    with pytest.raises(ValueError):
        cfg.validate()
    # defaults filled in, integers taken as floats where a float is meant, axes parsed
    assert RunConfig("riemann", DIMER, {"r": 2}).validate() == \
        {"r": 2.0, "theta0": 0.0, "samples": 512}
    assert RunConfig("phase-diagram", DIMER, {"axis1": "beta:0:3:4", "axis2": "gamma:-1:1:5"}
                     ).validate() == {"axis1": ("beta", 0.0, 3.0, 4),
                                      "axis2": ("gamma", -1.0, 1.0, 5),
                                      "k0": np.pi / 4, "samples": 512}


# -- CLI ---------------------------------------------------------------------------

def test_cli_bands(dimer_file, tmp_path, capsys):
    out = tmp_path / "bands.csv"
    code = main(["bands", "--model", dimer_file, "--k0", "0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "closure: (1 2)"
    header = out.read_text().split("\n", 1)[0]
    assert header == "k,re_E1,im_E1,re_E2,im_E2"


def test_cli_braid_summary(trimer_file, capsys):
    code = main(["braid", "--model", trimer_file, "--k0", "0.7853981633974483"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "word: t1 t2, nu: 2"


def test_cli_eps(dimer_file, tmp_path, capsys):
    out = tmp_path / "eps.json"
    code = main(["eps", "--model", dimer_file, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["count"] == 0  # gamma=1 sits between the lines


def test_cli_winding(dimer_file, capsys):
    code = main(["winding", "--model", dimer_file, "--eref", "0,0"])
    assert code == 0
    assert capsys.readouterr().out.startswith("nu: 1")


def test_cli_phase_diagram(dimer_file, tmp_path, capsys):
    out = tmp_path / "pd.csv"
    code = main(["phase-diagram", "--model", dimer_file,
                 "--axis1", "beta:1.4:1.6:3", "--axis2", "gamma:-1:1:5",
                 "--samples", "128", "--out", str(out)])
    assert code == 0
    assert "cells: 15" in capsys.readouterr().out
    assert out.read_text().startswith("beta,gamma,word,nu,degenerate")


def test_cli_riemann(dimer_file, tmp_path, capsys):
    out = tmp_path / "loops.csv"
    code = main(["riemann", "--model", dimer_file, "--r", "1.0", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "z-plane eps inside zone: 1" in summary
    assert (tmp_path / "loops.csv.eps.json").exists()


def test_cli_exit_codes(tmp_path, dimer_file, capsys):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps({"kind": "pentamer", "params": {}}))
    assert main(["bands", "--model", str(bad_model), "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()
    # parameters exactly on an exceptional line: numerical failure
    ep_model = tmp_path / "ep.json"
    ep_model.write_text(json.dumps(
        {"kind": "dimer", "params": {"alpha": 1.0, "beta": 1.5, "delta": 0.3, "gamma": 0.5, "m": 1}}))
    assert main(["bands", "--model", str(ep_model), "--out", str(tmp_path / "y.csv")]) == 2
    capsys.readouterr()
    # purely imaginary bands: real parts tie at every base point, so no band
    # order (and no braid word) exists
    for alpha, beta, gamma in ((1.0, 1.0, 3.0), (0.0, 0.0, 1.0)):
        ep_model.write_text(json.dumps({"kind": "dimer", "params": {
            "alpha": alpha, "beta": beta, "delta": 0.0, "gamma": gamma}}))
        assert main(["braid", "--model", str(ep_model), "--out", str(tmp_path / "w.json")]) == 2
        assert "numerical failure: UnresolvedCrossing" in capsys.readouterr().err
        assert not (tmp_path / "w.json").exists()
    assert main(["phase-diagram", "--model", dimer_file,
                 "--axis1", "nope:0:1:3", "--axis2", "gamma:0:1:3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["bands", "--k0", "nan"], ["braid", "--k0", "inf"], ["winding", "--eref", "nan"],
    ["winding", "--eref", "0,-inf"], ["riemann", "--r", "inf"], ["riemann", "--theta0", "nan"],
    ["phase-diagram", "--axis1", "beta:1.4:1.6:3", "--axis2", "gamma:-1:1:5", "--k0", "nan"]],
    ids=["bands-k0", "braid-k0", "winding-eref", "winding-eref-imag", "riemann-r",
         "riemann-theta0", "phase-diagram-k0"])
def test_cli_rejects_non_finite_options(args, dimer_file, tmp_path, capsys):
    # these ran to the refinement cap and exited 2 as numerical failures
    out = tmp_path / "out"
    assert main([args[0], "--model", dimer_file, "--out", str(out), *args[1:]]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eref", ["1,2,3", "0.5,0.1,junk"])
def test_cli_rejects_eref_with_extra_parts(eref, dimer_file, tmp_path, capsys):
    # the parts after the second were dropped, and the run exited 0
    out = tmp_path / "w.json"
    assert main(["winding", "--model", dimer_file, "--eref", eref, "--out", str(out)]) == 1
    assert "--eref takes RE or RE,IM" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, code", [
    (["bands", "--model", "MODEL", "--samples", "64.5"], 1), (["bands"], 1), (["nope"], 1),
    (["eps", "--help"], 0)], ids=["non-integer-samples", "missing-model", "unknown-command", "help"])
def test_cli_usage_exit_codes(args, code, dimer_file, capsys):
    # argparse exits 2 on a usage error, the status reserved for numerical failure
    with pytest.raises(SystemExit) as exc:
        main([dimer_file if a == "MODEL" else a for a in args])
    assert exc.value.code == code
    assert ("usage:" in capsys.readouterr().err) == (code == 1)


def test_cli_reuses_one_parser(dimer_file, tmp_path, capsys):
    from bloch_braids.cli import build_parser
    assert build_parser() is build_parser()
    dumped = tmp_path / "bands.json"
    assert main(["bands", "--model", dimer_file, "--k0", "0.5", "--samples", "128",
                 "--format", "json", "--out", str(tmp_path / "a"),
                 "--dump-config", str(dumped)]) == 0
    assert json.loads(dumped.read_text())["options"] == {"k0": 0.5, "samples": 128}
    # a second run in the process sees its own options and defaults only
    for args, options, fmt in (
            (["winding", "--eref", "0.25"], {"eref_real": 0.25, "eref_imag": 0.0,
                                             "samples": 1024}, "json"),
            (["bands"], {"k0": 0.0, "samples": 512}, "csv"),
            (["riemann", "--theta0", "0.1"], {"r": 1.0, "theta0": 0.1, "samples": 512}, "csv")):
        assert main([args[0], "--model", dimer_file, *args[1:], "--dump-config",
                     str(dumped)]) == 0
        doc = json.loads(dumped.read_text())
        assert (doc["command"], doc["options"], doc["out"], doc["format"]) == \
            (args[0], options, None, fmt)
    capsys.readouterr()
    # a usage error after good runs: exit 1 and the text of a parser built afresh
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--samples", "64"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(["bands", "--samples", "64"])
    assert capsys.readouterr().err == err
    lines = err.splitlines()
    assert lines[0].startswith("usage: bloch-braids bands ")
    assert sum(line.startswith("usage:") for line in lines) == 1
    assert lines[-1] == "bloch-braids bands: error: the following arguments are required: --model"
    assert main(["eps", "--model", dimer_file]) == 0
    assert capsys.readouterr() == ("eps: 0\n", "")


def test_cli_eps_on_a_model_degenerate_everywhere_exits_2(tmp_path, capsys):
    # it printed "eps: 0" and exited 0
    model = tmp_path / "zero.json"
    model.write_text(json.dumps({"kind": "dimer", "params": {
        "alpha": 0.0, "beta": 0.0, "delta": 0.0, "gamma": 0.0, "m": 1}}))
    out = tmp_path / "eps.json"
    assert main(["eps", "--model", str(model), "--out", str(out)]) == 2
    assert "numerical failure: DegenerateModel" in capsys.readouterr().err
    assert not out.exists()


def test_cli_dump_config_reruns_identically(dimer_file, tmp_path, capsys):
    for args in (["bands", "--k0", "0.3", "--samples", "128"],
                 ["braid", "--k0", "0.3", "--samples", "128"], ["eps"],
                 ["winding", "--eref", "0.5,-0.25", "--samples", "128"],
                 ["phase-diagram", "--axis1", "beta:1.4:1.6:3", "--axis2", "gamma:-1:1:5",
                  "--k0", "0.2", "--samples", "128", "--format", "json"],
                 ["riemann", "--r", "0.8", "--theta0", "0.1", "--samples", "128"]):
        cfg = tmp_path / f"{args[0]}.json"
        out1, out2 = tmp_path / f"{args[0]}-a", tmp_path / f"{args[0]}-b"
        assert main([args[0], "--model", dimer_file, *args[1:], "--out", str(out1),
                     "--dump-config", str(cfg)]) == 0
        summary = capsys.readouterr().out
        doc = json.loads(cfg.read_text())
        doc["out"] = str(out2)
        cfg.write_text(json.dumps(doc))
        assert main(["from-config", str(cfg)]) == 0
        assert capsys.readouterr().out == summary
        assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "riemann-a.eps.json").read_bytes() == \
        (tmp_path / "riemann-b.eps.json").read_bytes()


def test_cli_determinism(trimer_file, tmp_path, capsys):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["bands", "--model", trimer_file, "--k0", "0.7853981633974483",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_shipped_configs_parse():
    import glob
    import os
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(here, "configs", "*.json")))
    assert len(paths) >= 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            cfg = RunConfig.from_json_dict(json.load(fh))
        ModelSpec.from_json_dict(cfg.model)
        cfg.validate()


def test_cli_braid_dimer_index_independent_of_k0(dimer_file, tmp_path, capsys):
    # the dimer's index winds about E = 0 only, so the base momentum is never read
    nus = []
    for k0 in ("0", "0.7853981633974483", "1.3"):
        out = tmp_path / f"braid-{k0}.json"
        assert main(["braid", "--model", dimer_file, "--k0", k0, "--out", str(out)]) == 0
        nus.append(json.loads(out.read_text())["nu"])
    capsys.readouterr()
    assert nus == [1, 1, 1]


def test_cli_rejects_non_integer_thread_count(dimer_file, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "pd.json"
    cfg.write_text(json.dumps({"command": "phase-diagram", "model": DIMER,
                               "options": {"axis1": "beta:1.4:1.6:3",
                                           "axis2": "gamma:-1:1:5", "samples": 128},
                               "out": str(tmp_path / "pd.csv")}))
    monkeypatch.setenv("BLOCH_BRAIDS_THREADS", "two")
    assert main(["from-config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "BLOCH_BRAIDS_THREADS" in err and "'two'" in err


def test_cli_rejects_negative_thread_count(tmp_path, capsys, monkeypatch):
    # only unset or 0 means automatic; a negative count ran on the automatic one
    cfg = tmp_path / "pd.json"
    cfg.write_text(json.dumps({"command": "phase-diagram", "model": DIMER,
                               "options": {"axis1": "beta:1.4:1.6:3",
                                           "axis2": "gamma:-1:1:5", "samples": 128},
                               "out": str(tmp_path / "pd.csv")}))
    monkeypatch.setenv("BLOCH_BRAIDS_THREADS", "-2")
    assert main(["from-config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "BLOCH_BRAIDS_THREADS" in err and "-2" in err
    assert not (tmp_path / "pd.csv").exists()
    with pytest.raises(ValueError, match="threads"):
        phase_diagram(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0), ("beta", 1.4, 1.6, 2),
                      ("gamma", -1.0, 1.0, 3), threads=-1)


# -- bad input at the boundary --------------------------------------------------

FIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("fig*.json"))


def _generic_eps(n=1, term=None, **extra):
    """An eps config on a Hermitian generic dimer (alpha = 1, beta = 1.5), which exits 0;
    ``n`` sets the second term's n, ``term`` adds keys to it (an object) or is appended
    as a fourth term, and ``extra`` adds keys to the params."""
    hop = {"n": n, "matrix": [[[0, 0], [0, 0]], [[1.5, 0], [0, 0]]]}
    terms = [{"n": 0, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}, hop,
             {"n": -1, "matrix": [[[0, 0], [1.5, 0]], [[0, 0], [0, 0]]]}]
    if isinstance(term, dict):
        hop.update(term)
    elif term is not None:
        terms.append(term)
    return {"command": "eps", "out": "eps.json", "model": {
        "kind": "generic", "params": {"dimension": 2, "terms": terms, **extra}}}


def _bad_configs():
    """Each shipped config with one option replaced by a value of the wrong JSON type,
    and the shape errors of config and model documents, with a fragment of the error."""
    cases = []
    for path in FIGS:
        doc = json.loads(path.read_text())
        for key, value in doc["options"].items():
            bad = {"string": str(value), "list": [value], "null": None, "true": True}
            if isinstance(value, str):
                del bad["string"]
            if key == "samples":
                bad["64.5"] = 64.5
            for name, wrong in bad.items():
                cases.append(pytest.param({**doc, "options": {**doc["options"], key: wrong}},
                                          f"option {key} must be",
                                          id=f"{path.stem}-{key}-{name}"))
    pd = {"command": "phase-diagram", "model": DIMER, "out": "pd.csv",
          "options": {"axis1": "gamma:-1:1:3", "axis2": "gamma:-2:2:4", "samples": 128}}
    bands = {"command": "bands", "model": DIMER, "out": "bands.csv"}
    eps = {"command": "eps", "model": DIMER, "out": "eps.json"}
    params = DIMER["params"]
    unit = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]     # a 2x2 matrix of [re, im] pairs

    for name, doc, needle in [
            ("config-list", [bands], "config must be a JSON object"),
            ("options-list", {**bands, "options": [["k0", 1.0]]}, "options must be a JSON object"),
            ("model-string", {**bands, "model": "dimer.json"}, "config model must be a JSON object, got 'dimer.json'"),
            ("out-int", {**bands, "command": "eps", "out": 1}, "out must be a string or null"),
            ("m-1.7", {**bands, "model": {"kind": "dimer", "params": {**params, "m": 1.7}}},
             "m must be a positive integer, got 1.7"),
            ("missing-v", {**bands, "model": {**TRIMER, "params": {"alpha": 1.0, "beta": 1.0,
                                                                   "delta": 0.3, "gamma": 0.7}}},
             "trimer parameter v is missing"),
            ("params-string", {**bands, "model": {"kind": "dimer", "params": "alpha"}},
             "params must be a JSON object"),
            ("repeated-axis", pd, "both axes sweep 'gamma'"),
            ("option-typo", {**bands, "option": {"k0": 1.0, "samples": 64}},
             "unknown config keys ['option']"),
            ("generic-no-terms", {**bands, "model": {"kind": "generic",
                                                    "params": {"dimension": 2}}},
             "generic parameter terms is missing"),
            ("generic-term-no-matrix", {**bands, "model": {"kind": "generic", "params": {
                "dimension": 2, "terms": [{"n": 0}]}}}, "generic model term 0 matrix is missing"),
            ("generic-term-no-n", {**bands, "model": {"kind": "generic", "params": {
                "dimension": 2, "terms": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}}},
             "generic model term 0 n is missing"),
            ("generic-dimension-3", {**eps, "model": {"kind": "generic", "params": {
                "dimension": 3, "terms": [{"n": 1, "matrix": unit}]}}},
             "has shape (2, 2), expected (3, 3)"),
            ("generic-plain-matrix", {**bands, "model": {"kind": "generic", "params": {
                "dimension": 2, "terms": [{"n": 0, "matrix": [[1, 0], [0, 1]]}]}}},
             "generic model term 0 'matrix' must be rows of [re, im] pairs"),
            ("param-string-number", {**eps, "model": {"kind": "dimer",
                                                      "params": {**params, "alpha": "1.0"}}},
             "dimer parameter alpha must be a number, got '1.0'"),
            ("param-true", {**eps, "model": {"kind": "dimer",
                                             "params": {**params, "gamma": True}}},
             "dimer parameter gamma must be a number, got True"),
            ("param-null", {**eps, "model": {"kind": "dimer",
                                             "params": {**params, "delta": None}}},
             "dimer parameter delta must be a number, got None"),
            ("dimer-v", {**eps, "model": {"kind": "dimer", "params": {**params, "v": 0.7}}},
             "unknown dimer parameter keys ['v']"),
            ("generic-n-1.7", _generic_eps(n=1.7),
             "generic model term 1 n must be an integer, got 1.7"),
            ("generic-n-string", _generic_eps(n="1"),
             "generic model term 1 n must be an integer, got '1'"),
            ("generic-n-true", _generic_eps(n=True),
             "generic model term 1 n must be an integer, got True"),
            ("generic-params-extra", _generic_eps(extra=1),
             "unknown generic parameter keys ['extra']"),
            ("generic-term-extra", _generic_eps(term={"x": 1}),
             "unknown generic model term 1 keys ['x']"),
            ("generic-term-list", _generic_eps(term=[]), "generic model term 3 must be a JSON object"),
            ("generic-terms-object", {**eps, "model": {"kind": "generic", "params": {
                "dimension": 2, "terms": {"n": 0, "matrix": unit}}}},
             "generic parameter terms must be a list"),
            ("model-no-kind", {**eps, "model": {"params": params}}, "model kind is missing"),
            ("kind-3", {**eps, "model": {**DIMER, "kind": 3}}, "model kind must be a string, got 3"),
            ("kind-pentamer", {**eps, "model": {**DIMER, "kind": "pentamer"}},
             "model kind must be one of dimer, trimer, generic, got 'pentamer'"),
            ("model-no-params", {**eps, "model": {"kind": "dimer"}}, "model params is missing"),
            ("generic-dimension-true", _generic_eps(dimension=True),
             "generic parameter dimension must be an integer or null, got True"),
            ("generic-dimension-2.5", _generic_eps(dimension=2.5),
             "generic parameter dimension must be an integer or null, got 2.5"),
            ("format-xml", {**bands, "format": "xml"},
             "config format must be csv or json, got 'xml'"),
            ("command-fly", {**bands, "command": "fly"}, "config command must be one of"),
            ("option-unknown", {**bands, "options": {"radius": 2.0}},
             "unknown bands option keys ['radius']"),
            ("samples-63", {**bands, "options": {"samples": 63}},
             "bands option samples must be at least 64, got 63"),
            ("r-0", {**bands, "command": "riemann", "options": {"r": 0}},
             "riemann option r must be positive, got 0.0"),
            ("axis-3-parts", {**pd, "options": {**pd["options"], "axis1": "beta:0:1"}},
             "phase-diagram option axis1 must be name:start:stop:resolution, got 'beta:0:1'")]:
        cases.append(pytest.param(doc, needle, id=name))
    return cases


@pytest.mark.parametrize("doc, needle", _bad_configs())
def test_cli_rejects_bad_config_at_the_boundary(doc, needle, tmp_path, capsys, monkeypatch):
    # wrong types ran (a string number, true, 64.5 samples as 64) or died with a
    # traceback; "out": 1 wrote to file descriptor 1 and closed it
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["from-config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and needle in lines[0], lines
    assert list(work.iterdir()) == []


def test_cli_generic_model_of_the_bad_configs_runs(tmp_path, capsys, monkeypatch):
    # the generic-* cases above each change one field of this document
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_generic_eps()))
    monkeypatch.chdir(tmp_path)
    assert main(["from-config", str(cfg)]) == 0
    assert capsys.readouterr().out == "eps: 0\n"


# -- golden bytes ----------------------------------------------------------------

# sha256 of the phase-diagram CSV of a fig1b slab: 6 beta rows in [0.25, 2] by
# 600 gamma cells in [-3, 3]; every row crosses |gamma| = |beta - alpha| and
# |gamma| = beta + alpha, which the last row meets at its two end cells
SLAB_CSV_SHA256 = {
    1: "4749b88682fddb15a88a40ff69fa45f1e09082776a75e206d02b9a749f356f67",
    2: "269b8664ee8c3f8fd77f8e0502927138a7cb9657a560b1671bf8ba44abe348ba",
}


@pytest.mark.parametrize("m", sorted(SLAB_CSV_SHA256))
def test_cli_phase_diagram_csv_golden_bytes(m, tmp_path, capsys, monkeypatch):
    import hashlib
    doc = {"command": "phase-diagram", "format": "csv",
           "model": {"kind": "dimer", "params": {**DIMER["params"], "m": m}},
           "options": {"axis1": "beta:0.25:2:6", "axis2": "gamma:-3:3:600",
                       "k0": 0.7853981633974483, "samples": 512},
           "out": "slab.csv"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["from-config", str(cfg)]) == 0
    assert capsys.readouterr().out == "cells: 3600, degenerate: 2, phases: 3\n"
    digest = hashlib.sha256((tmp_path / "slab.csv").read_bytes()).hexdigest()
    assert digest == SLAB_CSV_SHA256[m]


# sha256 of the phase-diagram JSON of the m = 1 slab above and of a fig3b slab:
# 5 beta rows in [-2, 2] by 50 gamma cells in [0.02, 1], with every fig3b phase
# and the two DEGENERATE cells at beta = +/-1, gamma = 0.6
SLAB_JSON = {
    "dimer": ({**DIMER["params"], "m": 1}, "beta:0.25:2:6", "gamma:-3:3:600",
              "cells: 3600, degenerate: 2, phases: 3\n",
              "c85ba609db65b454956dc44621897ea5a2d5b4ee22ddda603bfa483900ea55f1"),
    "trimer": ({"alpha": 1.0, "beta": 1.0, "delta": 0.3, "gamma": 0.1, "v": 0.7, "m": 1},
               "beta:-2:2:5", "gamma:0.02:1:50", "cells: 250, degenerate: 2, phases: 4\n",
               "86d53a5b3510c9fe7566c072f61cee1451496dbe176b917ae1681e406246ad1b"),
}


@pytest.mark.parametrize("kind", sorted(SLAB_JSON))
def test_cli_phase_diagram_json_golden_bytes(kind, tmp_path, capsys, monkeypatch):
    import hashlib
    params, axis1, axis2, summary, sha = SLAB_JSON[kind]
    doc = {"command": "phase-diagram", "format": "json",
           "model": {"kind": kind, "params": params},
           "options": {"axis1": axis1, "axis2": axis2, "k0": 0.7853981633974483,
                       "samples": 512},
           "out": "slab.json"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["from-config", str(cfg)]) == 0
    assert capsys.readouterr().out == summary
    assert hashlib.sha256((tmp_path / "slab.json").read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_phase_diagram_builds_no_phase_cell(fmt, tmp_path, capsys, monkeypatch):
    # the writers and the summary read the label table and the id grid
    from bloch_braids import topology
    built = []
    init = topology.PhaseCell.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(topology.PhaseCell, "__init__", counted)
    params, axis1, axis2, summary, _ = SLAB_JSON["trimer"]
    doc = {"command": "phase-diagram", "format": fmt, "out": f"slab.{fmt}",
           "model": {"kind": "trimer", "params": params},
           "options": {"axis1": axis1, "axis2": axis2}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["from-config", str(cfg)]) == 0
    assert capsys.readouterr().out == summary
    assert built == []
    pd = phase_diagram(ModelSpec.dimer(1.0, 1.5, 0.3, 0.0), ("beta", 1.4, 1.6, 2),
                       ("gamma", -1.0, 1.0, 3), samples=128, threads=1)
    pd.cell_at(1.5, 0.0)
    assert len(built) == 1      # the counter sees the views' cells


# sha256 of stdout and of every file each shipped config writes, but the two
# phase-diagram planes (the slabs above cover their code paths)
SHIPPED_SHA256 = {
    "fig1c1": ("64b28e16d70637984cdd63c0b4e2c6be1ec77d4f1d1626115dddbfbf0dd2ce54",
               {"fig1c1_bands.csv":
                    "6fbfbb854464c7e76b5b9cdb4fc3dec2acf0c089b3debd13b36f13afbe9191db"}),
    "fig1c2": ("7ab03abd66ebad3ca4fe6be5e6a067297990accce01de2aa8336874844bf5a6f",
               {"fig1c2_eps.json":
                    "3df942bb00fd2b8e3ec6e662ec89dcac9eb73a8194e2c5a95c899e5ef958ee64"}),
    "fig1c3": ("0eb98b7a3d69997a58b0ee6c2bde9ff7c285c6cbe55eb6e5bdc056e64206b82a",
               {"fig1c3_bands.csv":
                    "1fe146a7b09b9215c60e4c332a36dd3c865e3d9707ce5a128b835c46c50aadbe"}),
    "fig1c4": ("7ab03abd66ebad3ca4fe6be5e6a067297990accce01de2aa8336874844bf5a6f",
               {"fig1c4_eps.json":
                    "5918ea7f7031d2747f627025cd402af3d0f7fec125336d85089b94d430cd5b3d"}),
    "fig1c5": ("64b28e16d70637984cdd63c0b4e2c6be1ec77d4f1d1626115dddbfbf0dd2ce54",
               {"fig1c5_bands.csv":
                    "1fde8e7c9489284f12d0cd704f4b3ff19c82bf1a2effddb81f58fc70b57fb457"}),
    "fig2a": ("0eb98b7a3d69997a58b0ee6c2bde9ff7c285c6cbe55eb6e5bdc056e64206b82a",
              {"fig2a_bands.csv":
                   "279af4e882764042d9f3df06abd61400dee750de1008bad54887c5afd8817f2c"}),
    "fig2b": ("64b28e16d70637984cdd63c0b4e2c6be1ec77d4f1d1626115dddbfbf0dd2ce54",
              {"fig2b_bands.csv":
                   "a2c940f55214f47ca7942beb3ecc8639ca8cbb4a6d6bd68724f94fcd2453d209"}),
    "fig2c": ("b7efadedd6a55331b7980eb10cff3c350c14f09d915a61aba97fecb2ebbc9ce4",
              {"fig2c_loops.csv":
                   "279af4e882764042d9f3df06abd61400dee750de1008bad54887c5afd8817f2c",
               "fig2c_loops.csv.eps.json":
                   "5ee0cba515ad812269be6d397e9c6181e2e9d567bcdd4aaa0c4b184a284bef9b"}),
    "fig2d": ("71bc10c4377bf5e9517d81875750140aaaf347f476e9afdb314aff8503e2a686",
              {"fig2d_loops.csv":
                   "a2c940f55214f47ca7942beb3ecc8639ca8cbb4a6d6bd68724f94fcd2453d209",
               "fig2d_loops.csv.eps.json":
                   "4284fc0107aa1a082bb0ac533d6ae486eaa9720e1572a8cae6034103ca94b02d"}),
    "fig3d": ("0eb98b7a3d69997a58b0ee6c2bde9ff7c285c6cbe55eb6e5bdc056e64206b82a",
              {"fig3d_bands.csv":
                   "167d8db460da6dfa9524652f36eb3c27168d3203dddbd394d0d9d134d95f6038"}),
    "fig3e": ("64b28e16d70637984cdd63c0b4e2c6be1ec77d4f1d1626115dddbfbf0dd2ce54",
              {"fig3e_bands.csv":
                   "b3255fd4d525f3d630cc6cb96910a14336a9851e329a4f1cfa5a939dee476b67"}),
    "fig3f": ("58d767555f344aec33db38adb302f8f8236372c2d55bf437f9fd7e10ffa0210b",
              {"fig3f_bands.csv":
                   "c670bbcc0b7235b73cb42801d34d33fa80bd7224ec71b358f418415926b71372"}),
    "fig4a": ("5e7ace1b6a0e6aa871cabbe4baa5ddb708c13020ea2bb058c2fd32e167600441",
              {"fig4a_braid.json":
                   "249d9b519afc6e737043bf5503f503358e435b0e494e912d43411b2c07b01158"}),
    "fig4b": ("0230996a2d8c7dc3948e307beeb68d8eab1254e81aed54bd60b5344fd0317baf",
              {"fig4b_braid.json":
                   "74f0496b326d35e0789fd62f3dd85608cf567c42263505ce0b37e217a5db4a77"}),
    "figS1a": ("0e2dd6c5e95603842fd8236a8e50654b2d4bbcc34be960dce3e48596d6c9f035",
               {"figS1a_braid.json":
                    "de58c2847b311b5dee43e6e4e187634ce1f0e5f4a227058055df8b0499443c5b"}),
    "figS1b": ("7b955efc3ed71ead82aee810def5c572ceaeee2c3f8b577b8beca7d11f4c06dd",
               {"figS1b_braid.json":
                    "f1c074663a87d65ecdab51e37a605b3c20239f43d6d406f7ede52dc4962f354a"}),
    "figS1c": ("1df231ce32c29419102f9bf16a825168f17cc09ba6c073e100a882282d794df3",
               {"figS1c_braid.json":
                    "1e12bbf818dff56ff8a93ebbaec91115eb24d09938f25d946fde1e8c2507ca59"}),
    "figS2a": ("2705d4382b748f561b83adb73b7f6906827622cdf0be1c43198ccd29baf7b622",
               {"figS2a_braid.json":
                    "a2e8f217a26385d7ce8d9b276f811caf32cf08fa9df2537a9824eabd8dbe8b29"}),
    "figS2b": ("028975a114f31e761d633ddad4b5db5ffdbbf7216ee6f3024de4a5f3366b27bf",
               {"figS2b_braid.json":
                    "8606dcc749d2ca8c05a98d490754c4b80e5324915f97f99205cdd687b9e4a2c1"}),
    "figS2c": ("823283b59fc56efda9db69cf5b881f8ac46a704c4d8beb0e792f72e5f9de37ac",
               {"figS2c_braid.json":
                    "73038a610ca38f7e4e734d9c4d146ab5f335ce491e274a64cb6b7be0ba0e2101"}),
}


def test_shipped_digests_cover_every_small_config():
    assert sorted(SHIPPED_SHA256) == sorted(p.stem for p in FIGS
                                            if p.stem not in ("fig1b", "fig3b"))


@pytest.mark.parametrize("stem", sorted(SHIPPED_SHA256))
def test_shipped_config_golden_bytes(stem, tmp_path, capsys, monkeypatch):
    import hashlib
    stdout_sha, file_shas = SHIPPED_SHA256[stem]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = Path(__file__).resolve().parent.parent / "configs" / f"{stem}.json"
    assert main(["from-config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in work.iterdir()} == file_shas
