"""End-to-end driver behavior: subcommands, exit codes, file handling."""

import errno
import json
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pierce.pipeline
from pierce.cli import cli_run
from pierce.geometry import ConvexBody
from pierce.instances import (
    Instance, _ring_points, gallery7, gen_clustered, gen_pairwise, load_instance, save_instance,
)

from conftest import pg22_twice

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_gen_oracle_gallery(tmp_path, capsys):
    inst_path = str(tmp_path / "g.json")
    assert cli_run(["gen", "gallery", "-o", inst_path]) == 0
    assert cli_run(["oracle", inst_path]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert cli_run(["oracle", inst_path, "--kmax", "2"]) == 0
    assert capsys.readouterr().out.strip() == "none"


# pierce oracle's size and points on two families, pinned so that a change in
# the classes, their representatives or the search order shows. The points
# are logged at full precision (repr), so each reads back as the float found.
ORACLE_POINTS = {
    "gallery7": ["point -0.22252093395631434 0.9749279121818235",
                 "point -0.2997260998466961 -0.5711134774505473",
                 "point 0.21262007247710712 -0.45417380698886806"],
    "pg22x2": ["point -0.6234898018587336 -0.08593599576708622",
               "point 0.15398926418495196 -0.6746710485213225",
               "point 0.07941680184852384 0.34794774335047157"],
}


@pytest.mark.parametrize("name", sorted(ORACLE_POINTS))
def test_oracle_size_and_points_are_pinned(name, tmp_path, monkeypatch, capsys, caplog):
    inst = gallery7() if name == "gallery7" else Instance(pg22_twice())
    inst_path = str(tmp_path / "i.json")
    save_instance(inst, inst_path)
    monkeypatch.setenv("PIERCE_LOG_LEVEL", "info")
    assert cli_run(["oracle", inst_path]) == 0
    assert capsys.readouterr().out.strip() == "3"
    points = [r.getMessage() for r in caplog.records if r.getMessage().startswith("point ")]
    assert points == ORACLE_POINTS[name]


def test_oracle_exits_1_naming_a_body_without_a_candidate(tmp_path, monkeypatch, capsys):
    # The fault has one path: candidate_classes raises, and cli_run exits 1
    # with its message, where the search once printed "none".
    inst_path = str(tmp_path / "g.json")
    save_instance(gallery7(), inst_path)
    monkeypatch.setattr(pierce.pipeline, "candidate_points", lambda _: np.array([[1.0, 0.0]]))
    assert cli_run(["oracle", inst_path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: candidates: no candidate inside bodies [1, 3, 5, 6]\n"


def test_solve_exits_1_when_the_transversal_misses_a_body(tmp_path, monkeypatch, caplog):
    # A greedy cover that drops its last pick leaves a body unhit: solve
    # still writes the report, whose all_bodies_hit flag is False, and exits 1.
    inst_path = str(tmp_path / "g.json")
    rep_path = str(tmp_path / "r.json")
    save_instance(gallery7(), inst_path)
    greedy = pierce.pipeline.greedy_transversal
    monkeypatch.setattr(pierce.pipeline, "greedy_transversal", lambda classes: greedy(classes)[:-1])
    assert cli_run(["solve", inst_path, "-o", rep_path]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "output transversal does not hit every body"]
    assert json.loads(Path(rep_path).read_text())["flags"]["all_bodies_hit"] is False


def test_solve_then_verify(tmp_path, capsys):
    inst_path = str(tmp_path / "g.json")
    rep_path = str(tmp_path / "r.json")
    assert cli_run(["gen", "gallery", "-o", inst_path]) == 0
    assert cli_run(["solve", inst_path, "-o", rep_path]) == 0
    assert cli_run(["verify", inst_path, rep_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    # tamper with the claimed LP value and watch the recheck catch it
    report = json.loads(Path(rep_path).read_text())
    report["tau_star"] += 1.0
    with open(rep_path, "w") as fh:
        json.dump(report, fh)
    assert cli_run(["verify", inst_path, rep_path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_catches_bad_multiplicities(tmp_path, capsys):
    inst_path = str(tmp_path / "g.json")
    rep_path = str(tmp_path / "r.json")
    cli_run(["gen", "gallery", "-o", inst_path])
    cli_run(["solve", inst_path, "-o", rep_path])
    report = json.loads(Path(rep_path).read_text())
    report["m"] = [v * 3 for v in report["m"]]  # breaks the D bound
    with open(rep_path, "w") as fh:
        json.dump(report, fh)
    assert cli_run(["verify", inst_path, rep_path]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change",
    [{"D": 0}, {"coverage": {}}, {"z": [0.1]}, "list", {"tau_star": 10**400}, {"z": [10**400, 0]}],
    ids=["zero-D", "empty-coverage", "short-z", "list", "huge-tau", "huge-z"])
def test_verify_fails_on_malformed_reports(tmp_path, capsys, change):
    inst_path = str(tmp_path / "g.json")
    rep_path = str(tmp_path / "r.json")
    cli_run(["gen", "gallery", "-o", inst_path])
    cli_run(["solve", inst_path, "-o", rep_path])
    report = json.loads(Path(rep_path).read_text())
    report = [report] if change == "list" else dict(report, **change)
    with open(rep_path, "w") as fh:
        json.dump(report, fh)
    capsys.readouterr()
    assert cli_run(["verify", inst_path, rep_path]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL ") and err == ""


def test_gen_pairwise_and_stats(tmp_path, capsys):
    inst_path = str(tmp_path / "pw.json")
    assert cli_run(["gen", "pairwise", "--n", "6", "--seed", "4", "-o", inst_path]) == 0
    inst = load_instance(inst_path)
    assert len(inst.bodies) == 6
    assert cli_run(["stats", inst_path]) == 0
    out = capsys.readouterr().out
    assert "witnesses N=15" in out  # complete graph on six bodies
    assert "turan" in out


def test_stats_colors_by_list_index(tmp_path, capsys):
    # witness lists color bodies by position, so ids other than 0..n-1
    # must not change the spread-out count
    data = gen_pairwise(12, seed=3).to_dict()
    for k, body in enumerate(data["bodies"]):
        body["id"] = 100 + k
    inst_path = tmp_path / "renumbered.json"
    inst_path.write_text(json.dumps(data))
    assert cli_run(["stats", str(inst_path)]) == 0
    assert "spread_out 12/12 " in capsys.readouterr().out


# pierce stats' whole output on five families, pinned so that a change in the
# witness list, the spread-out rule or the meet graph shows: the header, N,
# the Turan line, and the spread-out count at each of STATS_ALPHAS.
STATS_ALPHAS = ("0.027", "0.05", "0.1", "0.2")
STATS_PINS = {
    "gallery7": (gallery7, "bodies=7 p=2", 21, "meets=21 bound=12.25", (7, 5, 0, 0)),
    "pairwise-12-3": (lambda: gen_pairwise(12, 3), "bodies=12 p=2", 66,
                      "meets=66 bound=36.0", (12, 12, 10, 5)),
    "clustered-4-20-1": (lambda: gen_clustered(4, 20, 1), "bodies=20 p=4", 57,
                         "meets=57 bound=50.0", (17, 10, 0, 0)),
    "pairwise-40-7": (lambda: gen_pairwise(40, 7), "bodies=40 p=2", 780,
                      "meets=780 bound=400.0", (40, 40, 40, 18)),
    "clustered-3-30-2": (lambda: gen_clustered(3, 30, 2), "bodies=30 p=3", 210,
                         "meets=210 bound=150.0", (28, 27, 17, 0)),
    # four copies of one body: six entries at one angle, three per color
    "coincident-4": (lambda: Instance([ConvexBody.from_vertices(i, _ring_points(0.3, 2.0))
                                       for i in range(4)]),
                     "bodies=4 p=2", 6, "meets=6 bound=4.0", (0, 0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(STATS_PINS))
def test_stats_output_is_pinned(name, tmp_path, capsys):
    make, head, size, turan, spread = STATS_PINS[name]
    inst = make()
    n = len(inst.bodies)
    inst_path = str(tmp_path / "i.json")
    save_instance(inst, inst_path)
    for alpha, count in zip(STATS_ALPHAS, spread):
        assert cli_run(["stats", inst_path, "--alpha", alpha]) == 0
        assert capsys.readouterr().out.splitlines() == [
            head,
            f"witnesses N={size}",
            f"spread_out {count}/{n} at alpha={alpha}",
            f"turan {turan} ok=yes",
        ]


def test_gen_clustered_flags(tmp_path):
    inst_path = str(tmp_path / "cl.json")
    assert (
        cli_run(["gen", "clustered", "--p", "4", "--n", "12", "--seed", "2", "-o", inst_path])
        == 0
    )
    inst = load_instance(inst_path)
    assert inst.p == 4
    assert inst.meta["clusters"] == 3


def test_gen_to_stdout(capsys):
    assert cli_run(["gen", "gallery"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["bodies"]) == 7


@pytest.mark.parametrize("argv, named", [
    (["pairwise", "--p", "5", "--n", "3"], "--p 5"),
    (["clustered", "--n", "9", "--delta", "0.1"], "--delta 0.1"),
    (["gallery", "--n", "3", "--p", "7", "--seed", "4"], "--n 3 --p 7 --seed 4"),
], ids=["pairwise", "clustered", "gallery"])
def test_gen_rejects_the_options_its_kind_does_not_read(tmp_path, capsys, argv, named):
    # Each kind is its own subparser, so argparse names what it does not read.
    out = tmp_path / "x.json"
    assert cli_run(["gen", *argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"pierce: error: unrecognized arguments: {named}"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["pairwise", "clustered"])
def test_gen_names_a_bad_seed(tmp_path, capsys, kind):
    out = tmp_path / "x.json"
    assert cli_run(["gen", kind, "--seed", "-1", "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: seed must be a non-negative integer, not -1"]
    assert not out.exists()


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_gen_gallery_names_a_delta_that_is_not_finite(tmp_path, capsys, delta):
    out = tmp_path / "x.json"
    assert cli_run(["gen", "gallery", "--delta", delta, "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: delta must be finite"]
    assert not out.exists()


@pytest.mark.parametrize("argv, delta", [
    (["--delta", "-1e5"], "-100000.0"),
    (["--delta=-1e5"], "-100000.0"),
    (["--delta", "0.8975979010256552"], "0.8975979010256552"),
])
def test_gen_gallery_names_a_delta_out_of_range(tmp_path, capsys, argv, delta):
    # A value that starts with "-" but is not a plain decimal reaches
    # gallery7's check, as its "--delta=" spelling does; argparse once read
    # it as an option and said "expected one argument".
    out = tmp_path / "x.json"
    assert cli_run(["gen", "gallery", *argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: delta must lie strictly between -2*pi/7 and 2*pi/7, not {delta}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, err", [
    (["--delta", "-inf"], "error: delta must be finite"),
    (["--delta=-inf"], "error: delta must be finite"),
    (["--delta", "-0.5"], ""),
])
def test_gen_gallery_reads_a_negative_delta_as_its_value(tmp_path, capsys, argv, err):
    out = tmp_path / "x.json"
    assert cli_run(["gen", "gallery", *argv, "-o", str(out)]) == (2 if err else 0)
    assert capsys.readouterr().err.strip() == err
    assert out.exists() != bool(err)


def test_plot_outputs_svg(tmp_path):
    inst_path = str(tmp_path / "g.json")
    rep_path = str(tmp_path / "r.json")
    svg_path = str(tmp_path / "fig.svg")
    cli_run(["gen", "gallery", "-o", inst_path])
    cli_run(["solve", inst_path, "-o", rep_path])
    assert cli_run(["plot", inst_path, rep_path, "-o", svg_path]) == 0
    root = ET.parse(svg_path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert len(root.findall(f"{SVG_NS}path")) == 7
    markers = [
        c for c in root.findall(f"{SVG_NS}circle") if c.get("class") == "transversal"
    ]
    assert len(markers) == 3

    # plotting without a report still draws the bodies
    assert cli_run(["plot", inst_path, "-o", svg_path]) == 0
    root = ET.parse(svg_path).getroot()
    assert len(root.findall(f"{SVG_NS}path")) == 7


def test_usage_errors(tmp_path, capsys):
    assert cli_run(["solve", str(tmp_path / "missing.json")]) == 2
    assert cli_run(["frobnicate"]) == 2
    assert cli_run([]) == 2
    assert cli_run(["gen", "mystery"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli_run(["solve", str(bad)]) == 2
    assert cli_run(["gen", "pairwise", "--n", "1"]) == 2
    inst_path = str(tmp_path / "g.json")
    assert cli_run(["gen", "gallery", "-o", inst_path]) == 0
    assert cli_run(["solve", inst_path, "--trials", "0"]) == 2
    assert cli_run(["solve", inst_path, "--alpha", "0.05"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("vertices, reason", [
    ([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]], "convex"),
    ([[0, 0], [1, 1]], "at least 3"),
    ([[-0.2, 0.5], [0, 0.5], [0.2, 0.5]], "width"),
], ids=["non-convex", "too-few-vertices", "zero-width"])
def test_invalid_body_is_an_input_error(tmp_path, capsys, vertices, reason):
    data = gallery7().to_dict()
    data["bodies"][3] = {"id": 41, "vertices": vertices}
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(data))
    assert cli_run(["solve", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert "body 41" in err and reason in err


def test_repeated_body_ids_are_an_input_error(tmp_path, capsys):
    data = gen_pairwise(12, 3).to_dict()
    for body in data["bodies"]:
        body["id"] = 5
    inst_path = tmp_path / "twins.json"
    inst_path.write_text(json.dumps(data))
    assert cli_run(["solve", str(inst_path)]) == 2
    assert "repeated: [5]" in capsys.readouterr().err


def test_solve_and_verify_reject_coordinates_past_the_range_bound(tmp_path, capsys):
    # A report of the unshifted family, so that verify has one to read.
    inst_path, rep_path = tmp_path / "far.json", str(tmp_path / "r.json")
    save_instance(gallery7(), str(tmp_path / "g.json"))
    assert cli_run(["solve", str(tmp_path / "g.json"), "-o", rep_path]) == 0
    data = gallery7().to_dict()
    data["curve"]["center"] = [1e7, 0.0]
    for body in data["bodies"]:
        body["vertices"] = [[x + 1e7, y] for x, y in body["vertices"]]
    inst_path.write_text(json.dumps(data))
    capsys.readouterr()
    for argv in (["solve", str(inst_path)], ["verify", str(inst_path), rep_path]):
        assert cli_run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: coordinate 10000001.0 has an ulp of 1.86e-09, over an "
                              "eighth of TOL_GEOM*r = 1e-09")


def _with_id(data: dict, k: int, body_id) -> dict:
    bodies = [dict(b) for b in data["bodies"]]
    bodies[k]["id"] = body_id
    return {**data, "bodies": bodies}


@pytest.mark.parametrize("edit, error", [
    (lambda d: {k: v for k, v in d.items() if k != "bodies"}, "instance has no 'bodies' key"),
    (lambda d: [d], "instance is not a JSON object"),
    (lambda d: {**d, "curve": {**d["curve"], "radius": "1"}},
     "curve 'radius' is not a finite number"),
    (lambda d: {**d, "bodies": d["bodies"][:2] + [{"id": 2, "vertices": [[0, 0], [1, "x"]]}]},
     "bodies[2] 'vertices' is not a list of points"),
    (lambda d: {**d, "p": 2.9}, "p must be an integer, not 2.9"),
    (lambda d: {**d, "curve": {**d["curve"], "type": "ellipse"}},
     "curve 'type' is not \"circle\""),
    # one of gallery7's ids written as true, Infinity or NaN
    (lambda d: _with_id(d, 0, True), "bodies[0] 'id' is not a finite number or a string"),
    (lambda d: _with_id(d, 1, math.inf), "bodies[1] 'id' is not a finite number or a string"),
    (lambda d: _with_id(d, 2, math.nan), "bodies[2] 'id' is not a finite number or a string"),
], ids=["no-bodies", "a-list", "string-radius", "string-vertex", "fractional-p", "ellipse",
        "true-id", "infinite-id", "nan-id"])
def test_malformed_instance_file_is_an_input_error(edit, error, tmp_path, capsys):
    inst_path = tmp_path / "bad.json"
    inst_path.write_text(json.dumps(edit(gallery7().to_dict())))
    assert cli_run(["solve", str(inst_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv, path, code", [
    (["solve", "missing.json", "-o", "out.json"], "missing.json", errno.ENOENT),
    (["solve", "folder", "-o", "out.json"], "folder", errno.EISDIR),
    (["gen", "gallery", "-o", "folder"], "folder", errno.EISDIR),
    (["gen", "gallery", "-o", "missing/x.json"], "missing/x.json", errno.ENOENT),
], ids=["missing-input", "directory-input", "directory-output", "output-in-missing-directory"])
def test_a_file_that_cannot_be_opened_is_an_input_error(argv, path, code, tmp_path, monkeypatch,
                                                        capsys):
    # Reading and writing fail alike, each named in one line, and nothing
    # is written. A PermissionError takes the same branch; root opens any
    # file, so a run as root cannot provoke one.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    assert cli_run(argv) == 2
    assert capsys.readouterr() == ("", f"error: cannot open {path}: {os.strerror(code)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["folder"]
    assert list((tmp_path / "folder").iterdir()) == []


def test_plot_rejects_a_report_without_a_transversal(tmp_path, capsys):
    inst_path, rep_path = str(tmp_path / "g.json"), tmp_path / "r.json"
    assert cli_run(["gen", "gallery", "-o", inst_path]) == 0
    for report, error in [({"tau_star": 3.0}, "report has no 'transversal' key"),
                          ([], "report has no 'transversal' key"),
                          ({"transversal": [[0.0, "x"]]},
                           "report 'transversal' is not a list of points")]:
        rep_path.write_text(json.dumps(report))
        assert cli_run(["plot", inst_path, str(rep_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_stats_rejects_alpha_when_no_pair_meets(tmp_path, capsys):
    # no two bodies meet, so the witness list is empty and is_spread_out,
    # which checks alpha too, never runs
    bodies = [ConvexBody.from_vertices(i, _ring_points(lo, 0.5)) for i, lo in enumerate((0.0, 3.0))]
    inst_path = str(tmp_path / "apart.json")
    save_instance(Instance(bodies), inst_path)
    assert cli_run(["stats", inst_path, "--alpha", "0.1"]) == 0
    assert "witnesses N=0" in capsys.readouterr().out
    for alpha in ("2", "0", "-0.5", "1"):
        assert cli_run(["stats", inst_path, "--alpha", alpha]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: alpha must lie in (0, 1)\n"


def test_log_level_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PIERCE_LOG_LEVEL", "debug")
    inst_path = str(tmp_path / "g.json")
    assert cli_run(["gen", "gallery", "-o", inst_path]) == 0
    monkeypatch.setenv("PIERCE_LOG_LEVEL", "not-a-level")
    assert cli_run(["oracle", inst_path, "--kmax", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kmax", ["-3", "-1"])
def test_oracle_rejects_a_negative_kmax(tmp_path, capsys, kmax):
    inst_path = str(tmp_path / "g.json")
    save_instance(gallery7(), inst_path)
    assert cli_run(["oracle", inst_path, "--kmax", kmax]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: --kmax must be at least 0 (0 means n), not {kmax}"]
    # 0 keeps meaning n.
    assert cli_run(["oracle", inst_path, "--kmax", "0"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("value", ["verbose", "WARN", "0"])
def test_an_unknown_log_level_is_named_in_one_warning(tmp_path, monkeypatch, capsys, value):
    inst_path = str(tmp_path / "g.json")
    save_instance(gallery7(), inst_path)
    monkeypatch.setenv("PIERCE_LOG_LEVEL", value)
    assert cli_run(["oracle", inst_path]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "3"
    assert err.splitlines() == [
        f"warning: PIERCE_LOG_LEVEL '{value}' is not error, info or debug"]
    for known in ("error", " Info", "DEBUG", ""):
        monkeypatch.setenv("PIERCE_LOG_LEVEL", known)
        assert cli_run(["oracle", inst_path]) == 0
        assert "warning" not in capsys.readouterr().err
