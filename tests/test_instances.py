"""Instance model, file round trips, and the three generators."""

import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from pierce.errors import GenerationError
from pierce.geometry import TWO_PI, UNIT_CIRCLE, ConvexBody, CurveModel, containment_matrix
from pierce.instances import (
    GALLERY_TRIANGLES,
    Instance,
    gallery7,
    gen_clustered,
    gen_pairwise,
    load_instance,
    save_instance,
)
from pierce import instances, meetgraph
from pierce.meetgraph import build_meet_graph, verify_p2


def test_instance_validation():
    tri = ConvexBody.from_vertices(0, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        Instance([])
    with pytest.raises(ValueError):
        Instance([tri], p=1)
    inst = Instance([tri], p=2, meta={"kind": "adhoc"})
    assert inst.curve is UNIT_CIRCLE
    # p is an integer, also a numpy one; from_dict passes it through
    assert type(Instance([tri], p=np.int64(3)).p) is int
    for p in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="p must be an integer"):
            Instance([tri], p=p)
    data = inst.to_dict()
    for p in (2.9, 2.0):
        with pytest.raises(ValueError, match="p must be an integer"):
            Instance.from_dict({**data, "p": p})
    for p in ("3", None, [3], True):
        with pytest.raises(ValueError, match="'p' is not a finite number"):
            Instance.from_dict({**data, "p": p})
    assert Instance.from_dict({**data, "p": 5}).p == 5


def test_instance_reader_takes_only_circles():
    data = gallery7().to_dict()
    assert data["curve"]["type"] == "circle"
    for kind in ("ellipse", "Circle", None, 1):
        with pytest.raises(ValueError, match="^curve 'type' is not \"circle\"$"):
            Instance.from_dict({**data, "curve": {**data["curve"], "type": kind}})
    curve = {k: v for k, v in data["curve"].items() if k != "type"}
    with pytest.raises(ValueError, match="^curve has no 'type' key$"):
        Instance.from_dict({**data, "curve": curve})


def test_repeated_body_ids_are_rejected(tmp_path):
    ids = [0, 5, 7, 3, 4, 5, 6, 7, 8, 5, 10, 11]
    twins = [ConvexBody.from_vertices(i, b.vertices)
             for i, b in zip(ids, gen_pairwise(12, 3).bodies)]
    with pytest.raises(ValueError, match=r"repeated: \[5, 7\]"):
        Instance(twins)
    data = gen_pairwise(12, 3).to_dict()
    for body in data["bodies"]:
        body["id"] = 5
    with pytest.raises(ValueError, match=r"repeated: \[5\]"):
        Instance.from_dict(data)
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="distinct"):
        load_instance(str(path))


def test_body_ids_are_finite_numbers_or_strings(tmp_path):
    # NaN never equals itself, so two NaN ids would pass the distinct-id
    # check; the id rule rejects them first, as it does what no instance
    # file can hold
    bodies = gen_pairwise(4, 0).bodies
    for ids, named in [([math.nan, math.nan, 2, 3], "[nan, nan]"), ([True, 1, 2, 3], "[True]"),
                       ([0, math.inf, None, 3], "[inf, None]"), ([0, 1, 2, (3,)], "[(3,)]"),
                       ([0, 1, 2, 10**400], f"[{10**400}]")]:
        family = [ConvexBody.from_vertices(i, b.vertices) for i, b in zip(ids, bodies)]
        with pytest.raises(ValueError, match="^" + re.escape(
                f"body ids must be finite numbers or strings; not {named}") + "$"):
            Instance(family)
    # every id an instance holds survives a write and a read
    ids = ["a", 2.5, -7, 1e300]
    inst = Instance([ConvexBody.from_vertices(i, b.vertices) for i, b in zip(ids, bodies)])
    save_instance(inst, str(tmp_path / "ids.json"))
    assert [b.id for b in load_instance(str(tmp_path / "ids.json")).bodies] == ids


def test_instance_rejects_coordinates_past_the_range_bound():
    # At radius 1 a coordinate below 2**20 has an ulp of 2**-33, under
    # TOL_GEOM / 8, and one from 2**20 on an ulp of 2**-32, over it.
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    Instance([ConvexBody.from_vertices(0, tri + (2.0**20 - 2))])
    with pytest.raises(ValueError, match=re.escape(
            "coordinate 1048577.0 has an ulp of 2.33e-10, over an eighth of TOL_GEOM*r = 1e-09")):
        Instance([ConvexBody.from_vertices(0, tri + 2.0**20)])
    # The bound scales with the radius, and the center's coordinates count.
    Instance([ConvexBody.from_vertices(0, tri + 2.0**20)], curve=CurveModel((0.0, 0.0), 2.0))
    with pytest.raises(ValueError, match=r"^coordinate -2097152\.0 has an ulp of 4\.66e-10,"):
        Instance([ConvexBody.from_vertices(0, tri)], curve=CurveModel((-2.0**21, 0.0), 1.0))
    data = gallery7().to_dict()
    data["curve"]["center"] = [1e7, 0.0]
    with pytest.raises(ValueError, match="^coordinate 10000000.0 has an ulp of 1.86e-09,"):
        Instance.from_dict(data)


def test_instance_round_trip_exact(tmp_path):
    inst = gen_pairwise(5, seed=3)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert back.p == inst.p
    assert back.meta == inst.meta
    for a, b in zip(inst.bodies, back.bodies):
        assert a.id == b.id
        assert np.array_equal(a.vertices, b.vertices)  # bit identical floats
    # a second write is byte-identical
    path2 = tmp_path / "again.json"
    save_instance(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_gen_pairwise_meets_completely():
    inst = gen_pairwise(2, seed=0)
    graph = build_meet_graph(inst.bodies, inst.curve)
    assert graph.edge_count == 1

    inst = gen_pairwise(50, seed=1)
    graph = build_meet_graph(inst.bodies, inst.curve)
    assert graph.edge_count == 50 * 49 // 2
    assert inst.meta["kind"] == "pairwise"


def test_gen_pairwise_validation_and_determinism():
    with pytest.raises(ValueError):
        gen_pairwise(1)
    a = gen_pairwise(6, seed=9)
    b = gen_pairwise(6, seed=9)
    for x, y in zip(a.bodies, b.bodies):
        assert np.array_equal(x.vertices, y.vertices)


def test_gen_pairwise_bodies_are_pinned():
    # A digest of the vertices' float64 bytes over seven families, as the
    # ten-attempt draw made them: its first attempt, SeedSequence([seed, 0]),
    # always passed, so one draw from that stream gives the same bodies.
    h = hashlib.sha256()
    for inst in [gen_pairwise(6, j) for j in range(6)] + [gen_pairwise(40, 3)]:
        for body in inst.bodies:
            h.update(np.ascontiguousarray(body.vertices, dtype="<f8").tobytes())
    assert h.hexdigest() == "1652f1692ff62432cba9dc9d74850a487d41ea80661044747fbb99675582eac5"


def test_gen_pairwise_names_the_first_body_within_half_the_circle():
    ring = instances._ring_points
    made = []

    def short(lo, span):
        # The third body holds an arc of 1.0 rad, under half the circle.
        made.append(lo)
        return ring(lo, 1.0 if len(made) == 3 else span)

    with mock.patch.object(instances, "_ring_points", short):
        with pytest.raises(GenerationError, match="^pairwise body 2 holds at most half the circle$"):
            gen_pairwise(6, 0)


def test_gen_clustered_condition_and_tightness():
    inst = gen_clustered(2, 5, seed=0)
    graph = build_meet_graph(inst.bodies, inst.curve)
    # single cluster: everyone shares the anchor point
    assert graph.edge_count == 5 * 4 // 2

    inst = gen_clustered(4, 60, seed=7)
    graph = build_meet_graph(inst.bodies, inst.curve)
    with mock.patch.object(meetgraph, "EXACT_INDEPENDENCE_CAP", 60):
        assert verify_p2(graph, 4)
    # one representative per cluster is pairwise non-meeting
    for a in range(3):
        for b in range(a + 1, 3):
            assert not graph.adj[a, b]


def test_gen_clustered_large_shares_anchors():
    # the generator's self-check is linear in n, so large families are cheap
    inst = gen_clustered(8, 80, seed=0)
    assert len(inst.bodies) == 80
    anchors = [UNIT_CIRCLE.point_at(2 * math.pi * (body.id % 7) / 7) for body in inst.bodies]
    assert containment_matrix(inst.bodies, anchors).diagonal().all()


def test_gen_clustered_names_the_first_body_off_its_anchor():
    wedge = instances._wedge_points
    made = []

    def moved(anchor, w_lo, w_hi):
        # Bodies 2 and 5 are moved off the curve.
        made.append(anchor)
        shift = 5.0 if len(made) in (3, 6) else 0.0
        return [(x + shift, y) for x, y in wedge(anchor, w_lo, w_hi)]

    with mock.patch.object(instances, "_wedge_points", moved):
        with pytest.raises(GenerationError, match="^clustered body 2 misses its cluster's anchor$"):
            gen_clustered(3, 8, 0)


def test_gen_clustered_validation():
    with pytest.raises(ValueError):
        gen_clustered(1, 5)
    with pytest.raises(ValueError):
        gen_clustered(3, 2)


@pytest.mark.parametrize("seed", [-1, True, False, 1.0, "3", None, np.int64(3)])
def test_generators_take_only_a_non_negative_int_seed(seed):
    # numpy would take True as 1 and reject -1 without naming the seed.
    error = re.escape(f"seed must be a non-negative integer, not {seed!r}")
    with pytest.raises(ValueError, match=f"^{error}$"):
        gen_pairwise(4, seed=seed)
    with pytest.raises(ValueError, match=f"^{error}$"):
        gen_clustered(3, 4, seed=seed)


@pytest.mark.parametrize("make, name, value", [
    (lambda v: gen_pairwise(v), "n", np.int64(8)),
    (lambda v: gen_pairwise(v), "n", 8.0),
    (lambda v: gen_clustered(v, 8), "p", np.int64(3)),
    (lambda v: gen_clustered(v, 8), "p", 3.0),
    (lambda v: gen_clustered(3, v), "n", np.int64(8)),
    (lambda v: gen_clustered(3, v), "n", 8.0),
], ids=["pairwise-n-int64", "pairwise-n-float", "clustered-p-int64", "clustered-p-float",
        "clustered-n-int64", "clustered-n-float"])
def test_generators_take_only_int_sizes(make, name, value):
    # A numpy integer in meta could not be written to a file, and a float
    # failed in range() with a bare TypeError.
    error = re.escape(f"{name} must be an integer, not {value!r}")
    with pytest.raises(ValueError, match=f"^{error}$"):
        make(value)


@pytest.mark.parametrize("delta, error", [
    (np.float32(0.3), None),
    (True, "delta must be numbers"),
    (math.nan, "delta must be finite"),
    (math.inf, "delta must be finite"),
], ids=["float32", "true", "nan", "inf"])
def test_gallery7_takes_a_finite_real_delta(tmp_path, delta, error):
    # delta is read by CurveModel's rule for a number. A numpy float in meta
    # could not be written to a file, True was written as "delta": true, and
    # NaN and infinity failed later with a line that did not name delta.
    if error:
        with pytest.raises(ValueError, match=f"^{error}$"):
            gallery7(delta)
        return
    save_instance(gallery7(delta), str(tmp_path / "g.json"))
    inst = load_instance(str(tmp_path / "g.json"))
    assert inst.meta["delta"] == float(delta)
    assert inst.to_dict() == gallery7(float(delta)).to_dict()


@pytest.mark.parametrize("delta", [TWO_PI / 7, -TWO_PI / 7, 1.0])
def test_gallery7_keeps_its_corners_apart(delta):
    # At 2*pi/7 the sixth corner lands on the fifth, and two of the
    # triangles once failed with "body 2: 2 distinct vertices", naming no
    # delta.
    error = re.escape(f"delta must lie strictly between -2*pi/7 and 2*pi/7, not {delta!r}")
    with pytest.raises(ValueError, match=f"^{error}$"):
        gallery7(delta)


@pytest.mark.parametrize("delta, digest", [
    (0.3, "f779a58dc516418e403cf5bebb87b9d65d316f5477fb6792cbe5f5cbcefd3eb5"),
    (-0.5, "515df7782242cbd2d2eb686f73b6891966a38ddbb0832a9b973f5696a179e821"),
])
def test_gallery7_in_range_is_unchanged(delta, digest):
    # The sha256 of each instance's sorted JSON, as it was before the range check.
    text = json.dumps(gallery7(delta).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gallery7_shape():
    inst = gallery7()
    assert len(inst.bodies) == 7
    assert inst.p == 2
    assert inst.meta["delta"] == pytest.approx(0.3)
    graph = build_meet_graph(inst.bodies, inst.curve)
    assert graph.edge_count == 21  # complete on seven triangles
    for body, tri in zip(inst.bodies, GALLERY_TRIANGLES):
        assert len(body.vertices) == 3
        for x, y in body.vertices:
            assert math.hypot(x, y) == pytest.approx(1.0)
    corner_sets = [frozenset(tri) for tri in GALLERY_TRIANGLES]
    for i in range(7):
        for j in range(i + 1, 7):
            assert len(corner_sets[i] & corner_sets[j]) == 1


