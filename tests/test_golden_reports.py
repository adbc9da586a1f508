"""Golden report digests: each family's report, minus its timings, is pinned
by a sha256 of its canonical JSON.

A change that means to keep every report byte-identical keeps this table as
it is. A change that moves reports on purpose updates the table in the same
commit and names the families whose digests moved. The families are ones
tier-1 builds itself: the gallery and its mirror image, PG(2, q) unions
with tau* > 1 and D > 1, pairwise and clustered families (one past the
exact condition check's cap), the gallery on a circle other than the unit
one, and the gallery with a body that misses the curve. Two more take paths
no other family does: five wedges in a 5-cycle with p = 3, on which the
independent-set search branches, and four PG(2, 2) copies with p = 5, whose
multiplicities are floored at D = 143 (rationalize's floor path).
"""

import hashlib
import json

import numpy as np

from pierce.geometry import TWO_PI, ConvexBody, CurveModel
from pierce.instances import Instance, _wedge_points, gallery7, gen_clustered, gen_pairwise
from pierce.pipeline import run_pipeline
from pierce.reports import verify_report

from conftest import pg22_twice, pg_union_polygons


def _pg_union(q: int, copies) -> Instance:
    # k copies of PG(2, q), one inscribed polygon per line, with p = k + 1
    polygons = pg_union_polygons(q, copies)
    return Instance([ConvexBody.from_vertices(i, v) for i, v in enumerate(polygons)],
                    len(copies) + 1)


def _mapped(inst: Instance, vertices, curve=None) -> Instance:
    bodies = [ConvexBody.from_vertices(b.id, vertices(b.vertices)) for b in inst.bodies]
    return Instance(bodies, inst.p, curve or inst.curve, dict(inst.meta))


def _families() -> dict[str, Instance]:
    gallery = gallery7()
    # a small triangle about the center, inside the circle: filtered
    inside = ConvexBody.from_vertices(7, [(-0.1, -0.1), (0.1, -0.1), (0.0, 0.1)])
    return {
        "gallery7": gallery,
        "gallery7 mirrored": _mapped(gallery, lambda v: v * np.array([-1.0, 1.0])),
        "PG(2,2) twice, p=3": Instance(pg22_twice(), 3),
        # tau* = 20/7, D = 7
        "PG(2,2) x 2": _pg_union(2, [(0.0, range(7)), (0.2, [0, 1, 2, 4, 5, 3, 6])]),
        # tau* = 3, D = 6
        "PG(2,2) x 3": _pg_union(2, [(0.0, range(7)), (0.3, [0, 1, 2, 4, 5, 3, 6]),
                                     (0.6, [6, 5, 4, 3, 2, 1, 0])]),
        # tau* = 26/9, D = 9
        "PG(2,3) x 2": _pg_union(3, [(0.0, range(13)),
                                     (0.1, [5, 0, 7, 1, 12, 3, 2, 9, 4, 11, 6, 10, 8])]),
        **{f"pairwise(6, {j})": gen_pairwise(6, j) for j in range(3)},
        "pairwise(40, 3)": gen_pairwise(40, 3),
        "clustered(3, 8, 0)": gen_clustered(3, 8, 0),
        "clustered(4, 13, 2)": gen_clustered(4, 13, 2),
        # past the exact condition check's cap, so the check is skipped
        "clustered(3, 42, 1)": gen_clustered(3, 42, 1),
        "gallery7 on a shifted, scaled circle": _mapped(
            gallery, lambda v: v * 3.0 + np.array([5.0, -2.0]), CurveModel((5.0, -2.0), 3.0)),
        "gallery7 and a body off the curve": Instance([*gallery.bodies, inside]),
        # tau* = 5/2, D = 2; each wedge meets its two neighbors on the circle
        "five wedges in a 5-cycle, p=3": Instance(
            [ConvexBody.from_vertices(i, _wedge_points(TWO_PI * i / 5, 0.7, 0.7))
             for i in range(5)], 3),
        # tau* = 3.4743, D = d_cap = 143
        "PG(2,2) x 4": _pg_union(2, [(0.11379139745585641, (5, 0, 1, 4, 2, 3, 6)),
                                     (0.3262759101146608, (1, 5, 6, 0, 2, 3, 4)),
                                     (0.49738939589427633, (1, 3, 6, 0, 2, 4, 5)),
                                     (0.7589003771766261, (6, 2, 5, 1, 3, 4, 0))]),
    }


# sha256 of json.dumps(report without "stages", sort_keys=True), per family.
DIGESTS = {
    "gallery7": "4399f344b1862b4e020243ae4989cf601484c02e31b4015a1d7fd79f1615919a",
    "gallery7 mirrored": "60755f894019298ed7d5eb896782e923647b3a7a28ccee8e60ad751c76863744",
    "PG(2,2) twice, p=3": "e58abdbf7944551d365847e43a06365770f0ee10ceea9eeb07d5ee85640db6e0",
    "PG(2,2) x 2": "e24a5deb4ee1a3aae9f758759097a3d809ab32286ef01b9607edf655370eacda",
    "PG(2,2) x 3": "f78043b136b7ae53b6652a66803e000b11e0fc2ef2426e3b663369aad547335e",
    "PG(2,3) x 2": "a6ab27054148e61a9297f1eed8c930d12f2b743ce84cc72019b78fb5bf895458",
    "pairwise(6, 0)": "0576c4d424f9c2d8463c200cb9a96ae0839e041a0d683cb0048317e44da7b7b5",
    "pairwise(6, 1)": "87c5d97892cff01f283cd0e827786b07539e64fd0e5ece8b596b5404182763a7",
    "pairwise(6, 2)": "2ca722d6a159637a3853bc30fff3b3d8cf2240fd1d5e55d97cdd6aa7081b9588",
    "pairwise(40, 3)": "73cc7bc1aa59970ff8b8539db49f1c3a97b2232630a79245d2886e3750dda7b3",
    "clustered(3, 8, 0)": "1aac5dc86700fb3083983506b454c8a86adc61c46b11439ba5347e21b1bad5d8",
    "clustered(4, 13, 2)": "461afde84a53951403ca029c6cd64c8644b3b11401315cb580e920a222d2119c",
    "clustered(3, 42, 1)": "987787d93ae847930c836e940c3afcb2069012a2e0853324636b4b587a623a3b",
    "gallery7 on a shifted, scaled circle": "ea7c16d12b395460cd1ebf46491df6215a4a968a01c070ad49b0f0d5b7a6d923",
    "gallery7 and a body off the curve": "2ac1669c04d991811a6a3779b702434f952d2b4e4c6ea94038f0e38dffc60899",
    "five wedges in a 5-cycle, p=3": "00923978d2ec6a7d32bf80649205f1cf0a90a2e9fb01546e42309e793c1ff6ee",
    "PG(2,2) x 4": "2429fe86c0ddb0a0266cf12500defa545aea5e290df0d86497a936cb930541d8",
}


def _digest(report: dict) -> str:
    kept = {k: v for k, v in report.items() if k != "stages"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def test_reports_keep_their_golden_digests():
    families = _families()
    assert set(families) == set(DIGESTS)
    moved, failing = [], {}
    for name, inst in families.items():
        report = run_pipeline(inst.bodies, inst.curve, inst.p).to_dict()
        failures = verify_report(inst, report)
        if failures:
            failing[name] = failures
        if _digest(report) != DIGESTS[name]:
            moved.append(name)
    assert not failing, f"verify fails on {failing}"
    assert not moved, f"reports moved on {moved}"
