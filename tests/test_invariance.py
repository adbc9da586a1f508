"""Metamorphic relations: a family mapped by a symmetry of the problem, with
its curve mapped alike, has the same answer.

Each relation maps every vertex of a family, and the curve's center and
radius with them, and the mapped instance must give the unmapped run's
tau* (within DUALITY_TOL), D, flags, transversal size and class body sets,
with verify passing on the mapped instance. Mirror images, reversed or
rotated vertex lists, split edges, rotations, a translation and small
scales hold by symmetry. Scale by 10**k for k in -8..8, with or without a
split edge, and translations up to the range bound
(CurveModel.check_range) hold because every kernel runs in the curve's
frame, where TOL_GEOM reads in units of the radius, and from_vertices'
tests are relative to the body's extent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pierce.cli import cli_run
from pierce.errors import PipelineError
from pierce.geometry import TOL_GEOM, ConvexBody, CurveModel, containment_matrix
from pierce.instances import Instance, gallery7, gen_clustered, gen_pairwise, save_instance
from pierce.pipeline import DUALITY_TOL, candidate_classes, run_pipeline, validate
from pierce.reports import verify_report

from conftest import pg22_twice


def _bound_shift(r: float) -> float:
    """A shift near the largest that Instance admits at radius r for these
    families, whose vertices lie within 3 r of the curve's center: every
    coordinate below 2**e has an ulp of at most 2**(e - 53), and
    2**(e - 53) is at most TOL_GEOM * r / 8 for this e. At r = 1 it is
    2**20 - 4."""
    e = math.floor(math.log2(TOL_GEOM * r / 8)) + 53
    return 2.0 ** e - 4 * r


def _mapped(inst: Instance, vertices, scale=1.0, shift=(0.0, 0.0)) -> Instance:
    """inst with each body's vertices replaced by vertices(body's vertices),
    and its curve scaled about the origin and then shifted, as the vertex
    map must do to them."""
    bodies = [ConvexBody.from_vertices(b.id, vertices(b.vertices)) for b in inst.bodies]
    (cx, cy), r = inst.curve.center, inst.curve.radius
    curve = CurveModel((cx * scale + shift[0], cy * scale + shift[1]), r * scale)
    return Instance(bodies, inst.p, curve, dict(inst.meta))


def _frame(inst: Instance, scale: float, shift=(0.0, 0.0)) -> Instance:
    return _mapped(inst, lambda v: v * scale + np.asarray(shift), scale, shift)


def _rotation(theta: float):
    c, s = math.cos(theta), math.sin(theta)
    return lambda v: v @ np.array([[c, -s], [s, c]]).T


def _split_first_edge(v):
    return np.insert(v, 1, 0.5 * (v[0] + v[1]), axis=0)


# The relations that hold at the input's own frame: (name, vertex map).
# Every family here has the unit circle as its curve, so a map that keeps
# the origin keeps the curve.
SYMMETRIES = {
    "mirror": lambda v: v * np.array([-1.0, 1.0]),
    "reversed": lambda v: v[::-1],
    "rotated-start": lambda v: np.roll(v, 1, axis=0),
    "split-edge": _split_first_edge,
    "rotation": _rotation(0.7),
}
# (scale, shift) pairs: the shift is applied after the scale.
FRAMES = [(2.0, (0.0, 0.0)), (3.0, (0.0, 0.0)), (1.0, (3.0, -2.0))]
FRAMES += [(10.0 ** k, (0.0, 0.0)) for k in range(-8, 9)]
FRAMES += [(r, (t, -t)) for r in (1e-8, 1.0, 1e8) for t in (1e3 * r, _bound_shift(r))]


def _families() -> list[Instance]:
    return [gallery7(), gen_pairwise(10, 4), gen_pairwise(6, 1), gen_clustered(3, 8, 0),
            gen_clustered(4, 13, 2), Instance(pg22_twice(), 2)]


def _summary(inst: Instance):
    """The compared fields of a run, after checking that verify passes on
    it; a run that stops gives its error instead."""
    try:
        report = run_pipeline(inst.bodies, inst.curve, inst.p)
    except PipelineError as exc:
        return str(exc)
    assert verify_report(inst, report.to_dict()) == []
    active = validate(inst.bodies, inst.curve, inst.p)[2]
    classes = [frozenset(active[i].id for i in np.flatnonzero(row))
               for row in candidate_classes(active).matrix()]
    return report.tau_star, report.denominator, report.flags, len(report.transversal), classes


def _assert_same(got, want) -> None:
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert abs(got[0] - want[0]) <= DUALITY_TOL
    assert got[1:] == want[1:]


@pytest.mark.parametrize("inst", _families(), ids=lambda inst: str(inst.meta.get("kind", "pg22")))
def test_a_mapped_family_has_the_same_answer(inst):
    want = _summary(inst)
    for vertices in SYMMETRIES.values():
        _assert_same(_summary(_mapped(inst, vertices)), want)
    for scale, shift in FRAMES:
        _assert_same(_summary(_frame(inst, scale, shift)), want)
    for k in range(-8, 9):
        split = _mapped(inst, lambda v: _split_first_edge(v) * 10.0 ** k, 10.0 ** k)
        _assert_same(_summary(split), want)


def _random_polygon(rng, body_id: int) -> ConvexBody:
    """A convex polygon of m = 3..8 vertices on an ellipse of semi-axes 0.5
    to 1.5, at angles 2 pi (j + jitter) / m with jitter within 0.3, so
    neighbouring angles are at least 0.8 pi / m apart and neighbouring
    vertices at least 2 * 0.5 * sin(0.05 pi) > 0.15 apart; the width is
    over 0.39 in 200,000 draws, far from from_vertices' limits, so that
    every frame keeps the body as drawn."""
    center = rng.uniform(-1.0, 1.0, 2)
    axes = rng.uniform(0.5, 1.5, 2)
    m = int(rng.integers(3, 9))
    t = rng.uniform(0.0, 2 * math.pi) + 2 * math.pi * (np.arange(m) + rng.uniform(-0.3, 0.3, m)) / m
    return ConvexBody.from_vertices(body_id, center + axes * np.column_stack((np.cos(t), np.sin(t))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.integers(-8, 8),
       st.floats(-1.0, 1.0), st.integers(2, 4))
def test_a_drawn_family_keeps_its_answer_in_any_frame(n, seed, k, reach, p):
    # reach is the shift, as a fraction of the bound's.
    rng = np.random.default_rng(seed)
    inst = Instance([_random_polygon(rng, i) for i in range(n)], p)
    r = 10.0 ** k
    shift = reach * _bound_shift(r)
    _assert_same(_summary(_frame(inst, r, (shift, -0.5 * shift))), _summary(inst))


def test_a_pairwise_family_at_scale_1e8_hits_every_body():
    # With TOL_GEOM read in input units, this family at scale 1e8 had its
    # solve set all_bodies_hit false, and its own verify failed with
    # "heavy coverage 1 exceeds the best class load 0".
    inst = gen_pairwise(10, 4)
    big = _frame(inst, 1e8)
    assert run_pipeline(big.bodies, big.curve, big.p).flags["all_bodies_hit"]
    _assert_same(_summary(big), _summary(inst))


def test_a_clustered_family_at_scale_1e8_finds_its_candidates():
    # With TOL_GEOM read in input units, a body's offsets at scale 1e8
    # carried an ulp above the slack, and this family's solve raised
    # "candidates: no candidate inside bodies [1]".
    inst = gen_clustered(3, 8, 0)
    _assert_same(_summary(_frame(inst, 1e8)), _summary(inst))


@pytest.mark.parametrize("make", [gallery7, lambda: gen_clustered(3, 8, 0)],
                         ids=["gallery7", "clustered"])
def test_the_oracle_keeps_its_answer_at_any_scale(make, tmp_path, monkeypatch, capsys, caplog):
    # pierce oracle searched the input's frame, where TOL_GEOM read in input
    # units: gallery7 at scale 1e-8 gave 2 (its minimum is 3), and this
    # clustered family at 1e8 gave none (its minimum is 2).
    monkeypatch.setenv("PIERCE_LOG_LEVEL", "info")
    sizes = []
    for k in (0, -8, 8):
        inst = _frame(make(), 10.0 ** k)
        path = str(tmp_path / f"scale{k}.json")
        save_instance(inst, path)
        caplog.clear()
        assert cli_run(["oracle", path]) == 0
        sizes.append(int(capsys.readouterr().out))
        # The logged points, read back from the text: a format with too few
        # digits (once %.9f, which at 1e-8 kept one or two) fails here.
        points = np.array([r.getMessage().split()[1:] for r in caplog.records
                           if r.getMessage().startswith("point ")], dtype=float)
        assert len(points) == sizes[-1]
        inside = containment_matrix(inst.curve.to_unit(inst.bodies),
                                    inst.curve.to_unit_points(points))
        assert inside.any(axis=0).all()
    assert sizes == [sizes[0]] * 3
