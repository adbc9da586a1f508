"""Instance files, deterministic generators, and the seven-triangle gallery.

An instance is a curve, a family of convex bodies, the p of the meeting
condition, and free-form metadata.  Serialization is plain JSON; floats go
through repr so a write-read round trip is bit identical.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError
from .geometry import (TWO_PI, UNIT_CIRCLE, ConvexBody, CurveModel, body_curve_arcs,
                       containment_matrix)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return math.isfinite(v) if isinstance(v, float) else _is_int(v) and abs(v) <= sys.float_info.max


def _is_point(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))


def _is_id(v) -> bool:
    # A body id is what an instance file can hold: a string or a number.
    return isinstance(v, str) or _is_number(v)


@dataclass
class Instance:
    bodies: list[ConvexBody]
    p: int = 2
    curve: CurveModel = UNIT_CIRCLE
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bodies:
            raise ValueError("instance needs at least one body")
        try:
            self.p = operator.index(self.p)
        except TypeError:
            raise ValueError(f"p must be an integer, not {self.p!r}") from None
        if self.p < 2:
            raise ValueError("p must be at least 2")
        bad = [b.id for b in self.bodies if not _is_id(b.id)]
        if bad:
            raise ValueError(f"body ids must be finite numbers or strings; not {bad}")
        repeated = [i for i, k in Counter(b.id for b in self.bodies).items() if k > 1]
        if repeated:
            raise ValueError(f"body ids must be distinct; repeated: {repeated}")
        self.curve.check_range(self.bodies)

    def to_dict(self) -> dict:
        return {
            "curve": {
                "type": "circle",
                "center": list(self.curve.center),
                "radius": self.curve.radius,
            },
            "bodies": [
                {"id": b.id, "vertices": [[float(x), float(y)] for x, y in b.vertices]}
                for b in self.bodies
            ],
            "p": self.p,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """The instance that a parsed instance file describes.

        Data that is not a JSON object, a missing key, a value of the
        wrong JSON type, or a curve whose "type" is not "circle" raises a
        ValueError that names the key.
        """

        def read(obj, key: str, where: str, what: str, ok):
            if not isinstance(obj, dict):
                raise ValueError(f"{where} is not a JSON object")
            if key not in obj:
                raise ValueError(f"{where} has no {key!r} key")
            if not ok(obj[key]):
                raise ValueError(f"{where} {key!r} is not {what}")
            return obj[key]

        def is_dict(v) -> bool:
            return isinstance(v, dict)

        c = read(data, "curve", "instance", "an object", is_dict)
        read(c, "type", "curve", '"circle"', lambda v: v == "circle")
        curve = CurveModel(
            tuple(read(c, "center", "curve", "a point", _is_point)),
            read(c, "radius", "curve", "a finite number", _is_number),
        )
        bodies = []
        for k, b in enumerate(read(data, "bodies", "instance", "a list",
                                   lambda v: isinstance(v, list))):
            where = f"bodies[{k}]"
            body_id = read(b, "id", where, "a finite number or a string", _is_id)
            vertices = read(b, "vertices", where, "a list of points",
                            lambda v: isinstance(v, list) and all(map(_is_point, v)))
            bodies.append(ConvexBody.from_vertices(body_id, vertices))
        meta = read(data, "meta", "instance", "an object", is_dict) if "meta" in data else {}
        # p goes through as it is: Instance checks that it is an integer
        p = read(data, "p", "instance", "a finite number", _is_number)
        return cls(bodies, p, curve, dict(meta))


def write_text(text: str, path: str | None) -> None:
    """Writes text to the file at path, or to stdout when path is None,
    ending it with exactly one newline: the one writer of the instances,
    reports and SVG drawings that the package outputs."""
    text = text.rstrip("\n") + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_instance(instance: Instance, path: str | None) -> None:
    """Writes the instance's JSON to the file at path, or to stdout when
    path is None (write_text)."""
    write_text(json.dumps(instance.to_dict(), indent=1), path)


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return Instance.from_dict(json.load(fh))


_RING_STEP = 0.4  # the widest arc, in radians, between two ring samples


def _ring_points(lo: float, span: float) -> list[tuple[float, float]]:
    """Vertices of a convex hull that contains the circle arc [lo, lo+span].

    Samples the arc at radius just above 1 so sagging chords still clear the
    unit circle; the returned ring is in counterclockwise order.
    """
    steps = max(2, math.ceil(span / _RING_STEP))
    r_out = 1.05 / math.cos(span / (2 * steps))
    return [
        (
            r_out * math.cos(lo + span * k / steps),
            r_out * math.sin(lo + span * k / steps),
        )
        for k in range(steps + 1)
    ]


def _wedge_points(anchor: float, w_lo: float, w_hi: float) -> list[tuple[float, float]]:
    """Convex wedge whose circle arc is exactly [anchor-w_lo, anchor+w_hi]."""
    lo, hi = anchor - w_lo, anchor + w_hi
    span = hi - lo
    pts = [(0.3 * math.cos(lo), 0.3 * math.sin(lo))]
    pts.extend(_ring_points(lo, span))
    pts.append((0.3 * math.cos(hi), 0.3 * math.sin(hi)))
    return pts


def _check_int(name: str, value, non_negative: bool = False) -> None:
    # A generator's integer argument is an int, not a bool, a float or a
    # numpy integer, which meta could not write to a file.
    if not (_is_int(value) and (value >= 0 or not non_negative)):
        kind = "a non-negative integer" if non_negative else "an integer"
        raise ValueError(f"{name} must be {kind}, not {value!r}")


def gen_pairwise(n: int, seed: int = 0) -> Instance:
    """n bodies whose circle arcs all exceed half the circle, hence K_n.

    Body i is the hull of _ring_points(lo, span), which holds the circle
    arc [lo, lo + span] with its chords at radius 1.05, and span exceeds
    pi + 0.05. Two sets of the circle whose measures sum past 2*pi meet,
    so every two bodies meet, and one draw from SeedSequence([seed, 0])
    gives the family. The self-check is that certificate, linear in n:
    the first body whose body_curve_arcs measure at most pi raises a
    GenerationError naming it. n is an int and seed a non-negative int;
    anything else raises a ValueError.
    """
    _check_int("n", n)
    _check_int("seed", seed, non_negative=True)
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    bodies = []
    for i in range(n):
        lo = float(rng.uniform(0.0, TWO_PI))
        span = float(rng.uniform(math.pi + 0.05, TWO_PI - 0.3))
        bodies.append(ConvexBody.from_vertices(i, _ring_points(lo, span)))
    for i, arcs in enumerate(body_curve_arcs(bodies)):
        if sum(hi - lo for lo, hi in arcs) <= math.pi:
            raise GenerationError(f"pairwise body {i} holds at most half the circle")
    meta = {"kind": "pairwise", "n": n, "seed": seed}
    return Instance(bodies, 2, UNIT_CIRCLE, meta)


def gen_clustered(p: int, n: int, seed: int = 0) -> Instance:
    """n bodies in p-1 clusters, each cluster sharing one curve point.

    Among any p bodies two land in the same cluster and meet there, so the
    instance satisfies the p-subset condition by construction; picking one
    body per cluster gives an independent set of size p-1 (tightness).  The
    self-check is that pigeonhole certificate, one containment_matrix call
    of the bodies against the p-1 anchors, linear in n: every body holds the
    circle point at its cluster's anchor.  p and n are ints and seed a
    non-negative int; anything else raises a ValueError.
    """
    _check_int("p", p)
    _check_int("n", n)
    _check_int("seed", seed, non_negative=True)
    if p < 2:
        raise ValueError("p must be at least 2")
    if n < p:
        raise ValueError("need at least p bodies for the condition to bite")
    rng = np.random.default_rng(seed)
    k = p - 1
    half_gap = math.pi / k
    w_cap = min(0.45, 0.8 * half_gap)
    anchors = [TWO_PI * cluster / k for cluster in range(k)]
    # Body i's w_lo and w_hi, drawn in that order, body by body.
    widths = rng.uniform(0.1 * w_cap, w_cap, (n, 2)).tolist()
    bodies = [ConvexBody.from_vertices(i, _wedge_points(anchors[i % k], *widths[i]))
              for i in range(n)]
    inside = containment_matrix(bodies, [UNIT_CIRCLE.point_at(a) for a in anchors])
    missed = np.flatnonzero(~inside[np.arange(n) % k, np.arange(n)])
    if missed.size:
        raise GenerationError(f"clustered body {missed[0]} misses its cluster's anchor")
    meta = {"kind": "clustered", "p": p, "n": n, "seed": seed, "clusters": k}
    return Instance(bodies, p, UNIT_CIRCLE, meta)


GALLERY_TRIANGLES = (
    (0, 1, 2),
    (2, 3, 4),
    (4, 5, 0),
    (1, 3, 5),
    (0, 3, 6),
    (1, 4, 6),
    (2, 5, 6),
)


def gallery7(delta: float = 0.3) -> Instance:
    """Seven triangles on seven circle points needing three piercing points.

    Corners sit at angles 2*pi*k/7 except the sixth, pulled back by delta.
    Every pair of triangles shares a corner, which lies on the unit circle,
    so the meets-graph is complete with p = 2.

    The nudge is load-bearing: for delta below about 0.273 five of the
    triangles still share a sliver of area, and that point plus one shared
    corner pierces everything.  From 0.275 on the deepest overlaps have
    exactly four triangles (three such faces) and the minimum transversal
    is three.  The default keeps a safe margin above the collapse.
    """
    angles = [TWO_PI * k / 7 for k in range(7)]
    angles[5] -= delta
    corners = [(math.cos(a), math.sin(a)) for a in angles]
    bodies = [
        ConvexBody.from_vertices(i, [corners[a], corners[b], corners[c]])
        for i, (a, b, c) in enumerate(GALLERY_TRIANGLES)
    ]
    meta = {"kind": "gallery7", "delta": delta}
    return Instance(bodies, 2, UNIT_CIRCLE, meta)
