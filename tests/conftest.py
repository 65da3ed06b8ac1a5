import math
from pathlib import Path

import numpy as np
import pytest

from gcskernel import compiler, eval_jacobian, eval_residuals, zoo
from gcskernel import expr as ex
from gcskernel.model import Constraint, Entity, Model

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture
def empty_templates(monkeypatch):
    """An empty constraint-row template cache for one test: its first
    constraint of each signature is emitted through terms, whatever ran
    before it."""
    monkeypatch.setattr(compiler, "_TEMPLATES", {})


@pytest.fixture
def recording_svd(monkeypatch) -> list[tuple[tuple[int, ...], bool]]:
    """For one test, the shape of every ``np.linalg.svd`` call and whether it
    computes singular vectors, in call order."""
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a), bool(kwargs.get("compute_uv",
                                                   args[1] if len(args) > 1 else True))))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


# The reference the tape's evaluation is checked against: a scalar forward
# walk over one tape row's ops, with math.sin/math.cos and dict gradients.  It
# shares no code with expr._Schedule or expr.Plan.


def row_ops(system, i) -> list:
    """The ops of row ``i`` of a system, read from its tape."""
    for tape, rows in system.segments:
        if i < len(rows):
            return list(tape.ops(rows[i]))
        i -= len(rows)
    raise IndexError(i)


def row_eval_with_grad(ops, x) -> tuple[float, dict[int, float]]:
    """Evaluate a row's root and return (value, {var index: partial derivative})."""
    vals: list[float] = []
    grads: list[dict[int, float]] = []
    for code, a, b, leaf in ops:
        if code == ex.CONST:
            v, g = leaf, {}
        elif code == ex.VAR:
            v, g = float(x[leaf]), {leaf: 1.0}
        elif code in (ex.ADD, ex.SUB):
            sign = 1.0 if code == ex.ADD else -1.0
            v = vals[a] + sign * vals[b]
            g = dict(grads[a])
            for i, d in grads[b].items():
                g[i] = g.get(i, 0.0) + sign * d
        elif code == ex.MUL:
            va, vb = vals[a], vals[b]
            v = va * vb
            g = {i: d * vb for i, d in grads[a].items()}
            for i, d in grads[b].items():
                g[i] = g.get(i, 0.0) + d * va
        elif code == ex.SIN:
            v, c = math.sin(vals[a]), math.cos(vals[a])
            g = {i: d * c for i, d in grads[a].items()}
        elif code == ex.COS:
            v, s = math.cos(vals[a]), -math.sin(vals[a])
            g = {i: d * s for i, d in grads[a].items()}
        else:
            raise ValueError(f"unknown opcode {code!r}")
        vals.append(v)
        grads.append(g)
    return vals[-1], grads[-1]


def row_variables(ops) -> set[int]:
    """Indices of all variables the row's var nodes hold."""
    return {leaf for code, _, _, leaf in ops if code == ex.VAR}


def finite_difference_jacobian(system, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    J = np.zeros((system.n_residuals, system.n_variables))
    for j in range(system.n_variables):
        step = np.zeros_like(x)
        step[j] = h
        J[:, j] = (eval_residuals(system, x + step) - eval_residuals(system, x - step)) / (2 * h)
    return J


def assert_jacobian_matches_fd(system, x, tol=1e-6):
    J = eval_jacobian(system, x)
    F = finite_difference_jacobian(system, x)
    scale = np.maximum(1.0, np.abs(J))
    assert np.max(np.abs(J - F) / scale) <= tol


def point_on_line_3d_model():
    """Two points held on one 3D line (direction mostly along y) at a fixed gap."""
    return Model(3, (
        Entity("P1", "point3", (0.1, 1.0, 0.2)),
        Entity("P2", "point3", (0.2, 3.0, 0.3)),
        Entity("L", "line3", (0.0, 0.0, 0.1, 0.05, 1.0, 0.05)),
    ), (
        Constraint("on1", "point-on-line", ("P1", "L")),
        Constraint("on2", "point-on-line", ("P2", "L")),
        Constraint("gap", "distance-pp", ("P1", "P2"), 2.0),
    ))


def cross_product_models():
    """3D models whose parallel and point-on-line constraints compile to two
    of the three cross-product components."""
    return [pytest.param(zoo.parallel_lines_model(), id="parallel_lines"),
            pytest.param(zoo.plane_prism_model(), id="plane_prism"),
            pytest.param(point_on_line_3d_model(), id="point_on_line")]


def lines_through_two_points():
    """Points P and Q both on lines L1 and L2.  The incidences have two
    4-dimensional components, P = Q and L1 = L2, and a projected sample
    lands on one of them; both read rows 4, rank 4, DOR 3: under by one
    free motion."""
    return Model(2, (Entity("P", "point2"), Entity("Q", "point2"),
                     Entity("L1", "line2"), Entity("L2", "line2")),
                 tuple(Constraint(f"i{k}", "point-on-line", pair) for k, pair in enumerate(
                     (("P", "L1"), ("P", "L2"), ("Q", "L1"), ("Q", "L2")))))


def parallel_and_perpendicular_lines():
    """Two lines both parallel and perpendicular: no sample satisfies both."""
    return Model(2, (Entity("L1", "line2"), Entity("L2", "line2")),
                 (Constraint("p", "parallel", ("L1", "L2")),
                  Constraint("q", "perpendicular", ("L1", "L2"))))


def triangle_with_coincident_point():
    """Triangle A, B, C plus a point D that a ``coincident`` constraint ties to C."""
    m = zoo.points_distances_model({"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (1.0, 3.0)},
                                   [("A", "B"), ("B", "C"), ("A", "C")])
    return Model(2, m.entities + (Entity("D", "point2", (1.0, 3.0)),),
                 m.constraints + (Constraint("c", "coincident", ("C", "D")),))
