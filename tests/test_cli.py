import json
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from gcskernel import cli, decompose, detect, numeric, witness, zoo
from gcskernel.cli import main
from gcskernel.model import Constraint, Entity, Model, model_to_json_dict

from conftest import (
    lines_through_two_points,
    parallel_and_perpendicular_lines,
    triangle_with_coincident_point,
)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_check_triangle_well(capsys, corpus_dir):
    code, data = run_json(capsys, "check", str(corpus_dir / "triangle.json"))
    assert code == 0
    assert data["verdict"] == "well"
    assert data["report"]["witness"]["rank"] == 7
    assert data["report"]["witness"]["dor"] == 3


def test_check_three_lines_over(capsys, corpus_dir):
    code, data = run_json(capsys, "check", str(corpus_dir / "three-lines-three-angles.json"))
    # genuinely over AND under: the angle chain is dependent and the line
    # offsets stay free
    assert code == 5
    assert data["report"]["witness"]["verdict"] == "over-and-under"
    assert data["report"]["witness"]["dependentGroups"] == [[0, 1, 2]]
    assert data["report"]["structural"]["state"] == "well"


def test_check_under_and_over_exits(capsys, corpus_dir):
    code, _ = run_json(capsys, "check", str(corpus_dir / "square4.json"))
    assert code == 3
    code, _ = run_json(capsys, "check", str(corpus_dir / "k4.json"))
    assert code == 4


def test_check_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    bad.write_text('{"dimension": 2, "entities": [{"id": "P1", "kind": "point9"}], "constraints": []}')
    assert main(["check", str(bad)]) == 1


def test_invalid_model_reports_every_violation_once(capsys, corpus_dir, tmp_path):
    data = json.loads((corpus_dir / "triangle.json").read_text())
    data["constraints"][0]["value"] = 0.0
    assert data["constraints"][0]["id"] == "d1"
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"model {path} does not validate: "
        "zero-distance[d1]: distance must be > 0; use coincident for zero distance\n")


@pytest.mark.parametrize("command", ["check", "solve"])
def test_constraint_naming_one_entity_twice_exits_1(capsys, corpus_dir, tmp_path, command):
    data = json.loads((corpus_dir / "triangle.json").read_text())
    data["constraints"][0]["entities"] = [data["entities"][0]["id"]] * 2
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"model {path} does not validate: repeated-entity[d1]: ")


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["params", "value"])
def test_non_finite_numbers_exit_1(capsys, corpus_dir, tmp_path, command, where, bad):
    data = json.loads((corpus_dir / "triangle.json").read_text())
    target = data["entities"][0] if where == "params" else data["constraints"][0]
    if where == "params":
        target["params"][0] = float(bad)
    else:
        target["value"] = float(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # writes the NaN/Infinity literals
    assert bad in path.read_text()
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"non-finite[{target['id']}]" in captured.err


@pytest.mark.parametrize("equations, names", [
    ([{"coeffs": [1, math.nan], "rhs": 0}], ["x", "y"]),
    ([{"coeffs": [1, 1], "rhs": 0}, {"coeffs": [1], "rhs": 0}], ["x", "y"]),
    ([{"coeffs": [1, 1, 1], "rhs": 0}], ["x", "y"]),
], ids=["nan-coefficient", "ragged-rows", "too-few-names"])
def test_malformed_linear_system_exit_1(capsys, tmp_path, equations, names):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variables": names, "equations": equations}))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"malformed model {path}: ")


def test_detect_skips_the_well_part_oracle_above_its_cap(capsys, tmp_path):
    # strip(9): 11 points and 19 rows, both above the oracles' caps
    code, data = run_json(capsys, "detect", write_model(tmp_path, zoo.triangle_strip(9)))
    assert code == 0
    assert data["oracle"]["maxWellPart"] == "skipped: 11 entities exceeds the oracle cap of 10"


@pytest.mark.parametrize("strategy", ["direct", "decomposed"])
def test_solve_without_sketch_parameters_exits_1(strategy, capsys, tmp_path):
    m = Model(2, (Entity("A", "point2"), Entity("B", "point2")),
              (Constraint("d", "distance-pp", ("A", "B"), 1.0),))
    code = main(["solve", "--strategy", strategy, write_model(tmp_path, m)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "entity 'A' has no parameters for an initial guess\n"


def test_detect_lindep2(capsys, corpus_dir):
    code, data = run_json(capsys, "detect", str(corpus_dir / "lindep2.json"))
    assert code == 0
    assert data["greedy"]["dependencyGroups"] == [[0, 1, 2, 3], [0, 1, 2, 4]]
    assert [3, 4] in data["oracle"]["dependencyGroups"]


def test_detect_well_model(capsys, corpus_dir):
    code, data = run_json(capsys, "detect", str(corpus_dir / "braced-quad.json"))
    assert data["summary"] == "no ill-constrained parts"
    assert data["greedy"]["dependencyGroups"] == []


def test_detect_bridge_parts_and_free_motion(capsys, corpus_dir):
    code, data = run_json(capsys, "detect", str(corpus_dir / "two-triangles-bridge.json"))
    assert data["greedy"]["wellParts"] == [["P1", "P2", "P3"], ["P4", "P5"]]
    assert data["freeMotions"] == 1


def counting(calls, name, real):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper


def majority(k: int) -> int:
    """The votes that agree on a well model before a ballot of k stops."""
    return 1 if k == 1 else max(2, k // 2 + 1)


DRAWING_COMMANDS = {
    # id prefix: (argv, draws with k votes); detect keeps its bare ids
    "": (["detect"], majority),
    "decompose-": (["decompose", "--strategy", "bottom-up"], majority),
    "top-down-": (["decompose", "--strategy", "top-down"], majority),
    "check-": (["check"], majority),
    "solve-": (["solve", "--strategy", "decomposed"], lambda k: 1),
}


@pytest.mark.parametrize("argv, draws, witnesses", [
    pytest.param(argv, draws, k, id=f"{label}{k}")
    for label, (argv, draws) in DRAWING_COMMANDS.items() for k in (1, 3)])
def test_detect_draws_one_witness_per_vote(argv, draws, witnesses, capsys, corpus_dir,
                                           monkeypatch):
    # the detection searches and the bottom-up merge checks read the Jacobian
    # and the motion basis that the verdict's first witness carries: a run
    # draws one witness per vote cast, and the vote on a well model stops at
    # its majority (2 of 3; a decomposed solve, which takes no vote, draws
    # one), and nothing outside a draw evaluates J or M
    calls = []
    drawing = [False]

    def draw(real):
        def wrapper(*args, **kwargs):
            calls.append("generate_witness")
            drawing[0] = True
            try:
                return real(*args, **kwargs)
            finally:
                drawing[0] = False
        return wrapper

    def outside_a_draw(name, real):
        def wrapper(*args, **kwargs):
            if not drawing[0]:
                calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (cli, decompose, detect, witness):
        for name in ("eval_jacobian", "motion_basis"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, outside_a_draw(name, getattr(module, name)))
        if hasattr(module, "generate_witness"):
            monkeypatch.setattr(module, "generate_witness", draw(module.generate_witness))
    code, data = run_json(capsys, "--witnesses", str(witnesses), argv[0],
                          str(corpus_dir / "triangle.json"), *argv[1:])
    assert code == 0
    assert calls == ["generate_witness"] * draws(witnesses)


def write_model(tmp_path, model) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json_dict(model)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, model, expected", [
    (["check"], None, 0),  # strip(24), well: no vote computes a singular vector
    (["decompose", "--strategy", "bottom-up"], "solve-kite.json", 0),
    (["detect"], "solve-kite.json", 0),
    (["check"], "k4.json", 1),  # over: only the reported vote names its groups
], ids=["check-strip24", "decompose-kite", "detect-kite", "check-k4"])
def test_singular_vectors_only_below_full_row_rank(argv, model, expected, capsys, corpus_dir,
                                                    tmp_path, recording_svd):
    path = (write_model(tmp_path, zoo.triangle_strip(24)) if model is None
            else str(corpus_dir / model))
    calls = recording_svd
    run_cli(capsys, argv[0], path, *argv[1:])
    assert sum(with_vectors for _, with_vectors in calls) == expected


def dense_check(capsys, monkeypatch, path) -> tuple[int, str]:
    """``gcs --format json check`` with every vote ranked by a dense SVD."""
    with monkeypatch.context() as m:
        m.setattr(witness, "BLOCK_STEP_MIN_ROWS", math.inf)
        return run_cli(capsys, "--format", "json", "check", path)


def test_check_certifies_a_large_rigid_strip_without_a_dense_svd(capsys, tmp_path,
                                                                monkeypatch, recording_svd):
    path = write_model(tmp_path, zoo.triangle_strip(200))
    calls = recording_svd
    code, out = run_cli(capsys, "--format", "json", "check", path)
    assert (code, json.loads(out)["verdict"]) == (0, "well")
    assert calls and max(shape[-2] for shape, _ in calls) < 48  # blocks and motions only
    assert dense_check(capsys, monkeypatch, path) == (code, out)
    assert calls.count(((401, 404), False)) == 2


def test_check_k4_ranks_its_jacobian_densely(capsys, corpus_dir, recording_svd):
    calls = recording_svd
    run_cli(capsys, "check", str(corpus_dir / "k4.json"))
    assert Counter(c for c in calls if c[0] == (6, 8)) == {((6, 8), False): 2, ((6, 8), True): 1}


def strip_variant(change: str) -> Model:
    """strip(200) with one bar more (P1-P202), one bar less (P1-P2) or a fix on P1."""
    model = zoo.triangle_strip(200)
    p1, p202 = model.entity("P1"), model.entity("P202")
    if change == "bar":
        extra = Constraint("extra", "distance-pp", ("P1", "P202"), math.dist(p1.params, p202.params))
        return Model(2, model.entities, model.constraints + (extra,))
    if change == "no-bar":
        return Model(2, model.entities, tuple(c for c in model.constraints
                                              if set(c.entities) != {"P1", "P2"}))
    return Model(2, model.entities, model.constraints + (Constraint("pin", "fix", ("P1",)),))


@pytest.mark.parametrize("change, verdict", [("bar", "over"), ("no-bar", "under"),
                                             ("fix", "well")])
def test_strip_variants_that_no_block_certifies_keep_the_dense_report(change, verdict, capsys,
                                                                      tmp_path, monkeypatch):
    # rows + DOR differs from the columns: every vote is ranked densely
    path = write_model(tmp_path, strip_variant(change))
    code, out = run_cli(capsys, "--format", "json", "check", path)
    assert json.loads(out)["report"]["witness"]["verdict"] == verdict
    assert dense_check(capsys, monkeypatch, path) == (code, out)


def test_a_thin_block_margin_falls_back_to_the_dense_rank(capsys, tmp_path, monkeypatch,
                                                          recording_svd):
    path = write_model(tmp_path, zoo.triangle_strip(48))
    expected = run_cli(capsys, "--format", "json", "check", path)
    calls = recording_svd
    calls.clear()
    rank_of = witness.rank_of

    def one_thin_block(A, rel_tol, gap=1.0):
        # the middle 2 x 2 diagonal block, its smallest singular value at
        # RANK_GAP / 2 times its threshold
        if gap != 1.0 and A.shape[-1] == 2:
            A = A.copy()
            U, s, Vt = np.linalg.svd(A[len(A) // 2])
            s[-1] = s[0] * rel_tol * numeric.RANK_GAP / 2
            A[len(A) // 2] = (U * s) @ Vt
        return rank_of(A, rel_tol, gap)

    monkeypatch.setattr(witness, "rank_of", one_thin_block)
    assert run_cli(capsys, "--format", "json", "check", path) == expected
    assert calls.count(((97, 100), False)) == 2


@pytest.mark.parametrize("command", ["check", "detect", "decompose"])
def test_a_failed_witness_draw_exits_7_without_a_traceback(command, capsys, tmp_path):
    # two lines both parallel and perpendicular: no projection converges
    path = write_model(tmp_path, parallel_and_perpendicular_lines())
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.out == ""
    assert captured.err == ("witness generation failed after 10 attempts (seed 0): "
                            "singular subsystem projection: inconsistent\n")


@pytest.mark.parametrize("command, expected", [("check", 3), ("detect", 0), ("decompose", 3)])
def test_two_lines_through_two_points_read_under_at_every_seed(command, expected, capsys,
                                                               tmp_path):
    # the samples put P and Q together or L1 and L2 together; both read
    # rows 4, rank 4, DOR 3 and one free motion
    path = write_model(tmp_path, lines_through_two_points())
    for seed in range(20):
        code = main(["--format", "json", "--seed", str(seed), command, path])
        captured = capsys.readouterr()
        assert (code, captured.err) == (expected, ""), seed
        data = json.loads(captured.out)
        assert data["verdict"] == "under", seed
        if command == "check":
            w = data["report"]["witness"]
            assert (w["rows"], w["rank"], w["dor"], w["freeMotions"]) == (4, 4, 3, 1), seed
        elif command == "detect":
            assert data["freeMotions"] == 1, seed


@pytest.mark.parametrize("split", [False, True], ids=["agreed", "split"])
def test_a_failed_third_draw_matters_only_while_the_majority_is_open(split, capsys, corpus_dir,
                                                                     monkeypatch):
    # the draw at seed + 2 fails: after two agreeing votes it is never made;
    # after two disagreeing ones the run is refused, not given a verdict
    real = witness.generate_witness

    def draw(system, model, seed=0, **kwargs):
        if seed == 2:
            raise witness.WitnessError("witness generation failed at seed 2")
        return real(system, model, seed=seed, **kwargs)

    monkeypatch.setattr(witness, "generate_witness", draw)
    if split:
        values = iter([7, 3, 6, 3])  # (rank, dor) of vote 0, then of vote 1
        monkeypatch.setattr(witness, "rank_of", lambda *args: next(values))
    code = main(["--format", "json", "check", str(corpus_dir / "triangle.json")])
    captured = capsys.readouterr()
    if split:
        assert (code, captured.out) == (7, "")
        assert captured.err == "witness generation failed at seed 2\n"
    else:
        assert code == 0 and json.loads(captured.out)["verdict"] == "well"
        assert captured.err == ""


def test_check_a_triangle_with_a_coincident_point(capsys, tmp_path):
    code, data = run_json(capsys, "check", write_model(tmp_path, triangle_with_coincident_point()))
    assert code == 0
    assert data["verdict"] == "well"
    assert (data["report"]["witness"]["rank"], data["report"]["witness"]["dor"]) == (5, 3)


@pytest.mark.parametrize("argv", [["solve", "--strategy", "decomposed"],
                                  ["decompose", "--strategy", "bottom-up"]])
def test_decomposition_compiles_the_model_once(argv, capsys, corpus_dir, monkeypatch):
    calls = []
    for module in (cli, decompose, witness):
        monkeypatch.setattr(module, "compile_model",
                            counting(calls, "compile_model", module.compile_model))
    code = main([argv[0], str(corpus_dir / "solve-kite.json"), *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert calls == ["compile_model"]


@pytest.mark.parametrize("name, argv, compiles", [
    ("triangle", ["check"], 1),
    ("triangle", ["detect"], 1),
    ("triangle", ["decompose"], 1),
    ("triangle", ["solve", "--strategy", "decomposed"], 1),
    # a 3D model's projection takes its full cross-product rows from the
    # loaded system
    ("plane-prism", ["check"], 1),
    ("plane-prism", ["detect"], 1),
])
def test_witness_projection_compiles_only_3d_models(name, argv, compiles, capsys, corpus_dir,
                                                    monkeypatch):
    calls = []
    for module in (cli, decompose, witness):
        monkeypatch.setattr(module, "compile_model",
                            counting(calls, "compile_model", module.compile_model))
    main([argv[0], str(corpus_dir / f"{name}.json"), *argv[1:]])
    capsys.readouterr()
    assert len(calls) == compiles


def test_decompose_braced_quad_bottom_up(capsys, corpus_dir):
    code, data = run_json(capsys, "decompose", str(corpus_dir / "braced-quad.json"),
                          "--strategy", "bottom-up")
    assert code == 0
    root = data["tree"]["roots"][0]
    assert root["kind"] == "merge"
    # the triangle holds the earliest seed, so it comes first and sets the frame
    kids = [tuple(c["entities"]) for c in root["children"]]
    assert kids == [("P1", "P2", "P4"), ("P2", "P3"), ("P3", "P4")]


def test_bottom_up_decompose_ranks_the_jacobian_of_vote_zero_once(capsys, corpus_dir,
                                                                   recording_svd):
    # two votes; the whole kite's rigidity check ranks its children's body
    # coefficients, and the retirement guard reads the report's dependent
    # groups
    calls = recording_svd
    run_cli(capsys, "decompose", str(corpus_dir / "solve-kite.json"), "--strategy", "bottom-up")
    assert calls.count(((5, 8), False)) == 2


@pytest.mark.parametrize("keys", [
    [(5, 3), (5, 3)],          # vote 0 wins: its report names the groups
    [(4, 3), (5, 3), (5, 3)],  # vote 0 lost: its cokernel at its own rank
    [(5, 3), (4, 3), (3, 3)],  # unstable: vote 0's report names them
], ids=["vote0-won", "vote0-lost", "unstable"])
def test_bottom_up_decompose_takes_vote_zeros_cokernel_once(keys, capsys, corpus_dir,
                                                            monkeypatch):
    # the retirement guard reads the dependent groups of vote 0's Jacobian,
    # which no code path ranks again
    path = str(corpus_dir / "k4.json")
    expected = run_json(capsys, "decompose", path, "--strategy", "bottom-up")[1]["tree"]
    values = iter([v for key in keys for v in key])
    monkeypatch.setattr(witness, "rank_of", lambda *args: next(values))
    drawn, taken = [], []
    real_draw, real_cokernel = witness.generate_witness, witness.cokernel_groups
    monkeypatch.setattr(witness, "generate_witness",
                        lambda *args, **kwargs: drawn.append(real_draw(*args, **kwargs))
                        or drawn[-1])
    monkeypatch.setattr(witness, "cokernel_groups",
                        lambda J, rank: taken.append(J) or real_cokernel(J, rank))
    assert run_json(capsys, "decompose", path, "--strategy", "bottom-up")[1]["tree"] == expected
    assert len(drawn) == len(keys)
    assert sum(J is drawn[0].jacobian for J in taken) == 1


def test_decompose_triangle_single_cluster(capsys, corpus_dir):
    code, data = run_json(capsys, "decompose", str(corpus_dir / "solve-equilateral.json"))
    assert code == 0
    assert len(data["tree"]["roots"]) == 1


def test_decompose_k4_top_down_irreducible(capsys, corpus_dir):
    code, data = run_json(capsys, "decompose", str(corpus_dir / "k4.json"),
                          "--strategy", "top-down")
    assert code == 4  # over-constrained, flagged; report still carries the tree
    assert data["tree"]["roots"][0]["kind"] == "irreducible"
    assert "advice" in data


def test_solve_triangle_matches_construction(capsys, corpus_dir):
    code, data = run_json(capsys, "solve", str(corpus_dir / "triangle.json"))
    assert code == 0 and data["status"] == "converged"
    p3 = data["entities"]["P3"]
    assert p3[0] == pytest.approx(10 - 10 * math.cos(math.pi / 4), abs=1e-7)
    assert p3[1] == pytest.approx(10 * math.sin(math.pi / 4), abs=1e-7)


def test_solve_exact_params_zero_iterations(capsys, corpus_dir):
    code, data = run_json(capsys, "solve", str(corpus_dir / "solve-equilateral.json"))
    assert code == 0
    assert data["iterations"] == 0


def test_solve_inconsistent_exit_4(capsys, corpus_dir):
    code, data = run_json(capsys, "solve", str(corpus_dir / "inconsistent.json"))
    assert code == 4
    assert data["status"] == "inconsistent"
    assert data["residualMax"] > 1e-3


def test_solve_decomposed_refuses_inconsistent(capsys, corpus_dir):
    # the bars have no real solution, so recombining the clusters fails; the
    # failure is a refusal on stderr, not a traceback
    code = main(["solve", "--strategy", "decomposed", str(corpus_dir / "inconsistent.json")])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.out == ""
    assert captured.err.startswith("decomposed solve failed: ")


def test_solve_decomposed_refuses_3d_model(capsys, corpus_dir):
    # the tetrahedron is well-constrained, but recombination covers 2D only:
    # a refusal has its own exit code, not the "over" verdict's 4
    code = main(["solve", "--strategy", "decomposed", str(corpus_dir / "tetrahedron.json")])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.out == ""
    assert captured.err == "decomposed solve failed: cluster recombination covers the 2D scope\n"


def test_solve_decomposed_refuses_3d_model_before_decomposing(capsys, corpus_dir, monkeypatch):
    # recombination covers 2D only, so a 3D model is refused before the merge
    # search: no witness draw and no rigidity check
    def fail(*args, **kwargs):
        raise AssertionError("a refused model was decomposed")

    monkeypatch.setattr(witness, "generate_witness", fail)
    monkeypatch.setattr(decompose, "Bodies", fail)
    code = main(["solve", "--strategy", "decomposed", str(corpus_dir / "tetrahedron.json")])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.err == "decomposed solve failed: cluster recombination covers the 2D scope\n"


def test_solve_decomposed_refuses_free_entities(capsys, corpus_dir, tmp_path):
    # the triangle assembles into one root, and the unconstrained Q is in no
    # cluster: a refusal on stderr, not a traceback
    data = json.loads((corpus_dir / "solve-scalene.json").read_text(encoding="utf-8"))
    data["entities"].append({"id": "Q", "kind": "point2", "params": [2.0, 8.0]})
    path = tmp_path / "free.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, decomposed = run_json(capsys, "decompose", str(path))
    assert len(decomposed["tree"]["roots"]) == 1
    assert decomposed["tree"]["freeEntities"] == ["Q"]
    code = main(["solve", "--strategy", "decomposed", str(path)])
    captured = capsys.readouterr()
    assert code == 7
    assert captured.out == ""
    assert captured.err == "decomposed solve failed: cluster tree leaves entities ['Q'] free\n"


def test_rank_tol_reaches_witness_rank_decisions(capsys, corpus_dir):
    path = str(corpus_dir / "triangle.json")
    code, default = run_json(capsys, "check", path)
    assert (code, default["report"]["witness"]["rank"]) == (0, 7)
    # a threshold of 10 % of the largest singular value drops one rank
    code, loose = run_json(capsys, "--rank-tol", "0.1", "check", path)
    assert code == 5
    assert loose["report"]["witness"]["rank"] == 6
    assert loose["report"]["witness"]["verdict"] == "over-and-under"
    assert loose["report"]["structural"] == default["report"]["structural"]


def test_rank_tol_reaches_detection(capsys, corpus_dir):
    path = str(corpus_dir / "triangle.json")
    _, default = run_json(capsys, "detect", path)
    assert default["greedy"]["dependencyGroups"] == []
    assert default["oracle"]["maxWellPart"] == ["L1", "L2", "P1", "P2", "P3"]
    # the loose threshold that makes the verdict over-and-under also drives
    # the dependency search and the well-part rigidity checks
    _, loose = run_json(capsys, "--rank-tol", "0.1", "detect", path)
    assert loose["verdict"] == "over-and-under"
    assert loose["greedy"]["dependencyGroups"] != []
    assert len(loose["oracle"]["maxWellPart"]) < len(default["oracle"]["maxWellPart"])


def test_solve_decomposed_agrees_with_direct(capsys, corpus_dir):
    _, direct = run_json(capsys, "solve", str(corpus_dir / "solve-braced-quad.json"))
    _, decomposed = run_json(capsys, "solve", str(corpus_dir / "solve-braced-quad.json"),
                             "--strategy", "decomposed")
    assert decomposed["status"] == "converged"
    # identical sketch frame: parameters agree directly here
    for k, v in direct["entities"].items():
        assert decomposed["entities"][k] == pytest.approx(v, abs=1e-6)


def test_solve_flags_reach_the_decomposed_solve(capsys, corpus_dir, tmp_path):
    data = json.loads((corpus_dir / "solve-kite.json").read_text(encoding="utf-8"))
    for k, e in enumerate(data["entities"]):  # move the sketch off the solution
        e["params"] = [p + 0.1 * math.sin(3 * k + i + 1) for i, p in enumerate(e["params"])]
    kite = tmp_path / "kite.json"
    kite.write_text(json.dumps(data), encoding="utf-8")
    for strategy in ("direct", "decomposed"):
        code, report = run_json(capsys, "solve", str(kite), "--strategy", strategy)
        assert (code, report["status"]) == (0, "converged"), strategy
    code, _ = run_cli(capsys, "--tolerance", "1e-20", "solve", str(kite))
    assert code == 4
    code = main(["--tolerance", "1e-20", "solve", str(kite), "--strategy", "decomposed"])
    err = capsys.readouterr().err
    assert code == 7 and "failed to solve" in err, (code, err)
    # the kite's clusters are bars and triangles, constructed and placed
    # exactly: the decomposed solve takes no Newton step for --max-iter to stop
    code, _ = run_cli(capsys, "--max-iter", "1", "solve", str(kite))
    assert code == 6
    code, report = run_json(capsys, "--max-iter", "1", "solve", str(kite),
                            "--strategy", "decomposed")
    assert (code, report["status"]) == (0, "converged")
    # carrier lines: clusters that are not triangles or bars take Newton steps
    data = json.loads((corpus_dir / "triangle.json").read_text(encoding="utf-8"))
    for k, e in enumerate(data["entities"]):
        e["params"] = [p + 0.1 * math.sin(3 * k + i + 1) for i, p in enumerate(e["params"])]
    carrier = tmp_path / "carrier.json"
    carrier.write_text(json.dumps(data), encoding="utf-8")
    code, report = run_json(capsys, "solve", str(carrier), "--strategy", "decomposed")
    assert (code, report["status"]) == (0, "converged")
    code = main(["--max-iter", "1", "solve", str(carrier), "--strategy", "decomposed"])
    err = capsys.readouterr().err
    assert code == 7 and "failed to solve" in err, (code, err)


def test_deep_reports_are_written_without_recursion():
    # json's encoder takes an interpreter frame per nested container; a report
    # nested deeper than the recursion limit gets the same text from a stack
    deep: list = []
    inner = deep
    for _ in range(3 * sys.getrecursionlimit()):
        inner.append({"c": []})
        inner = inner[0]["c"]
    depth = 3 * sys.getrecursionlimit()
    assert cli._json_text(deep) == "[" + '{"c":[' * depth + "]}" * depth + "]"
    report = {"b": [1, 2.5, None, True, {"é": 'q"', "a": float("nan")}], "a": {},
              "c": [[], [float("inf")]]}
    assert cli._json_text_deep(report) == json.dumps(report, sort_keys=True,
                                                     separators=(",", ":"))


def test_text_report_marks_each_nested_list_item(capsys, corpus_dir):
    # the greedy groups [0, 1, 2, 3] and [0, 1, 2, 4] are two items, each
    # opened by its own marker line
    code, text = run_cli(capsys, "detect", str(corpus_dir / "lindep1.json"))
    assert code == 0
    assert ("greedy:\n  dependencyGroups:\n"
            "    -\n      - 0\n      - 1\n      - 2\n      - 3\n"
            "    -\n      - 0\n      - 1\n      - 2\n      - 4\n"
            "  method: greedy\n") in text


def test_text_report_marks_each_child_of_a_cluster(capsys, corpus_dir):
    # the first root's three seed children are three items, not one run of keys
    _, data = run_json(capsys, "decompose", str(corpus_dir / "two-triangles-bridge.json"))
    _, text = run_cli(capsys, "decompose", str(corpus_dir / "two-triangles-bridge.json"))
    children = data["tree"]["roots"][0]["children"]
    assert len(children) == 3
    expected = "".join(
        f"        -\n          constraints:\n"
        + "".join(f"            - {c}\n" for c in child["constraints"])
        + "          entities:\n"
        + "".join(f"            - {e}\n" for e in child["entities"])
        + f"          id: {child['id']}\n          kind: {child['kind']}\n"
        for child in children)
    assert "  roots:\n    -\n      children:\n" + expected + "      constraints:\n" in text
    deep: list = []
    inner = deep
    for _ in range(3 * sys.getrecursionlimit()):  # deeper than the recursion limit
        inner.append([])
        inner = inner[0]
    cli._emit({"a": deep}, "text")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a:" and lines[-1] == "  " * len(lines[1:]) + "-"


def test_json_reports_are_byte_identical(capsys, corpus_dir):
    _, out1 = run_cli(capsys, "--format", "json", "check", str(corpus_dir / "braced-quad.json"))
    _, out2 = run_cli(capsys, "--format", "json", "check", str(corpus_dir / "braced-quad.json"))
    assert out1 == out2


def test_text_and_json_verdicts_agree(capsys, corpus_dir):
    code_t, text = run_cli(capsys, "check", str(corpus_dir / "square4.json"))
    code_j, data = run_json(capsys, "check", str(corpus_dir / "square4.json"))
    assert code_t == code_j
    assert f"verdict: {data['verdict']}" in text


def test_gcs_seed_env_override(capsys, corpus_dir, monkeypatch):
    monkeypatch.setenv("GCS_SEED", "7")
    code, data = run_json(capsys, "check", str(corpus_dir / "triangle.json"))
    assert data["report"]["witness"]["seeds"] == [7, 8, 9]
    monkeypatch.setenv("GCS_SEED", "pears")
    assert main(["check", str(corpus_dir / "triangle.json")]) == 1
    capsys.readouterr()
    monkeypatch.setenv("GCS_SEED", "-3")
    assert main(["check", str(corpus_dir / "k4.json")]) == 1
    assert_one_line_refusal(capsys, "seed must be >= 0")


def assert_one_line_refusal(capsys, message):
    """Nothing on stdout and exactly ``message`` as one line on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("flags, message", [
    (["--tolerance", "0"], "tolerances must be positive"),
    (["--rank-tol", "-1"], "tolerances must be positive"),
    (["--witnesses", "0"], "witness count must be >= 1"),
    (["--max-iter", "-5"], "max-iter must be >= 0"),
    (["--seed", "-5"], "seed must be >= 0"),
], ids=["tolerance", "rank-tol", "witnesses", "max-iter", "seed"])
def test_invalid_global_options_exit_1(capsys, corpus_dir, flags, message):
    assert main([*flags, "check", str(corpus_dir / "triangle.json")]) == 1
    assert_one_line_refusal(capsys, message)


@pytest.mark.parametrize("model, flags, message", [
    ("k4.json", ["--seed-row", "99"], "seed row 99 out of range"),
    ("k4.json", ["--seed-row", "-1"], "seed row -1 out of range"),
    ("lindep2.json", ["--seed-row", "9"], "seed row 9 out of range"),
    ("k4.json", ["--seed-entity", "ZZZ"], "seed entity 'ZZZ' is not an entity of the model"),
    ("lindep2.json", ["--seed-entity", "ZZZ"], "--seed-entity needs a geometric model"),
], ids=["row-99", "row-minus-1", "raw-row-9", "entity", "raw-entity"])
def test_detect_refuses_a_seed_the_system_lacks(capsys, corpus_dir, model, flags, message):
    assert main(["detect", *flags, str(corpus_dir / model)]) == 1
    assert_one_line_refusal(capsys, message)


def test_check_3d_models(capsys, corpus_dir):
    code, data = run_json(capsys, "check", str(corpus_dir / "tetrahedron.json"))
    assert code == 0 and data["verdict"] == "well"
    code, data = run_json(capsys, "check", str(corpus_dir / "double-banana.json"))
    # counting passes (advisory in 3D) but the witness sees the hinge motion
    assert data["report"]["structural"]["state"] == "well"
    assert data["report"]["structural"]["advisory"] is True
    assert data["report"]["witness"]["freeMotions"] == 1
    assert code == 5


def test_check_parallel_lines_mismatch(capsys, corpus_dir):
    code, data = run_json(capsys, "check", str(corpus_dir / "parallel-lines.json"))
    w = data["report"]["witness"]
    assert (w["columns"], w["rank"], w["dor"]) == (12, 5, 6)
    assert code == 3


def test_mode_structural_only(capsys, corpus_dir):
    code, data = run_json(capsys, "--mode", "structural", "check",
                          str(corpus_dir / "three-lines-three-angles.json"))
    # counting alone cannot see the angle-sum dependency
    assert code == 0 and data["verdict"] == "well"
    assert "witness" not in data["report"]


def test_mode_witness_only_single_vote(capsys, corpus_dir):
    code, data = run_json(capsys, "--mode", "witness", "--witnesses", "1",
                          "check", str(corpus_dir / "braced-quad.json"))
    assert code == 0
    assert data["report"]["witness"]["seeds"] == [0]
    assert "structural" not in data["report"]


def test_console_entry_point_installed(corpus_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "gcskernel.cli", "check", str(corpus_dir / "triangle.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: well" in proc.stdout


def test_main_reuses_one_parser_without_carrying_options_over(capsys, corpus_dir, tmp_path):
    from gcskernel import cli

    data = json.loads((corpus_dir / "solve-kite.json").read_text(encoding="utf-8"))
    for k, e in enumerate(data["entities"]):  # move the sketch off the solution
        e["params"] = [p + 0.1 * math.sin(3 * k + i + 1) for i, p in enumerate(e["params"])]
    kite = tmp_path / "kite.json"
    kite.write_text(json.dumps(data), encoding="utf-8")
    triangle = str(corpus_dir / "triangle.json")
    custom = ["--seed", "5", "--tolerance", "1e-20", "--format", "json", "solve", str(kite)]
    plain = ["solve", str(kite)]
    code, out = run_cli(capsys, *custom)
    assert code == 4 and json.loads(out)["status"] == "inconsistent"
    code, out = run_cli(capsys, *plain)
    assert code == 0 and "status: converged" in out  # default tolerance and text format
    code, report = run_json(capsys, "--seed", "5", "check", triangle)
    assert report["report"]["witness"]["seeds"] == [5, 6, 7]
    code, report = run_json(capsys, "check", triangle)
    assert report["report"]["witness"]["seeds"] == [0, 1, 2]
    assert cli._parser() is cli._parser()
    for first, second in ((custom, plain), (plain, custom)):
        cli._parser().parse_args(first)
        assert vars(cli._parser().parse_args(second)) == vars(cli.build_parser().parse_args(second))
