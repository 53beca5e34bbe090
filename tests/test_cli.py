"""CLI: exit-code contract, determinism, engine dispatch."""
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import graphsack
from graphsack import cli, connected, decomposition, errors, paths
from graphsack.approx import fptas_optimize
from graphsack.cli import main
from graphsack.decomposition import INTRODUCE_EDGE, decompose
from graphsack.model import Instance, instance_to_json, validate_instance
from graphsack.generators import random_instance
from graphsack import Variant
from conftest import reroute


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(instance_to_json(inst))
    return str(path)


@pytest.fixture
def diamond_sp(tmp_path):
    from graphsack.model import Instance, validate_instance
    inst = validate_instance(Instance(
        variant=Variant.SHORTEST_PATH, n=4,
        edges=((0, 1), (1, 3), (0, 2), (2, 3)),
        weight=(0, 2, 1, 0), value=(0, 5, 1, 0), s=2, x=0, y=3))
    return write_instance(tmp_path, inst)


class TestSolve:
    def test_labels_optimize(self, capsys, diamond_sp):
        code, out = run(capsys, "solve", "--input", diamond_sp,
                        "--engine", "labels", "--mode", "optimize")
        doc = json.loads(out)
        assert code == 0 and doc["best_value"] == 5
        assert doc["frontier"] == [[1, 1], [2, 5]]

    def test_infeasible_decision_exit_one(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 5, 1)
        from dataclasses import replace
        inst = replace(inst, d=sum(inst.value) + 1)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path,
                        "--mode", "decision")
        assert code == 1 and json.loads(out)["feasible"] is False

    def test_engine_variant_mismatch_exit_two(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 4, 2)
        path = write_instance(tmp_path, inst)
        code, _ = run(capsys, "solve", "--input", path,
                      "--engine", "labels")
        assert code == 2

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("engine", ["auto", "treewidth", "color",
                                        "labels", "tree", "oracle"])
    def test_engine_table(self, capsys, tmp_path, engine, variant):
        # a tree, so that every engine of the variant runs
        inst = random_instance(variant, "tree", 7, 3)
        path = write_instance(tmp_path, inst)
        handled = {"auto": list(Variant),
                   "treewidth": [Variant.CONNECTED, Variant.PATH],
                   "color": [Variant.PATH],
                   "labels": [Variant.SHORTEST_PATH],
                   "tree": [Variant.PATH, Variant.SHORTEST_PATH],
                   "oracle": list(Variant)}[engine]
        for extra in ([], ["--epsilon", "1/3"]):
            code = main(["solve", "--input", path, "--engine", engine,
                         *extra])
            out, err = capsys.readouterr()
            if variant in handled:
                assert code in (0, 1) and err == ""
                assert json.loads(out)["feasible"] is (code == 0)
            else:
                assert code == 2 and out == ""
                assert err == (f"error: engine {engine} does not handle "
                               f"variant {variant.value}\n")

    def test_decision_without_target_exit_two(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 4, 3)
        path = write_instance(tmp_path, inst)
        code, _ = run(capsys, "solve", "--input", path,
                      "--mode", "decision")
        assert code == 2

    def test_malformed_input_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "solve", "--input", str(bad))
        assert code == 2

    def test_error_printed_once(self, tmp_path):
        # a child process, so all that it writes to stderr is captured here
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        src_dir = str(Path(graphsack.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run([sys.executable, "-m", "graphsack.cli", "solve",
                               "--input", str(empty)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: missing fields")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("field, bad", [
        ("n", "3"), ("edges", [5]), ("weights", None),
        ("weights", [1.5, 1]), ("y", True), ("version", True),
        ("version", 1.0), ("edges", [[0, 1, 5]])],
        ids=["n-string", "edge-int", "weights-null", "weight-float",
             "y-bool", "version-bool", "version-float", "edge-cost-path"])
    def test_malformed_field_type_exit_two(self, capsys, tmp_path, field,
                                           bad):
        doc = {"version": 1, "variant": "path", "n": 2, "edges": [[0, 1]],
               "weights": [1, 1], "values": [1, 1], "s": 2, "x": 0, "y": 1}
        doc[field] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "solve", "--input", str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_color_trials_not_positive_exit_two(self, capsys, tmp_path,
                                                trials):
        inst = random_instance(Variant.PATH, "gnp", 7, 6, p=0.5)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path,
                        "--engine", "color", "--trials", trials)
        assert code == 2 and out == ""

    def test_color_default_budget_overflow_exit_two(self, capsys,
                                                      tmp_path):
        # k = 720 zero-weight vertices fit s: ceil(3e^k) overflows a float
        n = 720
        inst = validate_instance(Instance(
            variant=Variant.PATH, n=n,
            edges=tuple((v, v + 1) for v in range(n - 1)), weight=(0,) * n,
            value=(1,) * n, s=0, x=0, y=n - 1))
        code = main(["solve", "--input", write_instance(tmp_path, inst),
                     "--engine", "color"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "k = 720" in err and "--trials" in err

    def test_auto_uses_tree_solver_on_trees(self, capsys, tmp_path):
        inst = random_instance(Variant.PATH, "tree", 6, 4)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path)
        assert code in (0, 1)
        assert "trials_run" not in json.loads(out)["stats"]

    def test_forest_disconnected_terminals_exit_one(self, capsys, tmp_path):
        from graphsack.model import Instance, validate_instance
        inst = validate_instance(Instance(
            variant=Variant.PATH, n=4, edges=((0, 1), (2, 3)),
            weight=(1,) * 4, value=(1,) * 4, s=4, x=0, y=3))
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path)
        doc = json.loads(out)
        assert code == 1 and doc["feasible"] is False
        assert doc["frontier"] == [] and doc["witness"] is None

    @pytest.mark.parametrize("epsilon", [None, "1/2"])
    @pytest.mark.parametrize("engine", ["labels", "tree", "oracle"])
    def test_unreachable_y_exit_one(self, capsys, tmp_path, engine, epsilon):
        from graphsack.model import Instance, validate_instance
        inst = validate_instance(Instance(
            variant=Variant.SHORTEST_PATH, n=3, edges=((0, 1),),
            weight=(1,) * 3, value=(1,) * 3, s=3, x=0, y=2))
        path = write_instance(tmp_path, inst)
        argv = ["solve", "--input", path, "--engine", engine]
        if epsilon is not None:
            argv += ["--epsilon", epsilon]
        code, out = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 1 and doc["feasible"] is False
        assert doc["witness"] is None

    def test_epsilon_flag(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "gnp", 6, 5, p=0.5)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path,
                        "--epsilon", "1/4")
        assert code == 0
        assert json.loads(out)["stats"]["epsilon"] == "1/4"

    @pytest.mark.parametrize("variant", list(Variant))
    def test_oracle_engine_witness_verifies(self, capsys, tmp_path, variant):
        from graphsack.model import verify_solution
        inst = random_instance(variant, "gnp", 7, 12, p=0.5)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path,
                        "--engine", "oracle")
        doc = json.loads(out)
        assert code == 0 and doc["witness"] is not None
        result = verify_solution(inst, doc["witness"])
        assert result.ok, result.reason
        assert [result.w, result.alpha] == doc["frontier"][-1]

    def test_solve_deterministic(self, capsys, tmp_path):
        inst = random_instance(Variant.PATH, "gnp", 7, 6, p=0.5)
        path = write_instance(tmp_path, inst)
        _, first = run(capsys, "solve", "--input", path,
                       "--engine", "color", "--seed", "9")
        _, second = run(capsys, "solve", "--input", path,
                        "--engine", "color", "--seed", "9")
        assert first == second

    def test_readme_example(self, capsys, tmp_path):
        code, out = run(capsys, "generate", "--random", "gnp", "--n", "6",
                        "--seed", "11", "--variant", "connected")
        assert code == 0
        demo = tmp_path / "demo.json"
        demo.write_text(out)
        code, out = run(capsys, "solve", "--input", str(demo))
        doc = json.loads(out)
        assert code == 0
        assert doc == {"best_value": 6, "feasible": True,
                       "frontier": [[0, 3], [2, 6]],
                       "stats": {"nodes_expanded": 17, "states_touched": 53},
                       "witness": [3, 4]}
        # the README prints the same document after `$ graphsack solve`
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("$ graphsack solve --input demo.json\n")[1]
        assert json.loads(block.split("\n```")[0]) == doc


def _auto_cases():
    """(id, instance, the engine that auto must match); every instance
    has a target d, and every cyclic Path instance keeps its cycles
    when the FPTAS cuts the edges of the vertices heavier than s."""
    tree = random_instance(Variant.PATH, "tree", 8, 5, decision=True)
    yield "path-tree", tree, "tree"
    yield "path-x-is-y", replace(tree, y=tree.x), "tree"
    yield "path-y-in-other-tree", validate_instance(Instance(
        variant=Variant.PATH, n=6, edges=((0, 1), (1, 2), (3, 4), (4, 5)),
        weight=(1, 2, 1, 1, 2, 1), value=(3, 1, 2, 4, 1, 2), s=5, x=0, y=4,
        d=3)), "tree"
    for kind, seed in (("gnp", 3), ("gnp", 4), ("grid", 3)):
        inst = random_instance(Variant.PATH, kind, 8, seed, p=0.5,
                               decision=True)
        assert max(inst.weight) <= inst.s
        yield f"path-{kind}{seed}", inst, "treewidth"
    for kind in ("tree", "gnp", "grid"):
        yield (f"connected-{kind}", random_instance(
            Variant.CONNECTED, kind, 8, 3, p=0.5, decision=True), "treewidth")
    for kind in ("tree", "gnp", "grid"):
        yield (f"sp-{kind}", random_instance(
            Variant.SHORTEST_PATH, kind, 9, 3, p=0.5, decision=True), "labels")


class TestAutoRow:
    @pytest.mark.parametrize("extra", [[], ["--epsilon", "1/3"],
                                       ["--mode", "decision"]],
                             ids=["optimize", "fptas", "decision"])
    @pytest.mark.parametrize("inst, engine", [
        pytest.param(inst, engine, id=name)
        for name, inst, engine in _auto_cases()])
    def test_auto_prints_its_engine_bytes(self, capsys, tmp_path, inst,
                                          engine, extra):
        path = write_instance(tmp_path, inst)
        printed = []
        for argv in ([], ["--engine", "auto"], ["--engine", engine]):
            code = main(["solve", "--input", path, *argv, *extra])
            printed.append((code, *capsys.readouterr()))
        assert printed[0] == printed[1] == printed[2]
        assert printed[0][0] in (0, 1) and printed[0][2] == ""

    def test_fptas_picks_tree_solver_after_pruning(self, capsys, tmp_path):
        # vertex 2 (weight 9 > s) is on the one cycle, and the FPTAS
        # cuts its edges before auto picks a solver: tree stats, not the
        # DP's
        inst = validate_instance(Instance(
            variant=Variant.PATH, n=4, edges=((0, 1), (0, 2), (1, 2), (1, 3)),
            weight=(1, 1, 9, 1), value=(2, 3, 5, 4), s=4, x=0, y=3))
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "solve", "--input", path, "--epsilon", "1/3")
        assert code == 0
        assert json.loads(out) == {
            "best_value": 9, "feasible": True, "frontier": [[3, 9]],
            "stats": {"alpha_max": 4, "epsilon": "1/3", "nodes_expanded": 3,
                      "scaled_value": 19, "states_touched": 1},
            "witness": [0, 1, 3]}


# A child process that imports graphsack.cli and, given arguments, runs
# main on them with stdout discarded; it prints the graphsack modules it
# has loaded as a JSON list.
_LOADED_SCRIPT = """\
import contextlib, io, json, sys
from graphsack.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == "graphsack")))
"""


def loaded_modules(*argv):
    src_dir = str(Path(graphsack.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src_dir))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportScope:
    def test_cli_import_loads_only_what_every_command_needs(self):
        assert loaded_modules() == {"graphsack", "graphsack.cli",
                                    "graphsack.errors", "graphsack.model"}

    def test_connected_solve_loads_no_other_command_module(self, tmp_path):
        inst = random_instance(Variant.CONNECTED, "gnp", 6, 11)
        loaded = loaded_modules("solve", "--input",
                                write_instance(tmp_path, inst))
        assert "graphsack.connected" in loaded
        assert not loaded & {"graphsack.approx", "graphsack.generators",
                             "graphsack.oracles", "graphsack.reductions"}

    def test_every_exported_name_resolves(self):
        namespace = {}
        exec("from graphsack import *", namespace)
        for name in graphsack.__all__:
            assert namespace[name] is getattr(graphsack, name)
        assert set(graphsack.__all__) <= set(dir(graphsack))
        with pytest.raises(AttributeError):
            getattr(graphsack, "no_such_name")

    def test_engine_choices_are_the_table_rows(self):
        assert cli.ENGINES == tuple(cli._engines(0, None))

    def test_solve_runs_the_solver_bound_on_its_module(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        # the benchmark's tracer rebinds solvers on their modules in the
        # same way, and must see every solve that main runs
        solve, calls = connected.solve_connected, []

        def spy(inst):
            calls.append(inst)
            return solve(inst)

        monkeypatch.setattr(connected, "solve_connected", spy)
        inst = random_instance(Variant.CONNECTED, "gnp", 6, 11)
        code, out = run(capsys, "solve", "--input",
                        write_instance(tmp_path, inst))
        assert code in (0, 1) and calls == [inst]
        assert json.loads(out)["frontier"] == [
            list(pair) for pair in solve(inst).frontier]


class TestGenerate:
    def test_random_deterministic_bytes(self, capsys):
        _, first = run(capsys, "generate", "--random", "tree", "--n", "8",
                       "--seed", "7")
        _, second = run(capsys, "generate", "--random", "tree", "--n", "8",
                        "--seed", "7")
        assert first == second

    def test_bad_n_exit_two(self, capsys):
        # the generator's own ValueError is the only check on --n
        for n in ("0", "-1"):
            assert main(["generate", "--random", "gnp", "--n", n]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), n

    def test_ladder_reduction_with_sidecar(self, capsys, tmp_path):
        items = tmp_path / "items.json"
        items.write_text(json.dumps({"sizes": [2, 3], "profits": [3, 4],
                                     "capacity": 5, "target": 7}))
        out_file = tmp_path / "gadget.json"
        code, _ = run(capsys, "generate", "--reduction", "ladder",
                      "--items", str(items), "--output", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["n"] == 7 and doc["x"] == 0 and doc["y"] == 6
        side = json.loads((tmp_path / "gadget.json.provenance.json")
                          .read_text())
        assert side["reduction"] == "knapsack_to_path_gadget"

    @pytest.mark.parametrize("reduction, flag, doc", [
        ("vc", "--source-graph", {}),
        ("vc", "--source-graph", [1]),
        ("vc", "--source-graph", {"n": 3, "edges": [[0, 1, 2]]}),
        ("vc", "--source-graph", {"n": 3, "edges": [[0, 5]]}),
        ("star", "--items", {}),
        ("star", "--items", {"sizes": ["a"], "profits": [1],
                             "capacity": 2, "target": 1}),
        ("ladder", "--items", {"sizes": [1.5], "profits": [1],
                               "capacity": 2, "target": 1}),
        ("star", "--items", {"sizes": [1], "profits": [1],
                             "capacity": True, "target": 1}),
        ("ladder", "--items", {"sizes": [1, 2], "profits": [1],
                               "capacity": 2, "target": 1})],
        ids=["graph-empty", "graph-list", "edge-triple", "edge-range",
             "items-empty", "size-string", "size-float", "capacity-bool",
             "length-mismatch"])
    def test_bad_reduction_input_exit_two(self, capsys, tmp_path,
                                          reduction, flag, doc):
        src = tmp_path / "src.json"
        src.write_text(json.dumps(doc))
        code, out = run(capsys, "generate", "--reduction", reduction, flag,
                        str(src), "--k", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("reduction, k, ell", [
        ("vc", "0", "0"), ("pvc", "0", "1")], ids=["vc", "pvc"])
    def test_one_edge_corner_exit_two(self, capsys, tmp_path, reduction,
                                      k, ell):
        # one source edge: the lone edge vertex meets d on its own
        src = tmp_path / "edge.json"
        src.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        code = main(["generate", "--reduction", reduction, "--source-graph",
                     str(src), "--k", k, "--ell", ell])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_vc_reduction(self, capsys, tmp_path):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(
            {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        code, out = run(capsys, "generate", "--reduction", "vc",
                        "--source-graph", str(src), "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 9 and doc["s"] == 2 and doc["d"] == 3


class TestVerify:
    def test_valid_witness(self, capsys, tmp_path, diamond_sp):
        wit = tmp_path / "w.json"
        wit.write_text("[0, 2, 3]")
        code, out = run(capsys, "verify", "--input", diamond_sp,
                        "--witness", str(wit))
        assert code == 0 and json.loads(out)["reason"] == "ok"

    def test_invalid_witness_exit_one(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 5, 8)
        path = write_instance(tmp_path, inst)
        wit = tmp_path / "w.json"
        wit.write_text("[0, 4]")
        code, out = run(capsys, "verify", "--input", path,
                        "--witness", str(wit))
        if json.loads(out)["ok"]:
            pytest.skip("random tree happened to connect 0 and 4")
        assert code == 1

    def test_unknown_vertex_exit_two(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 3, 9)
        path = write_instance(tmp_path, inst)
        wit = tmp_path / "w.json"
        wit.write_text("[99]")
        code, _ = run(capsys, "verify", "--input", path,
                      "--witness", str(wit))
        assert code == 2


    def test_bool_witness_exit_two(self, capsys, tmp_path, diamond_sp):
        wit = tmp_path / "w.json"
        wit.write_text("[0, true, 3]")
        code, _ = run(capsys, "verify", "--input", diamond_sp,
                      "--witness", str(wit))
        assert code == 2


class TestDeepNesting:
    """JSON nested past the parser's recursion limit is bad input, not
    a crash: every command that reads a file exits 2 with one line."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--input", "{deep}"),
        ("decompose", "--input", "{deep}"),
        ("verify", "--input", "{inst}", "--witness", "{deep}"),
        ("generate", "--reduction", "vc", "--source-graph", "{deep}"),
        ("generate", "--reduction", "star", "--items", "{deep}")],
        ids=["solve", "decompose", "verify-witness", "generate-source-graph",
             "generate-items"])
    def test_exit_two_one_line(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        inst = write_instance(tmp_path,
                              random_instance(Variant.CONNECTED, "tree", 3, 1))
        code = main([a.format(deep=deep, inst=inst) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestDecompose:
    def test_tree_width_one(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 7, 10)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "decompose", "--input", path)
        assert code == 0 and json.loads(out)["width"] == 1

    def test_k4_width_three(self, capsys, tmp_path):
        from graphsack.model import Instance, validate_instance
        inst = validate_instance(Instance(
            variant=Variant.CONNECTED, n=4,
            edges=tuple((u, v) for u in range(4) for v in range(u + 1, 4)),
            weight=(0,) * 4, value=(0,) * 4, s=0))
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "decompose", "--input", path)
        assert code == 0 and json.loads(out)["width"] == 3

    def test_pins_in_every_bag(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 6, 11)
        path = write_instance(tmp_path, inst)
        code, out = run(capsys, "decompose", "--input", path,
                        "--pin", "0,2")
        assert code == 0
        doc = json.loads(out)
        assert all({0, 2} <= set(node["bag"]) for node in doc["nodes"])

    def test_bad_pin_exit_two(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 4, 12)
        path = write_instance(tmp_path, inst)
        code = main(["decompose", "--input", path, "--pin", "9"])
        assert code == 2
        assert capsys.readouterr().err == "error: pinned set [9] out of range\n"

    def test_negative_pin_exit_two(self, capsys, tmp_path):
        inst = random_instance(Variant.CONNECTED, "tree", 4, 12)
        path = write_instance(tmp_path, inst)
        code = main(["decompose", "--input", path, "--pin", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: pinned set [-1] out of range\n"

    def test_printed_decomposition_is_validated(self, capsys, tmp_path,
                                                monkeypatch):
        # a builder that loses an edge introduction must not be printed
        build = decomposition.build_nice_decomposition

        def broken(inst, order, pinned):
            nd = build(inst, order, pinned)
            return reroute(nd, drop=next(
                nid for nid, node in enumerate(nd.nodes)
                if node.kind == INTRODUCE_EDGE))

        monkeypatch.setattr(decomposition, "build_nice_decomposition", broken)
        inst = random_instance(Variant.CONNECTED, "tree", 6, 11)
        path = write_instance(tmp_path, inst)
        code = main(["decompose", "--input", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert (captured.err.startswith("error: ")
                and captured.err.count("\n") == 1)

    @pytest.mark.parametrize("variant", ["connected", "path"])
    def test_solvers_run_on_the_printed_decomposition(self, variant,
                                                      monkeypatch):
        # what the treewidth solver walks hashes to the pinned digest of
        # what ``graphsack decompose`` prints for the same stream
        module = connected if variant == "connected" else paths
        solve = cli._engines(0, None)["treewidth"][Variant(variant)]
        dp, walked = module.run_dp, []

        def spy(inst, nd, rules, stats):
            walked.append(nd)
            return dp(inst, nd, rules, stats)

        monkeypatch.setattr(module, "run_dp", spy)
        digest = hashlib.sha256()
        for kind in ("tree", "gnp", "grid"):
            for n in (1, 2, 5, 9, 12):
                for seed in range(10):
                    inst = random_instance(Variant(variant), kind, n, seed,
                                           p=0.3, decision=True)
                    solve(inst)
                    digest.update(json.dumps(walked.pop().to_doc(),
                                             sort_keys=True).encode() + b"\n")
        assert not walked
        assert digest.hexdigest() == DECOMPOSE_DIGESTS[variant]


# One SHA-256 per (engine, variant) cell of ``cli._engines`` over the
# report documents of a seeded stream: each instance solved in optimize
# mode, in decision mode and under the FPTAS at eps = 1/3; an engine's
# GraphsackError is hashed by its class name.
REPORT_DIGESTS = {
    ("auto", "connected"): "086c821816b30b90cdf53efe4c3cfbd46f3c08bac657e92c0ac689f63f07dcc0",
    ("auto", "path"): "90e9f9ca363ba4adde6a7c2e7f8d8b81aff8cffcde067bf9f097c7fcce9855cb",
    ("auto", "shortest_path"): "761297690811164cefb765b074483ae56e08110ddacb264c4488ce2b648e28e5",
    ("treewidth", "connected"): "086c821816b30b90cdf53efe4c3cfbd46f3c08bac657e92c0ac689f63f07dcc0",
    ("treewidth", "path"): "9296c045990d983328d90f6652f653ef22eb03f2d156d501526c989eeb47400d",
    ("color", "path"): "5e00d0f88fb67e7426611e7229f3fbb8263b64307deab1eb6f1619f4cd968542",
    ("labels", "shortest_path"): "761297690811164cefb765b074483ae56e08110ddacb264c4488ce2b648e28e5",
    ("tree", "path"): "f220f7c0466bf75cd0fe64fced596790fd284ecdbb40126d3f344e3183d29810",
    ("tree", "shortest_path"): "5e3a8f4664d4a2ddeaed2274b9bb888dba81632d66ac92ab326b22d542d13ac1",
    ("oracle", "connected"): "ed3e2ae95f9b23d89a075da1bdc5754ab955f715f98d2876753af9e6b4b053bc",
    ("oracle", "path"): "bc78c0e1af6d00cdc9157e38440e5c78d5982361eaed9c57f93c838cc14ed54c",
    ("oracle", "shortest_path"): "9dfeebd74c6c6df446e2d3aae853044aea379796984f834e613edc0de59db6a2",
}


class TestReportDigests:
    """Every engine's report bytes are pinned on a seeded stream: tree,
    gnp and grid, n in {1, 2, 5, 9, 12}, seeds 0-9, p = 0.3, color at
    32 trials.  A change that keeps the frontiers, witnesses and stats
    keeps these digests."""

    def test_cells_cover_the_engine_table(self):
        assert set(REPORT_DIGESTS) == {
            (engine, variant.value)
            for engine, table in cli._engines(0, 32).items()
            for variant in table}

    @pytest.mark.parametrize("engine, variant", sorted(REPORT_DIGESTS))
    def test_report_bytes(self, engine, variant):
        solver = cli._engines(0, 32)[engine][Variant(variant)]
        digest, feasible = hashlib.sha256(), 0
        for kind in ("tree", "gnp", "grid"):
            for n in (1, 2, 5, 9, 12):
                for seed in range(10):
                    base = random_instance(Variant(variant), kind, n, seed,
                                           p=0.3, decision=True)
                    optimize = replace(base, d=None)
                    for run in (lambda: solver(optimize),
                                lambda: solver(base),
                                lambda: fptas_optimize(optimize, "1/3",
                                                       solver)):
                        try:
                            doc = cli._report_doc(run())
                            feasible += doc["feasible"]
                        except errors.GraphsackError as exc:
                            doc = type(exc).__name__
                        digest.update(json.dumps(doc, sort_keys=True)
                                      .encode() + b"\n")
        assert feasible > 0
        assert digest.hexdigest() == REPORT_DIGESTS[engine, variant]


# One SHA-256 per variant over what ``graphsack decompose`` prints for
# the instances of the ``TestReportDigests`` stream: Connected unpinned,
# Path pinned at {x, y}.
DECOMPOSE_DIGESTS = {
    "connected": "f5a1dd23636e22d0640af761a09150dca0682f6d7307b4875330783319d253b2",
    "path": "af442b738d7ebf27389c13757111fe405b59212fc61b947cb1530ce54ed9a5e2",
}


class TestDecomposeDigests:
    """The decomposition documents are pinned on the report stream, so
    that a change to the order or the build shows here on purpose."""

    @pytest.mark.parametrize("variant", sorted(DECOMPOSE_DIGESTS))
    def test_decompose_bytes(self, variant):
        digest = hashlib.sha256()
        for kind in ("tree", "gnp", "grid"):
            for n in (1, 2, 5, 9, 12):
                for seed in range(10):
                    inst = random_instance(Variant(variant), kind, n, seed,
                                           p=0.3, decision=True)
                    pins = () if inst.x is None else {inst.x, inst.y}
                    digest.update(json.dumps(decompose(inst, pins).to_doc(),
                                             sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == DECOMPOSE_DIGESTS[variant]
