"""The repository's own tooling, run as part of the suite."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_only_unset_parameter_is_the_density_scale():
    # cosine_bump_density(scale) is set through the density section's
    # ``scale`` key of a config, not by any call the scan can read
    tool = _load_tool("unset_params")
    found = tool.unset_parameters()
    assert len(found) == 1
    assert found[0].endswith("cosine_bump_density(scale)")


def test_bench_pairs_stores_exact_blocks_and_counts_digests(
        tmp_path, monkeypatch, capsys):
    tool = _load_tool("bench_pairs")
    for side in tool.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()

    def fake_run_once(checkout, workload, seed, seconds):
        # the parent repeats one trajectory; the change's seed 2 differs
        digest = ("d-change-seed2" if checkout.name == "change" and seed == 2
                  else "d-same")
        report = {"machine": {"cpus": 2}, "failures": [],
                  "exact": {"digest": digest, "steps": 53}}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"op_s": {"value": 0.3 + 0.01 * seed}}}
        return report, result

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "w", "--pairs", "3", "--seconds", "1",
                      "--out", str(out)]) == 0
    res = json.loads(out.read_text())["workloads"][0]
    assert len(res["runs"]) == 6
    assert all(r["exact"]["steps"] == 53 for r in res["runs"])
    assert res["digests"] == {"parent": ["d-same"],
                              "change": ["d-change-seed2", "d-same"]}
    printed = capsys.readouterr().out
    assert "distinct digests: parent 1, change 2, not the same" in printed


SYNTHETIC = '''\
"""A module for the line tracer's test."""

LIMIT = 3


def clip(x):
    """Docstring: never a statement."""
    if x > LIMIT:
        x = LIMIT
    total = (x
             + 1)
    try:
        return total
    except TypeError:
        raise ValueError("not reached")


class Box:
    def size(self, n):
        def inner():
            return n
        return inner()

    def unused(self):
        return 0
'''


def test_line_trace_lists_the_statements_no_call_reached(tmp_path):
    tool = _load_tool("line_trace")
    path = tmp_path / "pkg" / "synthetic.py"
    path.parent.mkdir()
    path.write_text(SYNTHETIC)
    # every simple statement in a function body, nested blocks included;
    # the spanning one by its first line
    spans = tool.function_statements(SYNTHETIC)
    assert spans == {9: 9, 10: 11, 13: 13, 15: 15, 21: 21, 22: 22, 25: 25}
    namespace = {}
    with tool.LineTracer(path.parent) as tracer:
        exec(compile(SYNTHETIC, str(path), "exec"), namespace)
        namespace["clip"](1)
        namespace["Box"]().size(2)
    assert tool.report(tracer.lines, path.parent) == [
        "synthetic:9", "synthetic:15", "synthetic:25"]
    # a statement counts as reached by any of its lines
    assert tool.unreached(SYNTHETIC, {11}) == [9, 13, 15, 21, 22, 25]
