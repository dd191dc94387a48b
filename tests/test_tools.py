"""The repository's own tooling, run as part of the suite."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_only_unset_parameter_is_the_density_scale():
    # cosine_bump_density(scale) is set through the density section's
    # ``scale`` key of a config, not by any call the scan can read
    spec = importlib.util.spec_from_file_location(
        "unset_params", TOOLS / "unset_params.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    found = tool.unset_parameters()
    assert len(found) == 1
    assert found[0].endswith("cosine_bump_density(scale)")


def test_bench_pairs_stores_exact_blocks_and_counts_digests(
        tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TOOLS / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
