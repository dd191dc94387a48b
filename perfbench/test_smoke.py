"""Smoke test of the benchmark itself, at a tiny size (a 16x32 grid):
every metric BENCHMARK.json names is emitted with its unit, the
output checks pass on real outputs and count a doctored output as a failed
op, and a hook without a target is reported absent.

    python3 -m pytest perfbench/test_smoke.py
"""

import json

import pytest

import run
import tracing

with open(run.ROOT / "BENCHMARK.json") as _fh:
    BENCHMARK = json.load(_fh)

run.import_program()
import workloads  # noqa: E402  (needs the path set up by import_program)

TINY = {
    "perturbed_converge": lambda: workloads.Converge("disk_cosine_perturbed",
                                                     grid=(16, 32)),
    "replay_audit": lambda: workloads.Replay("disk_cosine_perturbed", grid=(16, 32)),
}


def bench(capsys, workload, trace, table=TINY):
    run.main(["--workload", workload, "--seed", "7", "--seconds", "0.001",
              "--trace", str(trace)], table)
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_emitted_with_its_unit(capsys, workload, trace):
    report, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert report["trace"]["absent"] == []
    assert report["workload"] in {w["name"] for w in BENCHMARK["workloads"]}


class DoctoredR2(workloads.Converge):
    def collect(self, result, opdir):
        outcome = super().collect(result, opdir)
        outcome["summary"] = {**outcome["summary"], "R2": 0.5}
        return outcome


def test_doctored_output_is_a_failed_op(capsys):
    report, result = bench(capsys, "perturbed_converge", 0,
                           {"perturbed_converge": lambda: DoctoredR2(
                               "disk_cosine_perturbed", grid=(16, 32))})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("R2 = 0.5" in f for f in report["failures"])


def test_missing_hook_is_absent_and_harmless():
    gone = ("flow.gone", "otflow.flow", "no_such_function", None)
    tracer = tracing.Tracer(hooks=tracing.HOOKS + (gone,))
    tracer.install()
    try:
        absent = tracer.absent_metrics()
    finally:
        tracer.uninstall()
    assert {"flow.gone.calls", "flow.gone.self_s"} <= absent
    assert not absent & set(tracing.metric_units())
