"""The repository's own tooling, run as part of the suite."""

import importlib.util
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
