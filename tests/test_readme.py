"""The README's command-line examples run as written.

Each ``task:`` block under "### Tasks" is merged over the "Common
sections" block, as a user would write one config file, and run in
process through ``main(argv)``.  The merge is textual, so ``main`` reads
the README's own spelling of every value.
"""

import re
from pathlib import Path

import pytest
import yaml

from warpgeo.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_BLOCKS = re.findall(r"```yaml\n(.*?)```", README, re.S)
COMMON = next(b for b in _BLOCKS if b.startswith("base_chart:"))
TASKS = [b for b in _BLOCKS if b.startswith("task:")]


def merged(block):
    """``block`` over the common sections: a common line whose key the
    block sets again is dropped (each common section is one line)."""
    keys = {line.split(":")[0] for line in block.splitlines()
            if line and not line[0].isspace()}
    kept = [line for line in COMMON.splitlines() if line.split(":")[0] not in keys]
    return "\n".join(kept) + "\n" + block


def test_every_task_has_an_example():
    assert sorted(yaml.safe_load(b)["task"] for b in TASKS) == sorted(
        ["integrate", "riemannize", "connect", "flrw", "partial-connect",
         "curvature-scan", "beta-scan"])


@pytest.mark.parametrize("block", TASKS, ids=lambda b: b.split()[1])
def test_task_example_runs(tmp_path, block):
    cfg = tmp_path / "task.yaml"
    cfg.write_text(merged(block))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
