"""Every demo script must run to completion from a scratch directory, and
every JSON config example in the README must parse."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gossipsim.config import run_config_from_dict, run_config_to_dict

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=child_env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_config_examples_parse_and_round_trip():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        config = run_config_from_dict(json.loads(block))
        assert run_config_from_dict(run_config_to_dict(config)) == config
