"""The demos and the README's Quick start run to completion in-process
(the surrogate search of ``scale_search`` is criterion 12's)."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name, args", [
    ("qp_tour", ()),
    ("satellite_pipeline", ([],)),  # no command-line flags
    ("pendulum_tracking", ()),
])
def test_demo_main_returns_0(name, args, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(*args) == 0
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    # the first python block of the README, run as written
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_quick_start"})
    assert "equivalence residual" in capsys.readouterr().out
