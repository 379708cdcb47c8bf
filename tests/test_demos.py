"""The demos run to completion in-process (the surrogate search of
``scale_search`` is criterion 12's)."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
