"""The README's library tour runs as written, and the package root exports
exactly the names the README documents."""

import re
import types
from pathlib import Path

import muown

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

ROOT_NAMES = {"HyperParams", "init_layers", "step_all", "spectral_decomposition",
              "effective_rank", "init_view", "grad_g", "grad_R", "recompose",
              "ReparamView", "StepAllError"}


def test_library_tour_runs_as_written():
    section = README.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library tour", "exec"), {})


def test_root_exports_only_the_documented_names():
    exported = {name for name, val in vars(muown).items()
                if not name.startswith("_") and not isinstance(val, types.ModuleType)}
    assert exported == ROOT_NAMES
    assert [name for name in sorted(ROOT_NAMES) if name not in README] == []
