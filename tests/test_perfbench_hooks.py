"""The benchmark's per-layer metrics find their functions by qualified name
(`perfbench/layers.py` `HOOKS`); a renamed or deleted function drops its
metric from a traced run.  This test makes that a test failure."""

from __future__ import annotations

import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"
PACKAGE = ROOT / "src" / "quasicross"


def test_every_hooked_function_exists():
    # executed from its source text, so nothing is written under perfbench/
    layers = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS_PY.read_text(encoding="utf-8"), str(LAYERS_PY), "exec"), layers.__dict__)
    missing = [
        f"quasicross.{module}.{qualname}"
        for module, qualname in layers.HOOKS.values()
        if qualname not in layers._code_keys(str(PACKAGE / f"{module}.py"))
    ]
    assert missing == []
