"""The benchmark's traced runs hook hbq's functions by name, from outside
the package (``perfbench/tracing.py``). A hook whose target is gone is
skipped there without failing the run, so a refactor that renames a hooked
function would silently drop its layer from the traces; this test fails
instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets the benchmark still names for functions that no longer exist
# (their work is inside dequantize_layer and the Haar row transforms);
# dropping them is a benchmark change of its own
KNOWN_ABSENT = {
    "hbq.pipeline:reconstruct_block",
    "hbq.pipeline:haar_matrix",
    "hbq.pipeline:inverse_haar_matrix",
}


def _hooks(monkeypatch):
    """perfbench/tracing.py's HOOKS, loaded from its file as a module of
    its own (its dataclasses look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module.HOOKS


def _resolves(target: str) -> bool:
    modname, attr = target.split(":")
    return callable(getattr(importlib.import_module(modname), attr, None))


def test_every_trace_hook_target_resolves(monkeypatch):
    targets = [target for hook in _hooks(monkeypatch) for target in hook.targets]
    assert targets and all(t.startswith("hbq.") for t in targets)
    missing = {target for target in targets if not _resolves(target)}
    assert missing <= KNOWN_ABSENT, sorted(missing - KNOWN_ABSENT)
