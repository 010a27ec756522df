import os
from pathlib import Path

from hypothesis import settings

# reproducible property runs: a verification tool's own suite must not flake
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# the CLI tests run `python -m jacprop` in subprocesses; let them import src/ too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
