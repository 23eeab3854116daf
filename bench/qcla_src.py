"""Import qcla from the checkout's own ``src/`` tree, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def load() -> None:
    """Put ``src/`` first on the path and check that qcla comes from it."""
    sys.path.insert(0, str(SRC))
    import qcla

    if Path(qcla.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qcla imported from {qcla.__file__}, not {SRC}")
