"""Make the checkout's own ``src/hgs`` importable, and nothing else.

The benchmark must measure the source tree it ships with, never an
installed copy, so it puts ``<checkout>/src`` first on ``sys.path`` and
refuses to run when that tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_hgs() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 when it is absent."""
    if not (SRC / "hgs" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no hgs source tree under {SRC}\n")
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import hgs

    if Path(hgs.__file__).resolve().parent != SRC / "hgs":
        sys.stderr.write(f"benchmark: hgs imported from {hgs.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)
