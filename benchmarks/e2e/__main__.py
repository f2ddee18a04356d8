"""``python -m benchmarks.e2e`` / ``python3 benchmarks/e2e/__main__.py``."""

import sys
from pathlib import Path

if not __package__:
    # Run as a file: the script directory is sys.path[0]; swap it for the
    # repo root so the package imports as ``benchmarks.e2e`` and none of
    # its modules can shadow a stdlib name.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
