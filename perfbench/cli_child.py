"""Run ``ebicglm.cli.main`` with tracing installed, as a child process.

Usage: python3 cli_child.py SPANS_DIR ARG...

The package must be importable (the parent sets PYTHONPATH to its ``src``).
The child's spans go to SPANS_DIR/cli-<pid>.npz and its exit code is the
CLI's.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.install(spans_dir)
    import ebicglm.cli

    try:
        return ebicglm.cli.main(argv)
    finally:
        rec.dump(Path(spans_dir) / f"cli-{os.getpid()}.npz")


if __name__ == "__main__":
    sys.exit(main())
