"""Run one larvaecast CLI command with the per-layer trace installed.

Usage: python perfbench/traced_cli.py TRACE_JSON -- <larvaecast arguments>

The command's exit code is passed through; the tracer's raw times and
counts are written to TRACE_JSON for the parent benchmark to merge.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from larvaecast import cli  # noqa: E402

from layers import Tracer  # noqa: E402


def main() -> int:
    trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        print("usage: traced_cli.py TRACE_JSON -- <larvaecast arguments>", file=sys.stderr)
        return 2
    tracer = Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        Path(trace_path).write_text(json.dumps(tracer.state()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
