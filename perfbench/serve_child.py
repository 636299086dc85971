"""``repro serve`` with the layer spans installed (the traced daemon).

Usage: ``python3 perfbench/serve_child.py --spans-out PATH serve ...``
runs ``repro.cli.main(["serve", ...])`` and, after the daemon shuts
down, writes the per-name self times and counts of its spans to PATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.layers import install_layers  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, serve_argv = Path(argv[1]), argv[2:]
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    uninstall = install_layers(recorder, serve=True)
    try:
        code = repro_main(serve_argv)
    finally:
        uninstall()
    spans_out.write_text(json.dumps({
        "self_times": recorder.self_times(),
        "counts": dict(recorder.counts),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
