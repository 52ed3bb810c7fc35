"""Traced ``got`` command: the child process of a traced ``cli`` operation.

Usage: python clichild.py SPANS_JSON <got arguments...>

Times ``import got.cli`` as the ``cli.import`` span, installs the layer
wrappers, runs ``got.cli.main`` inside a ``cli.command`` span, writes the
spans to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import got.cli

    tracer.add("cli.import", start, time.perf_counter())
    tracer.install()
    idx = tracer.open("cli.command")
    try:
        code = got.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
