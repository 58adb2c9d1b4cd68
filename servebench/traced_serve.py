"""Launch ``repro serve`` with timing wrappers around each serving layer.

Usage::

    python servebench/traced_serve.py SPANS.jsonl serve INDEX --tcp HOST:PORT ...

Everything after the spans path is handed to ``repro.cli.main``
unchanged.  The spans are written when the server returns from its
graceful drain (SIGINT), as JSON lines; see ``tracing.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    rec = tracing.Recorder()
    tracing.install_server(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
