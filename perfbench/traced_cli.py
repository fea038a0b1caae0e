"""Run one ``repro`` CLI command with the layer wrappers installed.

Usage: ``python3 perfbench/traced_cli.py SPANS.json -- <repro args...>``.
The command's exit code is returned; the recorded spans are written to
``SPANS.json`` as a list of ``[id, parent, layer, start, end, thread]``.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Recorder, installed  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- <repro args...>")
    from repro.cli import main as repro_main

    recorder = Recorder()
    with installed(recorder):
        code = repro_main(command)
    pathlib.Path(spans_path).write_text(json.dumps(recorder.spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
