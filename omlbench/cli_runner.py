"""A CLI process with the tracer installed, for the traced pass of cli-cold.

    python cli_runner.py AGGREGATE_JSON SPANS_JSON_GZ VERB [ARGS...]

Imports ``omlkit.cli`` exactly as ``python -m omlkit.cli`` does, installs
the tracer, calls ``main`` with the verb and its arguments, and writes the
span aggregates and the spans themselves once ``main`` has returned.  The
exit code is ``main``'s.
"""

import json
import sys

import omlkit.cli

from tracer import Tracer


def main() -> int:
    aggregate_path, spans_path, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = omlkit.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(aggregate_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.aggregate(), fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
