"""Run the ``listrank`` CLI with spans recorded around its module calls.

Usage: python3 perfbench/cli_child.py SPANS_JSON COMMAND [ARGS...]

Writes the spans to SPANS_JSON when the command ends and exits with the CLI's
exit code. ``src`` must be on PYTHONPATH.
"""

import json
import sys

from tracing import Tracer, install


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from listrank import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
