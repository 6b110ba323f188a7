"""Run the toycrypt command under the benchmark's span tracer.

    python3 perfbench/cli_traced.py TOTALS_JSON toycrypt-arguments...

Behaves as `python -m toycrypt toycrypt-arguments...`, and also writes the
span totals of this process to TOTALS_JSON for the parent to merge.
"""

import json
import sys
from pathlib import Path

import spans
from toycrypt import cli


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.op_id = 1
    with spans.traced(tracer):
        code = tracer.wrap("cli", cli.run)(argv, stdin=sys.stdin.buffer)
    Path(out).write_text(json.dumps(spans.summarize(tracer.spans)))
    sys.exit(code)


if __name__ == "__main__":
    main()
