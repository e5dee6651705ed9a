"""Traced ``cavpuck`` CLI call, run in a fresh interpreter.

    python perfbench/child.py SPANS_OUT OP_ID -- <cavpuck cli arguments>

Times the import of ``cavpuck.cli``, wraps the layer functions at the names
the CLI binds them, runs ``cavpuck.cli.main`` and writes the spans to
SPANS_OUT as JSON.  Standard output and the exit code are the CLI's own.
Needs ``src`` on PYTHONPATH, as an untraced call does.
"""

import json
import sys

from spans import Recorder


def main(argv):
    spans_out, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_OUT OP_ID -- ARGS...")
    rec = Recorder()
    rec.op_id = int(op_id)
    code = 1
    try:
        with rec.span("cli.import"):
            import cavpuck.cli
        rec.install()
        with rec.span("cli.main", command=cli_args[0]):
            try:
                code = cavpuck.cli.main(cli_args)
            except SystemExit as exc:  # argparse usage errors exit 2
                code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    finally:
        with open(spans_out, "w") as fh:
            json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
