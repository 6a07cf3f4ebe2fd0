"""Traced stand-in for ``python -m chronomap.cli``.

Times the import of ``chronomap.cli``, wraps the public functions (see
``tracing``), runs the CLI with the given arguments and writes the spans
once, on exit, whatever the exit code.

    PYTHONPATH=src python3 perfbench/cli_shim.py SPANS_PATH OP_ID ARGS...
"""

import sys

import tracing


def main():
    spans_path, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    rec = tracing.Recorder(op_id)
    span = rec.start("cli.import")
    import chronomap.cli as cli
    rec.finish(span)
    tracing.install(rec)
    try:
        cli.main(args=args, prog_name="chronomap")
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    main()
