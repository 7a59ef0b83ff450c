"""Run the cyclink CLI in-process with every public function traced.

Usage: python benchmarks/cli_traced.py SPANS_OUT CLI_ARG...

Behaves like `python -m cyclink.cli CLI_ARG...` (same stdout, stderr and
exit code) and, on the way out, writes the spans and solver statistics of
the call to SPANS_OUT as JSON. `run.py --trace 1` uses it for the
cli_session workload.
"""

import sys

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import cyclink.cli

    tracer = Tracer()
    tracer.install()
    try:
        return cyclink.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main())
