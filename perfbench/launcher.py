"""Run one fermi1d CLI call in a fresh process with the layer wrappers on.

    python3 perfbench/launcher.py --spans FILE -- <fermi1d cli arguments>

It times `import fermi1d.cli` as a `cli.import` span, installs the same
wrappers as the in-process traced runs, calls `cli.main` and writes the
spans to FILE as JSON lines.  It exits with the CLI's code.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter_ns()
    import fermi1d.cli
    end = time.perf_counter_ns()
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.spans.append(("cli.import", start, end, -1, -1, None))
    try:
        return fermi1d.cli.main(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
