"""Run `lrpoly ARGS` under the tracer and write its spans to SPANS.

    python3 bench/tracedcli.py SPANS ARGS...

The traced cli-cold run starts one of these per op in place of
`python -m lrpoly.cli`.  An `import` span covers loading lrpoly and the
tracer, so the worker can attribute start-up time.
"""

import time

_T0 = time.perf_counter_ns()

import sys  # noqa: E402

import tracer as tracing  # noqa: E402


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from lrpoly import cli

    tracer.spans.append([tracer.name_id("import"), _T0,
                         time.perf_counter_ns(), -1])
    memo0 = tracing.memo_info()
    tracer.active = True
    try:
        code = cli.run(args)
    finally:
        tracer.active = False
        memo1 = tracing.memo_info()
        memo = None if memo1 is None else [
            memo1[0] - memo0[0], memo1[1] - memo0[1], memo1[2]]
        tracer.dump(spans_path, memo=memo)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
