"""Run one `wavedet` command in this process, as the console script does,
and record when the command's work starts and ends.

    python3 perfbench/child.py RECORD MODE -- <wavedet arguments>

The package is imported from src/ next to this directory.  The command
handler is wrapped to note the moment it is entered: set-up (interpreter
start, imports, argument parsing, config resolution) ends there and the
command's work begins.  MODE is

    run    plain run; only the two clock readings are added
    probe  stop at handler entry without computing anything (a set-up
           sample)
    trace  run with spans and counters (see tracer.py)

RECORD receives a JSON object with the exit code, the clock readings
(time.monotonic, which the parent process shares), the peak resident
memory of this process and, in trace mode, the spans.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    record_path, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--" or mode not in ("run", "probe", "trace"):
        raise SystemExit("usage: child.py RECORD run|probe|trace -- ARGS")
    import wavedet
    from wavedet import cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.instrument(wavedet)
    marks = {}

    def marked(handler):
        def entered(run):
            marks["entry"] = time.monotonic()
            if mode == "probe":
                return ""
            return handler(run)
        if tracer is not None:
            return tracer.wrap("cli.command", entered)
        return entered

    for name, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[name] = marked(handler)
    code = cli.main(sys.argv[4:])
    sys.stdout.flush()
    marks["done"] = time.monotonic()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"exit": code, "marks": marks, "peak_rss_mb": peak_kib / 1024,
              "trace": tracer.dump() if tracer is not None else None}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
