"""Benchmark of the `wavedet` det, evans and locate commands.

    python3 perfbench/run.py --workload det_pt800 --seed 1 --seconds 20 \
        --trace 0

Runs the chosen workload through the `wavedet` command line, in whole
rounds, until --seconds have passed: one child process per command and one
command at a time.  No thread flag and no BLAS environment variable is
set, so the command's default worker pool is part of what is measured.
Every output row is checked against the oracle in workloads.py after the
timed rounds.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones:

    setup_s      median time from process start until the command can
                 evaluate its first lambda (imports, argument parsing,
                 config resolution), over the set-up probes and the real
                 commands of the run
    wall_s       median time of a command's work, from then until its
                 output is written
    peak_rss_mb  median peak resident memory of a command's process

With --trace 1 the commands run with spans and counters (tracer.py) and
the metrics are the per-layer ones of one round: counts, which repeat in
every round, and times, the median over the run's rounds.  The spans go to
perfbench/out/spans-<workload>-seed<seed>.jsonl and a record of every
sample to perfbench/out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_LIMIT = 170.0    # seconds; a run and all of its children end within it

sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import EXACT, PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark cannot go on; no result is printed."""


class Runner:
    """Launches the `wavedet` processes of one workload."""

    def __init__(self, workload, trace: bool, deadline: float):
        self.workload = workload
        self.trace = trace
        self.deadline = deadline
        self.invocations = workload.invocations()
        self.work = os.path.join(OUT, f"work-{workload.name}")
        os.makedirs(self.work, exist_ok=True)
        self.configs = []
        for i, inv in enumerate(self.invocations):
            path = os.path.join(self.work, f"config{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inv.config, fh)
            self.configs.append(path)

    def launch(self, index: int, mode: str) -> dict:
        inv = self.invocations[index]
        record = os.path.join(self.work, "record.json")
        output = os.path.join(self.work, "output.json")
        for path in (record, output):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, os.path.join(HERE, "child.py"), record, mode,
                "--", inv.command, "--config", self.configs[index],
                "--output", output]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(
                timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"wavedet {inv.command} did not finish within "
                             f"{RUN_LIMIT:.0f} s of the run's start")
        err = err.decode(errors="replace")[-2000:]
        if proc.returncode not in (0, 2, 3) or not os.path.exists(record):
            raise BenchError(f"wavedet {inv.command} exited "
                             f"{proc.returncode}:\n{err}")
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
        marks = rec["marks"]
        sample = {"mode": mode, "index": index, "exit": proc.returncode,
                  "peak_rss_mb": rec["peak_rss_mb"], "trace": rec["trace"]}
        if "entry" in marks:
            sample["setup_s"] = marks["entry"] - start
            sample["wall_s"] = marks["done"] - marks["entry"]
        if proc.returncode != 0:
            sample["stderr"] = err
        elif mode != "probe":
            with open(output, encoding="utf-8") as fh:
                sample["doc"] = json.load(fh)
        return sample

    def round(self) -> list[dict]:
        """Set-up probes (untraced runs only), then every invocation."""
        samples = []
        if not self.trace:
            samples += [self.launch(0, "probe")
                        for _ in range(self.workload.probes)]
        mode = "trace" if self.trace else "run"
        samples += [self.launch(i, mode)
                    for i in range(len(self.invocations))]
        return samples


def _check(workload, invocations, rounds):
    """(attempted, failed, correct) over every real command of the run."""
    attempted = failed = 0
    correct = True
    for samples in rounds:
        for s in samples:
            if s["mode"] == "probe":
                continue
            ops = invocations[s["index"]].ops
            attempted += ops
            if s["exit"] != 0:
                failed += ops
                print(f"perfbench: exit {s['exit']}: {s['stderr']}",
                      file=sys.stderr)
                continue
            try:
                problems = workload.check(s["index"], s["doc"])
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed output ({exc!r})"] * ops
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
            failed += len(problems)
            correct = correct and not problems
    return attempted, failed, correct


def _end_to_end(rounds):
    samples = [s for r in rounds for s in r]
    real = [s for s in samples if s["mode"] != "probe" and s["exit"] == 0]
    if not real:
        raise BenchError("no command of the run succeeded")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples
                                     if "setup_s" in s),
        "wall_s": statistics.median(s["wall_s"] for s in real),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in real),
    }


def _per_layer(rounds, spans_path):
    per_round = []
    with open(spans_path, "w", encoding="utf-8") as fh:
        for r, samples in enumerate(rounds):
            dumps = [s["trace"] for s in samples if s["exit"] == 0]
            per_round.append(layer_metrics(dumps))
            for inv, dump in enumerate(dumps):
                for sid, parent, thread, name, t0, t1 in dump["spans"]:
                    fh.write(json.dumps(
                        {"round": r, "invocation": inv, "id": sid,
                         "parent": parent, "thread": thread, "name": name,
                         "start": t0, "end": t1}) + "\n")
    for name in EXACT:
        seen = {m[name] for m in per_round}
        if len(seen) > 1:
            print(f"perfbench: {name} differs between rounds: "
                  f"{sorted(seen)}", file=sys.stderr)
    return {name: (per_round[0][name] if name in EXACT
                   else statistics.median(m[name] for m in per_round))
            for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "wavedet", "cli.py")):
        print("perfbench: src/wavedet not found next to perfbench/",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    runner = Runner(workload, trace, started + RUN_LIMIT)
    try:
        runner.launch(0, "probe")   # byte-compile and warm the file cache
        rounds = []
        loop = time.monotonic()
        while not rounds or time.monotonic() - loop < args.seconds:
            rounds.append(runner.round())
        attempted, failed, correct = _check(workload, runner.invocations,
                                            rounds)
        tag = f"{workload.name}-seed{args.seed}"
        if trace:
            metrics = _per_layer(rounds,
                                 os.path.join(OUT, f"spans-{tag}.jsonl"))
            units = dict(PER_LAYER)
        else:
            metrics = _end_to_end(rounds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "metrics": metrics,
                   "samples": [[{k: v for k, v in s.items()
                                 if k not in ("doc", "trace")}
                                for s in r] for r in rounds]}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name],
                                         "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
