"""Benchmark worker: one fresh, single-threaded interpreter per run.

    python3 worker.py --ready
        import the CLI, print "ready" and exit (one cold start)
    python3 worker.py PLAN RESULT SECONDS TRACE
        import the CLI, print "ready", then run the plan in-process through
        topinv.cli.main and write every op's record to RESULT

Rounds repeat the workload's op list until SECONDS have passed, finishing
at least one round.  The reference kernel of speed.py runs between ops, and
its times are returned with the ops' start and end times.  With TRACE 1
every op runs twice, untraced and traced, so the traced run also measures
its own overhead.  An op that overruns its
budget is stopped by SIGALRM and recorded as a timeout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; not an Exception, so nothing in the
    program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


def run_op(cli, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, op["budget_s"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
    except OpTimeout:
        status = "timeout"
    except Exception as e:      # recorded and counted as failed by the gate
        status = "error"
        err.write(f"{type(e).__name__}: {e}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {"kind": op["kind"], "status": status, "exit": code,
            "wall_s": wall, "budget_s": op["budget_s"],
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_plan(cli, plan: dict, seconds: float, trace: bool) -> dict:
    from speed import REF_KERNEL_S, kernel_s
    from tracer import Tracer
    tracer = Tracer() if trace else None
    rounds = plan["rounds"]
    warmup = run_op(cli, plan["reference"])
    ops, done = [], []          # done: one entry per complete round
    start = time.perf_counter()
    kernels = [(0.0, kernel_s())]   # (seconds since start, kernel seconds)
    r = 0
    while True:
        inst = r % len(rounds)
        if trace:
            tracer.reset()
            tracer.keep_spans = r == 0
        first = len(ops)
        t_round = time.perf_counter()
        for j, op in enumerate(rounds[inst]):
            # stop at the deadline once a round is complete
            if time.perf_counter() - start >= seconds and done:
                break
            # traced: run the op untraced and traced back to back, in
            # alternating order, so their difference is the overhead
            modes = ((False,) if not trace
                     else (False, True) if j % 2 == 0 else (True, False))
            for traced in modes:
                if traced:
                    tracer.op_id = len(ops)
                    tracer.install()
                t0 = time.perf_counter() - start
                try:
                    rec = run_op(cli, op)
                finally:
                    if traced:
                        tracer.uninstall()
                rec.update(round=r, instance=inst, index=j, traced=traced,
                           t0=t0, t1=t0 + rec["wall_s"])
                ops.append(rec)
                kernels.append((time.perf_counter() - start, kernel_s()))
        else:
            walls = {False: 0.0, True: 0.0}
            for rec in ops[first:]:
                walls[rec["traced"]] += rec["wall_s"]
            entry = {"round": r, "wall_s": time.perf_counter() - t_round,
                     "ops": len(rounds[inst]), "untraced_op_wall_s": walls[False],
                     "traced_op_wall_s": walls[True],
                     "peak_rss_mb": resource.getrusage(
                         resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if trace:
                entry["trace"] = tracer.snapshot()
            done.append(entry)
            r += 1
            continue
        break
    probe = [] if trace else [run_op(cli, op) for op in plan["probe"]]
    return {"warmup": warmup, "ops": ops, "rounds": done, "probe": probe,
            "kernels": kernels, "kernel_ref_s": REF_KERNEL_S,
            "trace_names": tracer.names if tracer else [],
            "spans": tracer.span_tree() if tracer else []}


def main(argv: list[str]) -> int:
    import topinv.cli as cli
    print("ready", flush=True)
    if argv == ["--ready"]:
        return 0
    plan_path, result_path, seconds, trace = argv
    signal.signal(signal.SIGALRM, _alarm)
    plan = json.loads(Path(plan_path).read_text())
    result = run_plan(cli, plan, float(seconds), trace == "1")
    result["topinv_file"] = cli.__file__
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
