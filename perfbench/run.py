"""topinv benchmark harness.

    python3 perfbench/run.py --workload z-orientable --seed 0 --seconds 20 --trace 0

Run from the root of a topinv source tree; the program is imported from
its ``src/``.  One run:

1. generates the workload's inputs from the seed (untimed);
2. with --trace 0, times cold starts of a fresh interpreter importing
   ``topinv.cli`` and fresh-process runs of the workload's reference op;
3. starts one single-threaded worker that drives ``topinv.cli.main`` in
   process for --seconds (see worker.py), traced when --trace 1;
4. checks every op's report with the correctness gate (gate.py);
5. writes the full record to ``perfbench/out/`` and prints the metrics,
   ending with one JSON line: correct, attempted, failed and metrics
   (end-to-end with --trace 0, per-layer with --trace 1).

Exits 1 without a result when the program cannot be found or the worker
fails.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import speed
import workloads

HERE = Path(__file__).resolve().parent
COLD_STARTS = 4        # extra cold starts per run; the worker's is one more
COLD_OPS = 4           # fresh-process runs of the reference op per run
RUN_LIMIT_S = 170      # a run never outlives this
KERNEL_WINDOW_S = 3.0  # speed samples this close to an op describe it


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cold_start(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    CLI and says so."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--ready"],
                          stdout=subprocess.PIPE, env=env, text=True) as p:
        line = p.stdout.readline()
        ready = time.perf_counter() - t0
        p.wait(timeout=60)
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError("cold start did not import topinv.cli")
    return ready


def _cold_ops(env: dict, op: dict, count: int) -> list[dict]:
    """Fresh-process ``python -m topinv.cli`` runs of an op, each between
    two runs of the cold reference kernel."""
    out = []
    kernel = speed.cold_kernel_s(env)
    for _ in range(count):
        rec = {"kind": op["kind"], "status": "ok", "budget_s": op["budget_s"]}
        t0 = time.perf_counter()
        try:
            p = subprocess.run(
                [sys.executable, "-m", "topinv.cli", *op["argv"]],
                capture_output=True, text=True, env=env,
                timeout=op["budget_s"])
            rec.update(exit=p.returncode, stdout=p.stdout,
                       stderr=p.stderr[-2000:])
        except subprocess.TimeoutExpired:
            rec.update(status="timeout", exit=None, stdout="", stderr="")
        rec["wall_s"] = time.perf_counter() - t0
        after = speed.cold_kernel_s(env)
        rec.update(kernel_s=(kernel + after) / 2,
                   kernel_ref_s=speed.REF_COLD_KERNEL_S)
        kernel = after
        out.append(rec)
    return out


def _run_worker(env, plan_path, result_path, seconds, trace, deadline):
    """Start the worker; returns its cold-start seconds once it finished."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path),
             str(result_path), str(seconds), str(trace)],
            stdout=subprocess.PIPE, env=env, text=True) as p:
        try:
            line = p.stdout.readline()
            ready = time.perf_counter() - t0
            p.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise RuntimeError("worker overran the run limit") from None
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"worker failed (exit {p.returncode})")
    return ready


def _attach_kernels(res: dict) -> None:
    """Give each worker op the median reference-kernel time measured within
    KERNEL_WINDOW_S of it: the machine's speed while it ran."""
    for o in res["ops"]:
        near = [k for t, k in res["kernels"]
                if o["t0"] - KERNEL_WINDOW_S <= t <= o["t1"] + KERNEL_WINDOW_S]
        o["kernel_s"] = statistics.median(near)
        o["kernel_ref_s"] = res["kernel_ref_s"]


def _scaled(rec: dict) -> float:
    """An op's wall time at the reference machine speed (see speed.py)."""
    return rec["wall_s"] * rec["kernel_ref_s"] / rec["kernel_s"]


def _e2e_metrics(setup, cold, res, time_of) -> dict:
    ops = [o for o in res["ops"] if o["status"] == "ok"]
    full = res["rounds"]
    by_kind: dict[str, list[float]] = {}
    for o in ops:
        by_kind.setdefault(o["kind"], []).append(time_of(o))
    kind_medians = [statistics.median(v) for v in by_kind.values()]
    in_full = [o for o in ops if o["round"] < len(full)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cold_op_s": (statistics.median(time_of(c) for c in cold), "s"),
        "ops_per_s": (len(in_full) / sum(time_of(o) for o in in_full), "1/s"),
        "op_p50_s": (statistics.median(kind_medians), "s"),
        "op_max_s": (max(kind_medians), "s"),
        "peak_rss_mb": (full[0]["peak_rss_mb"], "MB"),
    }


def _layer_metrics(res) -> dict:
    """Per-layer metrics per traced round, over complete traced rounds."""
    names = res["trace_names"]
    traced = res["rounds"]
    n = len(traced)
    out = {}
    for i, name in enumerate(names):
        out[f"{name}.self_s"] = (
            sum(r["trace"]["self_s"][i] for r in traced) / n, "s")
        out[f"{name}.calls"] = (
            sum(r["trace"]["calls"][i] for r in traced) / n, "count")
    for key in ("complexes.faces", "zlinalg.diagonalize.cells",
                "complexes.memo.hits", "complexes.memo.misses"):
        out[key] = (sum(r["trace"]["counters"][key] for r in traced) / n,
                    "count")
    out["quadforms.factor.max_digits"] = (max(
        r["trace"]["counters"]["quadforms.factor.max_digits"]
        for r in traced), "count")
    main = names.index("cli.main")
    below_cli = sum(r["trace"]["root_s"] - r["trace"]["self_s"][main]
                    for r in traced)
    traced_wall = sum(r["traced_op_wall_s"] for r in traced)
    out["trace.coverage"] = (below_cli / traced_wall, "ratio")
    out["trace.overhead_s"] = (
        (traced_wall - sum(r["untraced_op_wall_s"] for r in traced)) / n, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S

    src = Path.cwd() / "src"
    if not (src / "topinv" / "cli.py").is_file():
        return _fail(f"no topinv sources under {src}; run from the root of "
                     "a topinv checkout")
    sys.path.insert(0, str(src))
    import topinv.cli  # noqa: F401  (compiles the program before timing)

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}")
    plan = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    plan_path = HERE / "inputs" / args.workload / f"s{args.seed}" / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result_path = out_dir / f"{tag}.worker.json"
    env = _env(src)

    # cold starts and cold ops are split between before and after the
    # worker, so their medians span the run rather than one moment of it
    setup, cold = [], []
    try:
        for half in (0, 1):
            if not args.trace:
                setup += [_cold_start(env) for _ in range(COLD_STARTS // 2)]
                cold += _cold_ops(env, plan["reference"], COLD_OPS // 2)
            if half == 0:
                setup.append(_run_worker(env, plan_path, result_path,
                                         args.seconds, args.trace, deadline))
    except RuntimeError as e:
        return _fail(str(e))
    res = json.loads(result_path.read_text())
    result_path.unlink()
    if not Path(res["topinv_file"]).resolve().is_relative_to(src.resolve()):
        return _fail(f"worker imported topinv from {res['topinv_file']}")

    # correctness gate over every op that ran
    _attach_kernels(res)
    checked = ([(plan["reference"], res["warmup"], "warm-up")]
               + [(plan["reference"], c, "cold") for c in cold]
               + [(plan["rounds"][o["instance"]][o["index"]], o,
                   f"round {o['round']}")
                  for o in res["ops"]])
    failures = []
    for op, rec, where in checked:
        rec["problems"] = gate.check(op, rec)
        if rec["problems"]:
            failures.append(f"{op['kind']} ({where}): "
                            + "; ".join(rec["problems"]))
    size_problems = gate.check_sizes(plan["sizes"])
    for rec, op in zip(res["probe"], plan["probe"]):
        rec["problems"] = gate.check(op, rec)

    if args.trace:
        metrics, raw = _layer_metrics(res), {}
    else:
        metrics = _e2e_metrics(setup, cold, res, _scaled)
        raw = _e2e_metrics(setup, cold, res, lambda o: o["wall_s"])
    spans = res.pop("spans")
    if spans:
        (out_dir / f"{tag}.spans.json").write_text(json.dumps(spans))
    for o in [res["warmup"], *res["ops"], *res["probe"], *cold]:
        o.pop("stdout", None)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "sizes": plan["sizes"], "setup_s": setup, "cold_ops": cold,
              "failures": failures, "size_problems": size_problems,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "unscaled_metrics": {k: v for k, (v, _) in raw.items()},
              **res}
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1))

    attempted, failed = len(checked), len(failures)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  rounds {len(res['rounds'])}  "
          f"wall {time.perf_counter() - t_start:.1f} s")
    for name, s in plan["sizes"].items():
        print(f"  input {name}: {s}")
    for name, (v, u) in metrics.items():
        if name in raw:
            print(f"  {name:<44} {v:>14.6g} {u:<6} (unscaled {raw[name][0]:.6g})")
        elif v:
            print(f"  {name:<44} {v:>14.6g} {u}")
    print(f"  fail_frac {failed}/{attempted}")
    for line in failures + size_problems:
        print(f"  FAILED {line}")
    for rec in res["probe"]:
        print(f"  known-defect probe {rec['kind']}: {rec['status']} "
              f"(budget {rec['budget_s']} s, {rec['wall_s']:.2f} s)")
    print(json.dumps({
        "correct": not failures and not size_problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
