#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of the uu
report pipeline on three workloads.

    python3 e2ebench/run.py --workload fast-cold --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the worker package in this
directory (`cargo build --release`, into `$CARGO_TARGET_DIR`, by default
`.bench_build`) and runs the worker in a fresh directory under
`.e2ebench/`, with every `UU_*` variable cleared and `UU_JOBS=1`.
`fast-cold` starts one worker per rep until `--seconds` have passed;
`fast-warm` and `sim-arch` run their set-ups and then `--seconds` of reps
in one worker. `wall_s` is the run's fastest rep (for `fast-cold`, the
median of its few long reps), `setup_s` the median of its set-ups.

With `--trace 0` the last line of standard output is a JSON object with
the `end_to_end` metrics of `BENCHMARK.json`; with `--trace 1` every rep
is followed by a traced replay of it, and the object holds the
`per_layer` metrics. `--workload all` runs the three workloads in turn
and prints their metrics under `<workload>.<metric>`.

A run is `correct` only if every rep's reports match the committed
`results-fast/`, the deterministic counts and checksums repeat exactly
across reps, and (traced) the replay reproduces every measurement, the
reports and the decode-cache and artifact-cache traffic of the product
path it follows.
METHOD.md explains the workloads, the metrics and the layer map.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fast-cold", "fast-warm", "sim-arch")
# fast-cold starts one worker per rep; medians need a few of them even
# when one rep outlasts --seconds, and the traced run needs two replays to
# show its counts repeat. fast-warm and sim-arch run in one worker, which
# enforces its own minimum.
MIN_COLD_REPS = 3
MIN_TRACED_COLD_REPS = 2
# How a run's reps make its wall_s. The host's noise only ever slows a rep
# down (other tenants' load on the shared cores), in spells from under a
# second to minutes. Of the dozens to hundreds of short reps of fast-warm
# and sim-arch, the fastest estimates the time without it and spreads far
# less from run to run than their median; fast-cold's three to five reps
# of several seconds each average over the spells, and the fastest of so
# few spreads more than their median (METHOD.md, Host noise).
WALL_STAT = {"fast-cold": median, "fast-warm": min, "sim-arch": min}
# A worker that has not ended by then is killed and the run fails.
WORKER_TIMEOUT_S = 170
# Counts that must repeat exactly between the reps of one run.
REP_COUNTS = ("points", "runs", "decode_hits", "decode_misses",
              "serve_hits", "serve_misses", "checksums", "geomean")
LAYER_COUNTS = ("harness.points", "kernels.builds", "core.compiles",
                "core.work_units", "core.timeouts", "core.degraded",
                "simt.runs", "simt.warp_insts", "simt.decode_hits",
                "simt.decode_misses", "serve.hits", "serve.misses",
                "serve.work_saved")


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


class Failed(Exception):
    """The benchmark could not run (as opposed to an incorrect result)."""


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise Failed("building the worker failed")
    exe = target / "release" / "uu-e2ebench"
    if not exe.is_file():
        raise Failed(f"no worker at {exe}")
    return exe


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("UU_")}
    env["UU_JOBS"] = "1"
    return env


class Run:
    """One benchmark run: a fresh area, the worker, and its checks."""

    def __init__(self, exe, area, seed, seconds):
        self.exe, self.area, self.seed, self.seconds = exe, area, seed, seconds
        self.env = clean_env()
        self.problems = []
        self.n = 0

    def worker(self, *args):
        """Run one worker; return its JSON record with its peak RSS in MB."""
        self.n += 1
        err_path = self.area / f"worker{self.n}.err"
        with open(err_path, "wb") as err:
            p = subprocess.Popen([str(self.exe), *map(str, args)], cwd=self.area,
                                 env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(WORKER_TIMEOUT_S, p.kill)
            timer.start()
            try:
                out = p.stdout.read()
                p.stdout.close()
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): stop the worker too.
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
        if p.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            raise Failed(f"worker {' '.join(map(str, args))} exited {p.returncode}:\n{tail}")
        rec = json.loads(out.decode().strip().splitlines()[-1])
        rec["rss_mb"] = usage.ru_maxrss / 1024.0
        for f in rec["failures"]:
            log(f"failed operation: {f}")
        for m in rec["mismatches"]:
            self.flag(m)
        return rec

    def flag(self, msg):
        log(f"INCORRECT: {msg}")
        self.problems.append(msg)

    def same_counts(self, reps, what, keys):
        for key in keys:
            vals = {json.dumps(r.get(key)) for r in reps}
            if len(vals) > 1:
                self.flag(f"{what}: {key} drifts between reps: {sorted(vals)}")


def table_cells(line):
    """Cells of an ascii-table row, without bar-chart cells."""
    cells = [c.strip() for c in line.strip().strip("|").split("|")]
    return tuple(c for c in cells if c.strip("#") != "")


def app_rows(text, apps):
    """The ascii-table rows of `apps` in a text report, sorted."""
    rows = (table_cells(line) for line in text.splitlines() if line.startswith("|"))
    return sorted(r for r in rows if r and r[0] in apps)


def check_reports(run, out, apps, with_indepth):
    """Compare a fast rep's reports with the committed results-fast/.

    The rep regenerates only `apps`, so a CSV must hold exactly the
    committed rows of those applications, and a text table exactly their
    committed rows; indepth.txt (which fast-warm does not write) and the
    fault report do not depend on the applications and must match byte
    for byte."""
    ref_dir = ROOT / "results-fast"
    ref_names = sorted(p.name for p in ref_dir.iterdir()
                       if with_indepth or p.name != "indepth.txt")
    got_names = sorted(p.name for p in out.iterdir())
    if got_names != ref_names:
        run.flag(f"report files {got_names} != committed {ref_names}")
        return
    for name in ref_names:
        ref = (ref_dir / name).read_text()
        got = (out / name).read_text()
        if name == "indepth.txt" or name.startswith("faults."):
            ok = got == ref
        elif name.endswith(".csv"):
            ref_lines = ref.splitlines()
            want = ref_lines[:1] + [r for r in ref_lines[1:] if r.split(",")[0] in apps]
            ok = got.splitlines() == want
        else:
            ok = app_rows(got, apps) == app_rows(ref, apps)
        if not ok:
            run.flag(f"{name} differs from results-fast/{name} for {', '.join(apps)}")


def table1_geomean(out):
    lines = (out / "table1.csv").read_text().splitlines()[1:]
    ratios = [float(r.split(",")[4]) / float(r.split(",")[6]) for r in lines]
    return math.exp(sum(map(math.log, ratios)) / len(ratios))


def worker_records(run, workload, trace):
    """The worker records of one run. fast-cold starts one worker per rep
    until --seconds have passed; fast-warm and sim-arch run their set-ups
    and then reps for --seconds in one worker."""
    recs, t0 = [], time.monotonic()
    min_reps = MIN_TRACED_COLD_REPS if trace else MIN_COLD_REPS
    while True:
        i = len(recs)
        d = run.area / f"w{i}"
        if workload == "fast-cold":
            args = ["cold", "--dir", d]
        elif workload == "fast-warm":
            args = ["warm", "--dir", d, "--seconds", run.seconds]
        else:
            args = ["sim", "--seed", run.seed, "--seconds", run.seconds]
        if trace:
            args += ["--trace", run.area / f"trace{i}.json"]
        rec = run.worker(*args)
        if workload != "sim-arch":
            # Every rep's reports were compared with the first rep's (and,
            # traced, the replay's with the product's); the last rep's are
            # left to compare with the committed ones.
            out = d / "out"
            check_reports(run, out, rec["apps"], workload == "fast-cold")
            geomean = table1_geomean(out)
            for r in rec["reps"]:
                r["geomean"] = geomean
        shutil.rmtree(d, ignore_errors=True)
        recs.append(rec)
        if workload != "fast-cold" or (
                len(recs) >= min_reps and time.monotonic() - t0 >= run.seconds):
            return recs


def end_to_end(run, workload, recs, reps):
    wall = [r["wall_s"] for r in reps]
    log(f"{workload}: {len(wall)} reps, wall_s min {min(wall):.4f} "
        f"median {median(wall):.4f} max {max(wall):.4f}")
    failed = sum(r["failed"] for r in recs)
    return {
        "wall_s": WALL_STAT[workload](wall),
        "setup_s": median([x for r in recs for x in r["setup_samples"]]),
        "peak_rss_mb": median([r["rss_mb"] for r in recs]),
        "ok_share": 1.0 - failed / sum(r["attempted"] for r in recs),
        "heuristic_speedup_geomean": median([r["geomean"] for r in reps]),
    }


def per_layer(run, workload, reps):
    for key in LAYER_COUNTS:
        vals = {r["layers"][key] for r in reps}
        if len(vals) > 1:
            run.flag(f"{workload}: layer count {key} drifts between traced reps: {sorted(vals)}")
    names = reps[0]["layers"].keys()
    layers = {k: median([r["layers"][k] for r in reps]) for k in names}
    last = max(run.area.glob("trace*.json"), key=lambda p: int(p.stem[5:]))
    (run.area.parent / f"trace-{workload}.json").write_bytes(last.read_bytes())
    log(f"{workload}: {len(reps)} traced reps, trace wall_s "
        f"{[round(r['layers']['trace.wall_s'], 4) for r in reps[:8]]}")
    return layers


def measure(exe, workload, seed, seconds, trace, spec):
    area = ROOT / ".e2ebench" / f"{workload}-{seed}-{os.getpid()}"
    if area.exists():
        shutil.rmtree(area)
    area.mkdir(parents=True)
    run = Run(exe, area, seed, seconds)
    try:
        recs = worker_records(run, workload, trace)
        reps = [r for rec in recs for r in rec["reps"]]
        run.same_counts(reps, workload, REP_COUNTS)
        values = per_layer(run, workload, reps) if trace else end_to_end(run, workload, recs, reps)
    finally:
        shutil.rmtree(area, ignore_errors=True)
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            raise Failed(f"{workload}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, v in metrics.items():
        log(f"{workload} {name} = {v['value']:.6g} {v['unit']}")
    return {"correct": not run.problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    # SIGTERM raises SystemExit, so a running worker is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "results-fast").is_dir():
            raise Failed("no results-fast/ to check the reports against")
        exe = build()
        if a.workload != "all":
            result = measure(exe, a.workload, a.seed, a.seconds, a.trace, spec)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for w in WORKLOADS:
                r = measure(exe, w, a.seed, a.seconds, a.trace, spec)
                print(json.dumps({"workload": w, **r}), flush=True)
                result["correct"] &= r["correct"]
                result["attempted"] += r["attempted"]
                result["failed"] += r["failed"]
                result["metrics"].update({f"{w}.{k}": v for k, v in r["metrics"].items()})
    except (Failed, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
