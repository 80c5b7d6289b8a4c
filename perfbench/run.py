#!/usr/bin/env python3
"""Simulator throughput and per-layer cost of the TLP reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload bfs-1c|mix-4c|grid --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

Builds the in-process harness (`perfbench/`, a Cargo package of its own)
and the `tlp_repro` CLI (the repository's own workspace) into
`$CARGO_TARGET_DIR` (default `.bench_build`), measures the workload for
about S seconds, checks the outputs, and prints one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
Without `--workload` it measures every workload in both modes and prints
one table, exiting 1 unless every correctness gate passed.
Scratch files live under `.bench_work/` and are removed on exit. See
perfbench/README.md for every metric, workload and correctness gate.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bfs-1c", "mix-4c", "grid")

# The grid: fig3 (16 four-core cells) and fig10 (40 single-core cells) at
# --test scale, 25 K measured instructions per core.
GRID_EXPERIMENTS = ("fig3", "fig10")
GRID_CELLS = 56
GRID_INSTRUCTIONS = 40 * 25_000 + 16 * 4 * 25_000

DRAM = 3  # Level::Dram's index in the per-level report arrays
MIN_PAIRS = 3  # fewest runs per engine behind a median, so at least 6 set-ups


class BenchError(Exception):
    """A failure that voids the run: no result line, exit code 1."""


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def build():
    """Builds both binaries; returns the release directory."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    release = ROOT / env["CARGO_TARGET_DIR"] / "release"
    for manifest, extra in (
        (BENCH / "Cargo.toml", []),
        (ROOT / "Cargo.toml", ["-p", "tlp_serve", "--bin", "tlp_repro"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return release


def run_child(cmd, cwd, on_stderr_line=None, stdout_path=None):
    """Runs a process to completion; returns (exit code, stdout text or
    None, stderr text, peak RSS in MB). The process is always reaped."""
    out = open(stdout_path, "w") if stdout_path else subprocess.PIPE
    p = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=out,
                         stderr=subprocess.PIPE, text=True)
    try:
        err = []
        if stdout_path:
            for line in p.stderr:
                if on_stderr_line:
                    on_stderr_line(line)
                err.append(line)
            text = None
        else:
            # stderr is small; drain it after stdout.
            text = p.stdout.read()
            err = p.stderr.readlines()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        if stdout_path:
            out.close()
    return p.returncode, text, "".join(err), usage.ru_maxrss / 1024.0


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def model_metrics(reports):
    """The modelled metrics, summed over every core of every report."""
    cores = [c for r in reports for c in r["cores"]]
    instr = sum(c["core"]["instructions"] for c in cores)
    dram = {k: sum(r["dram"][k] for r in reports) for k in reports[0]["dram"]}
    pf = [c["l1_prefetch"] for c in cores]
    useful = sum(sum(p["useful_by_level"]) for p in pf)
    useless = sum(sum(p["useless_by_level"]) for p in pf)
    issued = [c["offchip"]["issued_outcome"] for c in cores]
    return {
        # Summed-over-cores IPC of each report, averaged over reports.
        "ipc": statistics.fmean(
            sum(ratio(c["core"]["instructions"], c["core"]["cycles"]) for c in r["cores"])
            for r in reports),
        "dram_txn_pki": ratio(dram["reads"] + dram["spec_reads"] + dram["writes"], instr, 1e3),
        "l1d.mpki": ratio(sum(c["l1d"]["demand_misses"] for c in cores), instr, 1e3),
        "l2.mpki": ratio(sum(c["l2"]["demand_misses"] for c in cores), instr, 1e3),
        "llc.mpki": ratio(sum(r["llc"]["demand_misses"] for r in reports), instr, 1e3),
        "l1d.mshr_stalls": sum(c["l1d"]["mshr_stalls"] for c in cores),
        "l1pf.accuracy_pct": ratio(useful, useful + useless, 100),
        "slp.drop_pct": ratio(sum(p["filtered"] for p in pf), sum(p["candidates"] for p in pf), 100),
        "flp.issue_accuracy_pct": ratio(sum(i[DRAM] for i in issued),
                                        sum(sum(i) for i in issued), 100),
        "dram.row_hit_pct": ratio(dram["row_hits"], dram["row_hits"] + dram["row_conflicts"], 100),
        "dram.spec_wasted_pct": ratio(dram["spec_wasted"], dram["spec_reads"], 100),
        "dram.read_queue_full": dram["read_queue_full"],
    }


# Layers a workload bypasses (single-cell: the run engine and trace tier)
# or cannot observe (grid: everything inside the CLI process) read 0.
IN_PROCESS_PREFIXES = ("engine.", "flp.", "slp.", "ipcp.", "spp.", "trace.", "probe.",
                       "setup.", "trace_overhead")
RUN_ENGINE_KEYS = ("run.simulated", "run.simulate_s", "run.queue_wait_s", "run.lookup_s",
                   "run.store_s", "run.worker_busy_pct", "run.mix_share_pct",
                   "tracetier.captures", "run.warm_s")


def single_cell(release, args, work):
    """bfs-1c / mix-4c: the in-process harness does the measuring."""
    code, out, err, rss = run_child(
        [release / "tlp_perfbench", "--workload", args.workload, "--seed", args.seed % 2**64,
         "--seconds", args.seconds, "--trace", args.trace, "--min-pairs", MIN_PAIRS,
         "--work-dir", work], cwd=ROOT)
    sys.stderr.write(err)
    if code != 0:
        raise BenchError(f"tlp_perfbench exited with {code}")
    res = json.loads(out.strip().splitlines()[-1])
    metrics = dict(res["metrics"])
    model = model_metrics(res["reports"])
    if args.trace:
        metrics.update({k: v for k, v in model.items() if k not in ("ipc", "dram_txn_pki")})
        metrics.update(dict.fromkeys(RUN_ENGINE_KEYS, 0.0))
    else:
        metrics.update(ipc=model["ipc"], dram_txn_pki=model["dram_txn_pki"], peak_rss_mb=rss)
    return res["attempted"], res["failed"], metrics


def summary_line(text, tag):
    """`key=value` fields of the `# tag:` line of a CLI run."""
    for line in text.splitlines():
        if line.startswith(f"# {tag}:"):
            return dict(re.findall(r"(\w+)=([\w.%]+)", line))
    raise BenchError(f"tlp_repro printed no '# {tag}:' line")


def field(obj, *path, what="--profile artifact"):
    for key in path:
        try:
            obj = obj[key]
        except (KeyError, IndexError, TypeError):
            raise BenchError(f"{what} lacks {'.'.join(map(str, path))}") from None
    return obj


def histogram_seconds(profile, name):
    for m in field(profile, "metrics"):
        if m.get("name") == name:
            return field(m, "sum") / 1e9
    raise BenchError(f"--profile artifact lacks histogram {name}")


class Grid:
    """Cold and warm `tlp_repro` runs of the figure grid."""

    def __init__(self, release, work):
        self.repro = release / "tlp_repro"
        self.perfbench = release / "tlp_perfbench"
        self.readings = []
        self.work = work
        self.jobs = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.tables = None
        self.reports = None
        self.n = 0

    def invoke(self, engine, run_dir):
        """One CLI run on `run_dir`'s cache and trace dirs."""
        self.n += 1
        stdout = run_dir / f"out-{self.n}.txt"
        profile = run_dir / f"profile-{self.n}.json"
        start = time.perf_counter()
        ready = []

        def on_line(line):
            # The session is built when the CLI announces its scale.
            if not ready and line.startswith("# scale"):
                ready.append(time.perf_counter() - start)

        code, _, err, rss = run_child(
            [self.repro, "--test", "--jobs", self.jobs, "--engine", engine,
             "--cache-dir", run_dir / "cache", "--trace-dir", run_dir / "traces",
             "--profile", profile, *GRID_EXPERIMENTS],
            cwd=run_dir, on_stderr_line=on_line, stdout_path=stdout)
        wall = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(err)
            raise BenchError(f"tlp_repro --engine {engine} exited with {code}")
        if not ready:
            raise BenchError("tlp_repro printed no '# scale' line")
        text = stdout.read_text()
        return {
            "wall": wall, "setup": ready[0], "rss": rss, "text": text,
            "tables": "".join(l for l in text.splitlines(True) if not l.startswith("#")),
            "engine": summary_line(text, "run-engine"),
            "store": summary_line(text, "trace-store"),
            "profile": json.loads(profile.read_text()),
        }

    def yardstick(self):
        """`tlp_perfbench --yardstick`: one reading's seconds (the median of
        three passes), a pass's nominal seconds and the sensitivity; see
        src/yardstick.rs."""
        code, out, err, _ = run_child([self.perfbench, "--yardstick"], cwd=self.work)
        if code != 0:
            sys.stderr.write(err)
            raise BenchError(f"tlp_perfbench --yardstick exited with {code}")
        res = json.loads(out)
        self.readings.append(res["reading_s"])
        return res

    def gate(self, run, simulated, run_dir=None):
        """Counts the run's cells; all fail when any check fails."""
        ok = int(field(run["engine"], "simulated", what="'# run-engine:'")) == simulated
        if self.tables is None:
            self.tables = run["tables"]
        ok = ok and run["tables"] == self.tables
        if run_dir is not None:
            reports = {p.name: p.read_bytes() for p in (run_dir / "cache").glob("*.json")}
            if self.reports is None:
                self.reports = reports
            ok = ok and len(reports) == GRID_CELLS and reports == self.reports
        self.attempted += GRID_CELLS
        if not ok:
            self.failed += GRID_CELLS
            print(f"grid gate failed: {run['engine']}", file=sys.stderr)

    def cold(self, engine):
        """A cold run; its `scale` takes host seconds to reference seconds
        by the yardstick passes on either side of it."""
        run_dir = self.work / f"{engine}-{self.n}"
        run_dir.mkdir(parents=True)
        before = self.yardstick()
        run = self.invoke(engine, run_dir)
        after = self.yardstick()
        # yardstick::scale, for a run between two passes.
        run["scale"] = (2 * before["nominal_s"] / (before["reading_s"] + after["reading_s"])
                        ) ** before["sensitivity"]
        self.gate(run, GRID_CELLS, run_dir)
        run["dir"] = run_dir
        return run

    def warm(self, cold):
        run = self.invoke(cold["profile"]["engine"], cold["dir"])
        self.gate(run, 0)
        return run

    def reset(self, run):
        shutil.rmtree(run["dir"])


def grid(release, args, work):
    g = Grid(release, work)
    start = time.perf_counter()
    walls = {"cycle": [], "event": []}
    raw_walls = {"cycle": [], "event": []}
    setups, raw_setups, rss, runs = [], [], [], {}
    rep = 0
    while True:
        t = time.perf_counter()
        for engine in ("cycle", "event") if rep % 2 == 0 else ("event", "cycle"):
            run = g.cold(engine)
            walls[engine].append(run["wall"] * run["scale"])
            raw_walls[engine].append(run["wall"])
            setups.append(run["setup"] * run["scale"])
            raw_setups.append(run["setup"])
            rss.append(run["rss"])
            if engine not in runs:
                runs[engine] = run
                run["warm"] = g.warm(run)
            else:
                g.reset(run)
        rep += 1
        if args.trace or (rep >= MIN_PAIRS and time.perf_counter() - start
                          + (time.perf_counter() - t) > args.seconds):
            break
    reports = [json.loads(b) for b in g.reports.values()] if g.reports else []
    if args.trace:
        cold = runs["cycle"]
        prof = cold["profile"]
        if field(prof, "run_engine", "simulated") != int(cold["engine"]["simulated"]):
            raise BenchError("--profile and '# run-engine:' disagree on simulated")
        simulate_s = histogram_seconds(prof, "run_cache_simulate_ns")
        cells = [c for c in field(prof, "cells") if field(c, "outcome") == "simulated"]
        mix_ns = sum(field(c, "total_ns") for c in cells if field(c, "label").startswith("4c|"))
        metrics = {
            "run.simulated": int(field(cold["engine"], "simulated", what="'# run-engine:'")),
            "run.simulate_s": simulate_s,
            "run.queue_wait_s": histogram_seconds(prof, "run_cache_queue_wait_ns"),
            "run.lookup_s": histogram_seconds(prof, "run_cache_lookup_ns"),
            "run.store_s": histogram_seconds(prof, "run_cache_store_ns"),
            "run.worker_busy_pct": ratio(simulate_s, g.jobs * cold["wall"], 100),
            "run.mix_share_pct": ratio(mix_ns, sum(field(c, "total_ns") for c in cells), 100),
            "tracetier.captures": int(field(cold["store"], "captures", what="'# trace-store:'")),
            "run.warm_s": cold["warm"]["wall"],
            "host.yardstick_ms": statistics.median(g.readings) * 1e3,
        }
        metrics.update({k: v for k, v in model_metrics(reports).items()
                        if k not in ("ipc", "dram_txn_pki")})
        metrics.update({n: 0.0 for n, _ in declared_metrics(True)
                        if n.startswith(IN_PROCESS_PREFIXES) and n not in metrics})
    else:
        print(f"run.py: unscaled medians: setup_s {statistics.median(raw_setups):.6f} s, "
              + ", ".join(f"sim_kips.{e} {GRID_INSTRUCTIONS / 1e3 / statistics.median(w):.3f}"
                          for e, w in raw_walls.items())
              + f"; yardstick reading {statistics.median(g.readings) * 1e3:.3f} ms",
              file=sys.stderr)
        model = model_metrics(reports)
        metrics = {
            "setup_s": statistics.median(setups),
            "sim_kips.cycle": GRID_INSTRUCTIONS / 1e3 / statistics.median(walls["cycle"]),
            "sim_kips.event": GRID_INSTRUCTIONS / 1e3 / statistics.median(walls["event"]),
            "peak_rss_mb": max(rss),
            "ipc": model["ipc"],
            "dram_txn_pki": model["dram_txn_pki"],
        }
    return g.attempted, g.failed, metrics


def measure(release, args):
    """One workload in one mode: the contract's result object."""
    declared = declared_metrics(args.trace)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        run = grid if args.workload == "grid" else single_cell
        attempted, failed, metrics = run(release, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = {n for n, _ in declared}
    if set(metrics) != names:
        raise BenchError(f"measured metrics differ from BENCHMARK.json: missing "
                         f"{sorted(names - set(metrics))}, undeclared "
                         f"{sorted(set(metrics) - names)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared},
    }


def report_all(release, args):
    """Every workload untraced, then traced, as one table; True when every
    gate passed."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            res = measure(release, args)
            ok = ok and res["correct"]
            print(f"== {args.workload} --trace {args.trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:24} {m['value']:>16.6g} {m['unit']}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="omit to run every workload, untraced and traced, as one table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        release = build()
        if args.workload is None:
            return 0 if report_all(release, args) else 1
        print(json.dumps(measure(release, args)))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
