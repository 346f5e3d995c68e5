"""Migration benchmark: one fresh ``unimig migrate`` process per operation.

Usage::

    python3 bench/run.py --workload music-S --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program under test is the checkout's
``src`` tree. The workload's input is generated from ``--seed`` before any
timing. Then whole rounds of processes run one at a time (a closed loop
with one client) for about ``--seconds``: a new round starts while at most
half of the previous round's duration would run past that limit. Every operation's output is checked
(``checks.py``) and must be byte-identical to the first one's.

With ``--trace 0`` a round is one migrate operation plus set-up probes
(processes that stop at the entry into ``migrate``) and the end-to-end
metrics are printed; with ``--trace 1`` a round is one untraced and one
traced operation and the per-layer metrics are printed, together with the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import northwind_gen  # noqa: E402


# Set-up probes per round of an untraced run: music-S runs only two
# operations in a run, so it takes more set-up samples from probes.
PROBES_PER_ROUND = {"music-S": 2, "northwind-big": 1, "northwind-1x": 1}


def make_input(workload: str, seed: int, out: Path) -> None:
    if workload == "music-S":
        sys.path.insert(0, str(SRC))
        from unimig.datagen import ScaleSpec, generate_dataset

        generate_dataset(ScaleSpec("S", seed), out)
    elif workload == "northwind-big":
        northwind_gen.generate(out, northwind_gen.MAX_MULTIPLE, seed)
    else:
        northwind_gen.generate(out, 1, seed)


def count_rows(dataset: Path) -> tuple[int, int]:
    """Data rows (each once) and bytes of the dataset's CSV files."""
    rows = size = 0
    for path in sorted(dataset.glob("*.csv")):
        size += path.stat().st_size
        with open(path, newline="", encoding="utf-8") as handle:
            rows += sum(1 for _ in csv.reader(handle)) - 1
    return rows, size


@dataclass
class Sample:
    kind: str  # op | probe | traced
    ok: bool
    spawned: float
    wall_s: float
    stamps: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    out_dir: Path | None = None
    error: str = ""


class Runner:
    def __init__(self, dataset: Path, work: Path):
        self.dataset = dataset
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0
        self.first_digest: str | None = None
        self.first_out: Path | None = None

    def spawn(self, mode: str) -> Sample:
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        stamps_path = self.work / f"stamps{self.count}.json"
        err_path = self.work / f"stderr{self.count}.txt"
        argv = [sys.executable, str(BENCH / "launch.py"), mode, str(stamps_path),
                "--", "migrate", "--source", str(self.dataset),
                "--out", str(out_dir)]
        with open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        kind = {"run": "op", "probe": "probe", "trace": "traced"}[mode]
        sample = Sample(kind, proc.returncode == 0, spawned, ended - spawned,
                        rss_mb=usage.ru_maxrss / 1024.0,
                        cpu_s=usage.ru_utime + usage.ru_stime, out_dir=out_dir)
        if sample.ok and stamps_path.exists():
            sample.stamps = json.loads(stamps_path.read_text(encoding="utf-8"))
        else:
            sample.ok = False
            sample.error = (f"exit code {proc.returncode}: "
                            + err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
        stamps_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)
        if mode == "probe":
            shutil.rmtree(out_dir, ignore_errors=True)
        elif sample.ok:
            self._compare_output(sample)
        return sample

    def _compare_output(self, sample: Sample) -> None:
        """Keep the first operation's output for the full check; later ones
        must match it byte for byte."""
        digest = checks.output_digest(sample.out_dir)
        if self.first_digest is None:
            self.first_digest, self.first_out = digest, sample.out_dir
            return
        if digest != self.first_digest:
            sample.ok = False
            sample.error = "output differs from the first operation's"
        shutil.rmtree(sample.out_dir, ignore_errors=True)


def run_rounds(runner: Runner, round_modes: list[str], seconds: float,
               seed: int) -> list[Sample]:
    """The order within a round flips from round to round, starting from
    the seed's parity, so that a drift in the machine's speed favours
    neither kind of process (traced against untraced operations above all)."""
    samples: list[Sample] = []
    started = time.monotonic()
    last_round = 0.0
    rounds = seed
    while not samples or time.monotonic() - started + last_round / 2 <= seconds:
        round_started = time.monotonic()
        for mode in round_modes[::-1] if rounds % 2 else round_modes:
            samples.append(runner.spawn(mode))
        rounds += 1
        last_round = time.monotonic() - round_started
    return samples


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _metric(value: float, unit: str) -> dict:
    return {"value": None if value != value else value, "unit": unit}  # NaN: no samples


def end_to_end(samples: list[Sample], rows: int) -> dict:
    ops = [s for s in samples if s.ok and s.kind == "op"]
    setups = [s.stamps["migrate_entered"] - s.spawned
              for s in samples if s.ok and s.kind in ("op", "probe")]
    return {
        "setup_s": _metric(_median(setups), "s"),
        "wall_s": _metric(_median([s.wall_s for s in ops]), "s"),
        "rows_per_s": _metric(_median([
            rows / (s.stamps["migrate_exited"] - s.stamps["migrate_entered"])
            for s in ops]), "1/s"),
        "peak_rss_mb": _metric(_median([s.rss_mb for s in ops]), "MB"),
    }


def per_layer(samples: list[Sample], rows: int, src_bytes: int,
              out_bytes: int) -> dict:
    traced = [s for s in samples if s.ok and s.kind == "traced"]
    plain = [s for s in samples if s.ok and s.kind == "op"]

    def layer(name: str, index: int) -> list[float]:
        return [s.stamps["layers"].get(name, [0, 0.0, 0.0])[index] for s in traced]

    def total(name: str) -> float:
        return _median(layer(name, 1))

    def self_time(*names: str) -> float:
        return _median([sum(v) for v in zip(*(layer(n, 2) for n in names))])

    def stamp(key: str) -> list[float]:
        return [s.stamps[key] for s in traced]

    return {
        "cli.import_s": _metric(_median([s.stamps["imported"] - s.spawned
                                         for s in traced]), "s"),
        "cli.import_rss_mb": _metric(_median([k / 1024.0 for k in
                                              stamp("import_rss_kb")]), "MB"),
        "relational.parse_ddl_s": _metric(total("parse_ddl"), "s"),
        "transforms.rel_to_us_s": _metric(total("rel_to_uschema"), "s"),
        "transforms.us_to_doc_s": _metric(total("uschema_to_document"), "s"),
        "trace.links": _metric(_median(stamp("trace_links")), "count"),
        "trace.save_s": _metric(total("save_trace"), "s"),
        "source.open_s": _metric(total("open_source"), "s"),
        "source.related_s": _metric(self_time("related_by_name"), "s"),
        "source.related_calls": _metric(_median(layer("related_by_name", 0)),
                                        "count"),
        "source.records_per_row": _metric(_median([r / rows for r in
                                                   stamp("records_read")]), "ratio"),
        "source.advance_s": _metric(self_time("advance"), "s"),
        "source.peak_live_records": _metric(_median(stamp("peak_live_records")),
                                            "count"),
        "migrator.migrate_s": _metric(total("migrate"), "s"),
        "migrator.build_s": _metric(self_time("migrate", "compile_plan",
                                              "read_entity_all"), "s"),
        "migrator.write_s": _metric(total("write_batch"), "s"),
        "migrator.write_calls": _metric(_median(layer("write_batch", 0)), "count"),
        "migrator.out_bytes_per_src_byte": _metric(out_bytes / src_bytes, "ratio"),
        "document.print_s": _metric(total("print_docschema"), "s"),
        "proc.cpu_s": _metric(_median([s.cpu_s for s in plain]), "s"),
        "bench.trace_overhead_s": _metric(
            _median([s.wall_s for s in traced]) - _median([s.wall_s for s in plain]),
            "s"),
    }


def _jsonl_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.glob("*.jsonl"))


def main() -> int:
    parser = argparse.ArgumentParser(description="unimig migration benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PROBES_PER_ROUND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "unimig" / "cli.py").exists():
        sys.stderr.write(f"error: no program source under {SRC}\n")
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        dataset = work / "input"
        make_input(args.workload, args.seed, dataset)
        rows, src_bytes = count_rows(dataset)
        runner = Runner(dataset, work)
        warm = runner.spawn("probe")  # warms the bytecode and file caches; not timed
        if not warm.ok:
            sys.stderr.write(f"error: warm-up process failed: {warm.error}\n")
            return 1
        modes = (["run", "trace"] if args.trace
                 else ["run"] + ["probe"] * PROBES_PER_ROUND[args.workload])
        samples = run_rounds(runner, modes, args.seconds, args.seed)

        errors: list[str] = []
        if runner.first_out is not None:
            count, errors = checks.check_output(dataset, runner.first_out)
            if count:
                for s in samples:  # every operation matched this output
                    if s.ok and s.kind != "probe":
                        s.ok, s.error = False, f"{count} output check errors"
        failed = [s for s in samples if not s.ok]
        for message in errors[:10] + [s.error for s in failed[:3]]:
            print(f"# {message}")
        ok_ops = [s for s in samples if s.ok and s.kind != "probe"]
        if args.trace:
            metrics = per_layer(samples, rows, src_bytes,
                                _jsonl_bytes(runner.first_out) if ok_ops else 0)
        else:
            metrics = end_to_end(samples, rows)
        counts = {k: sum(1 for s in samples if s.kind == k and s.ok)
                  for k in ("op", "probe", "traced")}
        print(f"# {args.workload} seed {args.seed}: {rows} source rows, "
              f"{src_bytes} CSV bytes; successful samples {counts}")
        for name, m in metrics.items():
            print(f"# {name} = {m['value']} {m['unit']}")
        print(json.dumps({"correct": bool(ok_ops), "attempted": len(samples),
                          "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
