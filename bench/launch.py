"""One ``unimig`` process, as the console script runs it, with time stamps.

Usage: ``python3 bench/launch.py MODE STAMPS -- ARGS...`` runs
``unimig ARGS...`` (the benchmark passes a ``migrate`` command line) and
writes a JSON object of ``time.monotonic()`` stamps to the file STAMPS
when it ends. On Linux that clock is shared by all processes, so the
parent can subtract the moment it spawned this process.

MODE is one of

* ``run``: stamps the end of ``import unimig.cli`` and the entry into and
  exit from ``unimig.migrator.migrate``; nothing else is wrapped;
* ``probe``: stops at the entry into ``migrate`` and exits with code 0, so
  that a process samples the set-up alone;
* ``trace``: also times the calls into each layer's public functions and
  keeps per-function call counts, total and self times in memory until the
  process ends.

``PYTHONPATH`` must name the ``src`` directory of the checkout under test.
"""

import json
import resource
import sys
import time

import unimig.cli as cli  # the import is part of what gets timed

IMPORTED = time.monotonic()
IMPORT_RSS_KB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Stop(Exception):
    """Raised at the entry into migrate by a probe."""


class Tracer:
    """Wraps functions so that each call adds to per-name counts and to
    total and self time (duration minus the wrapped calls it made)."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._child_time = [0.0]  # one accumulator per open call

    def wrap(self, name: str, fn):
        agg = self.layers.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - started
                children = stack.pop()
                stack[-1] += took
                agg[0] += 1
                agg[1] += took
                agg[2] += took - children

        return traced


def _install_trace(stamps: dict) -> Tracer:
    import unimig.migrator as migrator
    from unimig.source import SourceCursor

    tracer = Tracer()
    for name in ("parse_ddl", "rel_to_uschema", "uschema_to_document",
                 "open_source", "print_docschema"):
        setattr(cli, name, tracer.wrap(name, getattr(cli, name)))

    save_trace = cli.save_trace

    def counted_save(store):
        stamps["trace_links"] = stamps.get("trace_links", 0) + len(store.links)
        return save_trace(store)

    cli.save_trace = tracer.wrap("save_trace", counted_save)

    open_source = cli.open_source

    def keep_session(*args, **kwargs):
        session = open_source(*args, **kwargs)
        stamps["session"] = session
        return session

    cli.open_source = keep_session
    for name in ("compile_plan", "read_entity_all", "write_batch"):
        setattr(migrator, name, tracer.wrap(name, getattr(migrator, name)))
    SourceCursor.related_by_name = tracer.wrap(
        "related_by_name", SourceCursor.related_by_name)
    SourceCursor.advance = tracer.wrap("advance", SourceCursor.advance)
    return tracer


def main() -> int:
    mode, stamps_path = sys.argv[1], sys.argv[2]
    if mode not in ("run", "probe", "trace") or sys.argv[3] != "--":
        sys.stderr.write(__doc__)
        return 2
    argv = sys.argv[4:]
    stamps: dict = {"imported": IMPORTED, "import_rss_kb": IMPORT_RSS_KB}
    tracer = _install_trace(stamps) if mode == "trace" else None
    migrate = cli.migrate

    def stamped_migrate(*args, **kwargs):
        stamps["migrate_entered"] = time.monotonic()
        if mode == "probe":
            raise _Stop
        try:
            return migrate(*args, **kwargs)
        finally:
            stamps["migrate_exited"] = time.monotonic()

    cli.migrate = (tracer.wrap("migrate", stamped_migrate) if tracer
                   else stamped_migrate)
    try:
        code = cli.dispatch(argv)
    except _Stop:
        code = 0
    if tracer is not None:
        session = stamps.pop("session", None)
        stamps["layers"] = tracer.layers
        if session is not None:
            stamps["records_read"] = session.records_read
            stamps["peak_live_records"] = session.peak_live_records
    with open(stamps_path, "w", encoding="utf-8") as handle:
        json.dump(stamps, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
