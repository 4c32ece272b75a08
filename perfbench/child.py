"""One CLI invocation in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py RECORD TRACE [ARG ...]

Imports `tamagawa.cli` from the checkout's `src/`, runs `cli.main(ARGS)` with
stdout and stderr untouched, then writes RECORD (JSON): import time and main
time (wall and CPU), the CPU time of the whole process up to the record,
exit code, peak resident memory and, when TRACE is 1, the spans of the
wrapped layer functions.  CPU times are those of the main thread, where all
of the package's work runs at `--jobs 1`: numpy's idle BLAS worker threads
spin for a while after they start, and their CPU time depends on whether
another core is free, not on the package.  The exit code is main's, as with the `tamagawa` console
script; an exception propagates as a traceback.  With no ARGS it only imports.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def peak_rss_kb() -> int:
    """This process's own peak resident set size (VmHWM).

    Not ru_maxrss: on Linux, exec folds the spawning process's high-water
    mark into it, so it would report the benchmark's parent process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    sys.path.insert(0, SRC)
    t0, c0 = time.perf_counter(), time.thread_time()
    import tamagawa.cli as cli
    import_s, import_cpu_s = time.perf_counter() - t0, time.thread_time() - c0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's package")
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    code = None
    main_s = main_cpu_s = 0.0
    if argv:
        t1, c1 = time.perf_counter(), time.thread_time()
        code = cli.main(argv)
        main_s, main_cpu_s = time.perf_counter() - t1, time.thread_time() - c1
        sys.stdout.flush()
    record = {
        "import_s": import_s,
        "import_cpu_s": import_cpu_s,
        "main_s": main_s,
        "main_cpu_s": main_cpu_s,
        # The main thread's CPU time since the process started: interpreter
        # start-up, import, main and writing the report.
        "cpu_s": time.thread_time(),
        "exit": code,
        "peak_rss_kb": peak_rss_kb(),
        "spans": tracer.spans if tracer else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code or 0


if __name__ == "__main__":
    raise SystemExit(main())
