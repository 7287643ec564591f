"""One benchmark job, run in a fresh interpreter as a CLI user pays for it.

Reads a JSON spec on stdin: {"src": <dir holding taskcodes>, "calls": [argv,
...], "trace": bool}.  Times the import of taskcodes, runs every call through
`taskcodes.cli.main` with stdout and stderr captured, and prints one JSON
result on stdout.  The working directory holds the job's input files.
"""
import contextlib
import io
import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss would also count the
    parent's RSS, which Linux carries over from fork across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    from taskcodes.cli import main as cli_main
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.span("cli.main", cli_main)

    calls = []
    main_s = 0.0  # time inside main() only, so traced layer self times add up to it
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t1 = time.perf_counter()
            rc = cli_main(argv)
            main_s += time.perf_counter() - t1
        calls.append({"stdout": out.getvalue(), "stderr": err.getvalue(), "rc": rc})

    result = {
        "setup_s": setup_s,
        "main_s": main_s,
        "maxrss_kb": peak_rss_kb(),
        "calls": calls,
    }
    if tracer is not None:
        t2 = time.perf_counter()
        result["metrics"] = tracer.metrics()
        result["spans"] = [[name, name.split(".")[0], *rec]
                           for name, rec in zip(tracer.names, tracer.spans)]
        result["missing"] = tracer.missing
        result["report_s"] = time.perf_counter() - t2  # the tracer's own summing up
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
