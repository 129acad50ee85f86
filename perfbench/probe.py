"""Fresh-interpreter probes, started by run.py with ``src`` on PYTHONPATH.

    python3 probe.py setup INPUT
        import stehbein and load INPUT, as every ``stehbein verify`` does first;
        the caller times the whole process, interpreter start-up included.
    python3 probe.py rss INPUT MAX_ORDER SEED REPORT
        run one ``verify`` and print {"rc": exit code, "maxrss_kib": peak RSS}.

Only the standard library and stehbein are imported, so the probe's own
imports do not inflate what it measures.
"""

import contextlib
import io
import json
import resource
import sys


def main(argv) -> int:
    mode, path = argv[0], argv[1]
    if mode == "setup":
        import stehbein
        from stehbein.io import load_input
        load_input(path)
        return 0
    if mode == "rss":
        from stehbein import cli
        max_order, seed, report = argv[2:5]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", path, "--max-order", max_order,
                           "--seed", seed, "--report", report])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"rc": rc, "maxrss_kib": peak}))
        return 0
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
