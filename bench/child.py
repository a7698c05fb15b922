"""Fresh-process probes started by run.py, so earlier work cannot skew them.

    python3 child.py setup SRC
        Import gapembed from SRC and build the CLI parser; print the seconds
        that took, then the path gapembed was imported from.
    python3 child.py rss SRC CALLS_JSON
        Run each argv in CALLS_JSON through gapembed.cli.main once, output
        discarded; print the exit codes, then the peak resident set in KiB.

Only sys and time are imported before the setup probe starts its clock, so
every module gapembed pulls in is paid for inside the measurement.
"""

import sys
import time


def main() -> int:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if mode == "setup":
        t0 = time.perf_counter()
        import gapembed.cli

        gapembed.cli.build_parser()
        elapsed = time.perf_counter() - t0
        print(repr(elapsed))
        print(gapembed.__file__)
        return 0

    import json
    import os
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    import gapembed.cli

    with open(sys.argv[3], encoding="utf-8") as fh:
        calls = json.load(fh)
    codes = []
    with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(null):
        for argv in calls:
            codes.append(gapembed.cli.main(argv))
    print(json.dumps(codes))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
