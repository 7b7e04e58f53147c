"""Launch one ``schubmc`` command the way the console script does.

    python3 bench/clirun.py [--spans SPANS_FILE] [--probe-every S [--clock CLOCK_FILE]]
                            [--setup-only] -- ARGS...

With ``--spans`` the layer wrappers are installed before ``schubmc.cli.main``
runs, and the spans and a summary (``SPANS_FILE.json``) are written when it
returns.  With ``--probe-every`` the host-speed probe (see probe.py) runs
from the start of this script and every S seconds (S = 0: only at the start
and the end), and a snapshot of the clock, the process's wall time and its
time at reference speed without the probes, is written to CLOCK_FILE when
the command returns.  ``--setup-only`` imports ``schubmc.cli``, prints
``ready`` (with the clock's snapshot) and exits.
"""

import json
import os
import sys
import time


def option(own, name):
    return own[own.index(name) + 1] if name in own else None


def main():
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    own, cmd = argv[:split], argv[split + 1:]
    spans = option(own, "--spans")
    clock_file = option(own, "--clock")
    clock = None
    if "--probe-every" in own:
        from probe import Clock

        clock = Clock(float(option(own, "--probe-every")))
    try:
        return run(own, cmd, spans, clock)
    finally:
        if clock is not None:
            snap = clock.snapshot()
            clock.stop()
            if clock_file is not None:
                with open(clock_file, "w") as fh:
                    json.dump(snap, fh)


def run(own, cmd, spans, clock):
    t0 = time.perf_counter()
    from schubmc.cli import main as cli_main

    import_s = time.perf_counter() - t0
    if "--setup-only" in own:
        snap = json.dumps(clock.snapshot()) if clock is not None else ""
        sys.stdout.write(f"ready {snap}\n")
        return 0
    if spans is None:
        return cli_main(cmd)

    from tracer import Tracer

    tracer = Tracer(f"cli-{os.getpid()}")
    tracer.install()
    try:
        return cli_main(cmd)
    finally:
        tracer.stop()
        summary = tracer.summary()
        summary["import_s"] = import_s
        tracer.write(spans)
        with open(spans + ".json", "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
