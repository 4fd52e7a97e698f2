"""Fresh-interpreter probes, run as child processes of run.py.

    python3 probe.py setup SRC CONFIG [-- ARG...]...
        time the import of periodyn.cli, then parsing and validating CONFIG;
        then run ``periodyn.cli.main(ARGs)`` once for each ``--`` group of
        ARGs, in order, and time each
    python3 probe.py lp SRC CONFIG
        certify CONFIG and report the size of the weight LP

Each prints one JSON object, with the peak RSS of the probe's process.
A set-up probe also times ``calibrate()`` after the set-up and after each
command, so that run.py can tell how fast the host ran around each timing.
Every probe is its own interpreter, as when a user runs the CLI: import is
cold, and each command is the first of its kind in the process.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM belongs to the current address space only; ru_maxrss would also
    carry the RSS of the parent at the moment this process was forked.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_cli(src: str):
    sys.path.insert(0, src)
    import periodyn.cli as cli
    here = os.path.dirname(os.path.abspath(cli.__file__))
    if here != os.path.join(os.path.abspath(src), "periodyn"):
        raise SystemExit(f"imported periodyn from {here}, not from {src}")
    return cli


def calibrate() -> float:
    """Time a fixed piece of work that does not involve periodyn.

    Python-level function calls, float arithmetic and list indexing (as in
    a history lookup), then small-array numpy calls: the two kinds of work
    periodyn's commands spend their time in.  About 25 ms on an idle host
    (see run.CALIBRATION_REF_S).
    """
    import numpy as np
    start = time.perf_counter()
    nodes = [i * 0.5 for i in range(256)]

    def lookup(t: float) -> float:
        i = int(t)
        return nodes[i & 255] + (t - i) * 0.25

    acc = 0.0
    for k in range(100000):
        acc += lookup(k * 0.37) * 1e-3 - acc * 1e-6
    a = np.arange(64.0)
    for _ in range(3000):
        a = np.sin(a) * 0.5 + a * 0.5
    return time.perf_counter() - start


def _main_captured(cli, argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def setup(src: str, config: str, *argv: str) -> dict:
    if argv and argv[0] != "--":
        raise SystemExit(__doc__)
    cli = _import_cli(src)
    t1 = time.perf_counter()
    with open(config, "r", encoding="utf-8") as fh:
        model = cli.parse_config(fh.read(), source=config)
    t2 = time.perf_counter()
    report = cli.validate(model)
    t3 = time.perf_counter()
    if not report.ok:
        raise SystemExit("validation failed: " + "; ".join(report.violations))
    row = {"import_s": t1 - T0, "parse_s": t2 - t1, "validate_s": t3 - t2,
           "total_s": t3 - T0, "calibration_s": [calibrate()]}
    commands: list = []
    for arg in argv:
        if arg == "--":
            commands.append([])
        else:
            commands[-1].append(arg)
    row["commands"] = []
    for command in commands:
        start = time.perf_counter()
        code, stdout = _main_captured(cli, command)
        row["commands"].append({"seconds": time.perf_counter() - start, "code": code,
                                "stdout": stdout})
        row["calibration_s"].append(calibrate())
    row["peak_rss_mb"] = peak_rss_mb()
    return row


def lp(src: str, config: str) -> dict:
    cli = _import_cli(src)
    certify = sys.modules["periodyn.certify"]
    sizes = []
    linprog = certify.linprog

    def recording_linprog(c, A_ub=None, *args, **kwargs):
        sizes.append((int(A_ub.shape[0]), int(A_ub.nbytes)))
        return linprog(c, A_ub, *args, **kwargs)

    certify.linprog = recording_linprog
    code, stdout = _main_captured(cli, ["certify", config])
    if code != 0 or json.loads(stdout)["results"].get("certified") is not True or not sizes:
        raise SystemExit(f"certify exited {code} without a certificate")
    rows, nbytes = max(sizes)
    return {"lp_rows": rows, "lp_bytes": nbytes, "peak_rss_mb": peak_rss_mb()}


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] not in ("setup", "lp") \
            or (sys.argv[1] == "lp" and len(sys.argv) != 4):
        raise SystemExit(__doc__)
    probe = setup if sys.argv[1] == "setup" else lp
    print(json.dumps(probe(*sys.argv[2:])))
