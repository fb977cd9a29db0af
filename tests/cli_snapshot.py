"""Run a fixed set of CLI commands and keep everything they produce.

Usage::

    PYTHONPATH=src python tests/cli_snapshot.py OUTDIR

Each command runs as ``python -m zermelo.cli ... --out .`` in its own
directory under ``OUTDIR``, and its stdout, stderr and exit code are saved
there next to its output files.  A command still running after
``TIMEOUT_S`` seconds is stopped, and ``timeout`` is saved as its exit
code.  The ``zermelo`` package is the one ``PYTHONPATH`` points at (an
absolute path: each command runs in its own directory), so two checkouts
compare byte for byte with one run each and ``diff -r``::

    PYTHONPATH=$PWD/old/src python tests/cli_snapshot.py /tmp/old
    PYTHONPATH=$PWD/new/src python tests/cli_snapshot.py /tmp/new
    diff -r /tmp/old /tmp/new

The commands are the seven README historical commands plus vortex and
powerlaw commands that reach the numeric integrator, the numeric cusp
search, shooting, value scans and the cut-locus estimate, and four that
must fail with a config error before they write anything.  New commands go
at the end, so the numbered directories of the old ones keep their names.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

POWERLAW_13 = '{"family": "powerlaw", "k": 1.0, "a": -3.0, "b": 1.0}'
POWERLAW_22 = '{"family": "powerlaw", "k": 2.0, "a": -2.0, "b": 1.0}'
TIMEOUT_S = 60

COMMANDS = [  # (directory name, problem, command and its arguments)
    ("historical-classify", "historical", "classify --state 0,2,0"),
    ("historical-integrate", "historical", "integrate --state 0,2,-2.0944 --t 2"),
    ("historical-cusp", "historical", "cusp --state 0,2,-2.0944"),
    ("historical-wavefront", "historical", "wavefront --q0 0,2 --t 0.3 --n 256"),
    ("historical-ball", "historical", "ball --q0 0,2 --t 0.3 --n 96"),
    ("historical-value", "historical",
     "value --q0 0,2 --segment 1.039,1.298:0.879,1.180 --n 200"),
    ("historical-synthesis", "historical", "synthesis --q0 0,2 --t-max 2.5"),
    ("vortex-integrate-strong", "vortex", "integrate --state 0.5,0,1.1 --t 2"),
    ("vortex-integrate-centre", "vortex", "integrate --state 0.2,0,3.14159 --t 0.5"),
    ("vortex-cusp", "vortex", "cusp --state 0.5,0,-0.5235987755982991 --t-max 3"),
    ("vortex-wavefront", "vortex", "wavefront --q0 0.5,0 --t 0.3 --n 64"),
    ("vortex-ball-16", "vortex", "ball --q0 0.5,0 --t 0.15 --t-max 0.5 --n 16"),
    ("vortex-ball-32", "vortex", "ball --q0 0.5,0 --t 0.15 --t-max 0.5 --n 32"),
    ("vortex-synthesis", "vortex", "synthesis --q0 0.5,0 --n 32"),
    ("powerlaw13-integrate", POWERLAW_13, "integrate --state 0.5,0,0.9 --t 1 --tol 1e-9"),
    ("powerlaw13-cusp", POWERLAW_13, "cusp --state 0.5,0,-0.2526802551420788"),
    ("powerlaw13-wavefront", POWERLAW_13, "wavefront --q0 0.5,0 --t 0.3 --n 64"),
    ("powerlaw22-synthesis", POWERLAW_22, "synthesis --q0 1.5,0 --n 32"),
    # value scans over shooting grids with dense rows: no front time bounds them
    ("vortex-value", "vortex", "value --q0 0.5,0 --segment 0.6,0.1:0.55,0.3 --n 40 --t-max 1"),
    ("powerlaw13-value", POWERLAW_13,
     "value --q0 0.5,0 --segment 0.55,0.1:0.6,0.3 --n 40 --t-max 1"),
    # error paths: a non-finite tolerance or time
    ("historical-value-tol-nan", "historical",
     "value --q0 0,2 --segment 1.039,1.298:0.879,1.180 --n 200 --tol nan"),
    ("vortex-wavefront-t-inf", "vortex", "wavefront --q0 0.5,0 --t inf --n 8"),
    ("historical-cusp-t-max-nan", "historical", "cusp --state 0,2,2.0944 --t-max nan"),
    ("historical-classify-tol-inf", "historical", "classify --state 0,0.5,1 --tol inf"),
    # a front of fewer lanes than the lane kernel's TAIL_LANES: all in the scalar stepper
    ("vortex-wavefront-12", "vortex", "wavefront --q0 0.5,0 --t 0.3 --n 12"),
    # a cut-locus estimate that confirms separating points while its later
    # fronts lose lanes to the vortex core and are skipped
    ("vortex-synthesis-07", "vortex", "synthesis --q0 0.7,0 --n 32"),
]


def snapshot(outdir: Path) -> None:
    for i, (name, problem, command) in enumerate(COMMANDS, start=1):
        work = outdir / f"{i:02d}-{name}"
        work.mkdir(parents=True)
        sub, *args = command.split()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "zermelo.cli", sub, "--problem", problem, *args,
                 "--out", "."],
                cwd=work, capture_output=True, timeout=TIMEOUT_S,
            )
            stdout, stderr, code = done.stdout, done.stderr, done.returncode
        except subprocess.TimeoutExpired as exc:
            stdout, stderr, code = exc.stdout or b"", exc.stderr or b"", "timeout"
        (work / "stdout.txt").write_bytes(stdout)
        (work / "stderr.txt").write_bytes(stderr)
        (work / "exit_code.txt").write_text(f"{code}\n")
        print(f"{work.name}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_snapshot.py OUTDIR")
    snapshot(Path(sys.argv[1]))
