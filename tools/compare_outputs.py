"""Compare the CLI's outputs on this checkout with those at a git revision.

    python3 tools/compare_outputs.py <rev>

Extracts the src/ of <rev> with `git archive` into a temporary directory and
runs a fixed list of `mertens` commands against it and against this
checkout's src/, each as `python -m mertens.cli` in a temporary working
directory.  For every command it compares stdout, stderr (with each tree's
path replaced by one placeholder), the exit code and the --out file, if the
command names one.  It prints every command that differs, then a summary
line, and exits 1 if any command differs, 2 if <rev> cannot be extracted,
else 0.  It writes nothing inside the repository.

The list: `table` in text, csv and json at 1e6 and at perfbench's seed-1
`table-1e8` checkpoints, with 1 and 2 workers; `verify` at 286, 1e5 and 1e7,
with 1 and 2 workers; `estimate-b` at 1e8 and `extrapolate` at 2.5, 100 and
1e307 in every format, on stdout and through --out; the refused inputs; and,
where /dev/full exists, output that cannot be written.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ in the checkout, here or in the children
sys.path.insert(0, str(ROOT / "perfbench"))
from run import table_points  # noqa: E402  (perfbench's seeded checkpoints)

FORMATS = ("text", "csv", "json")
OUT = "out.txt"  # an --out file, relative to the command's working directory

REFUSED = [
    ["table", "--n-max", "abc"],
    ["table", "--n-max", "1.5"],
    ["table", "--n-max", "5"],
    ["table", "--n-max", "-5"],
    ["table", "--n-max", "1e13"],
    ["table", "--checkpoints", "1,10"],
    ["table", "--checkpoints", ","],
    ["table", "--n-max", "100", "--checkpoints", "50,20"],
    ["table", "--checkpoints", "10,1e3.5"],
    ["table", "--workers", "0"],
    ["table", "--workers", "65"],
    ["table", "--workers", "x"],
    ["extrapolate", "--log10-x", "zz"],
    ["extrapolate", "--log10-x", "0.3"],
    ["extrapolate", "--log10-x", "nan"],
    ["verify", "--n-max", "100"],
    ["estimate-b", "--n-max", "100"],
    ["estimate-b", "--n-max", "abc"],
    ["--version"],
]


def commands() -> list[tuple[list[str], bool]]:
    """(arguments, whether stdout goes to /dev/full) for every command compared."""
    seeded = ",".join(map(str, table_points(10**8, 1)))
    tables = [["--n-max", "1e6"], ["--n-max", "1e8", "--checkpoints", seeded]]
    workers = (["--workers", "1"], ["--workers", "2"])
    out = [["table", *t, "--format", f, *w] for t in tables for f in FORMATS for w in workers]
    out += [["verify", "--n-max", n, *w] for n in ("286", "1e5", "1e7") for w in workers]
    single = [["estimate-b", "--n-max", "1e8"]]
    single += [["extrapolate", "--log10-x", v] for v in ("2.5", "100", "1e307")]
    dests = ([], ["--out", OUT])
    out += [[*c, "--format", f, *dest] for c in single for f in FORMATS for dest in dests]
    runs = [(argv, False) for argv in out + REFUSED]
    if os.path.exists("/dev/full"):
        table = ["table", "--n-max", "1e3"]
        runs += [(["verify", "--n-max", "300"], True), (table, True)]
        runs += [([*table, "--out", "/dev/full"], False)]
    return runs


def run(src: Path, argv: list[str], to_full: bool) -> tuple:
    """(exit code, stdout, stderr, --out file bytes or None) of one command on src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    full = open("/dev/full", "wb") if to_full else contextlib.nullcontext(subprocess.PIPE)
    with tempfile.TemporaryDirectory() as cwd, full as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "mertens.cli", *argv],
            cwd=cwd,
            env=env,
            stdout=stdout,
            stderr=subprocess.PIPE,
        )
        out_file = Path(cwd, OUT)
        written = out_file.read_bytes() if out_file.exists() else None
    stderr = done.stderr.replace(str(src.parent).encode(), b"<tree>")
    return done.returncode, done.stdout, stderr, written


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/compare_outputs.py <rev>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as base:
        git = ["git", "-C", str(ROOT), "archive", argv[0], "src"]
        archive = subprocess.run(git, capture_output=True)
        tar = ["tar", "-x", "-C", base]
        if archive.returncode or subprocess.run(tar, input=archive.stdout).returncode:
            detail = archive.stderr.decode().strip()
            print(f"error: cannot extract src/ at {argv[0]}: {detail}", file=sys.stderr)
            return 2
        fields = ("exit code", "stdout", "stderr", "--out file")
        runs = commands()
        differ = 0
        for args, to_full in runs:
            head, old = (run(src, args, to_full) for src in (ROOT / "src", Path(base, "src")))
            changed = [name for name, a, b in zip(fields, head, old) if a != b]
            if changed:
                differ += 1
                shown = " ".join(a if len(a) < 40 else a[:37] + "..." for a in args)
                print(f"DIFFERS ({', '.join(changed)}): mertens {shown}{' > /dev/full' * to_full}")
    print(f"compare_outputs: {len(runs)} commands against {argv[0]}, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
