#!/usr/bin/env python3
"""Checks that `hido describe` reads a large CSV in bounded memory.

Generates the benchmark's 100k x 40 input (about 80 MB) with hido-gen and
runs `hido describe` on it three times: with --encode-categorical true,
with it false, and on /dev/stdin fed by a pipe. Each child's peak RSS
(ru_maxrss, read through os.wait4) must stay under --limit-mb: the 32 MB
of columns, the reader's two windows and some slack. A reader that holds
the whole file peaks at 110-131 MB on this input.

An encoding read of a pipe (--encode-categorical is on by default) keeps a
copy of the input in an unlinked file in $TMPDIR, in case a column turns
categorical after the first window; ru_maxrss does not count it, even on a
tmpfs. The pipe case therefore runs with TMPDIR naming a directory that
does not exist: no copy can be made, the all-numeric input must read
without one, and the peak counts all the memory the read holds.

usage: ingest_memory_check.py --hido PATH --hido-gen PATH --dir DIR
                              [--limit-mb 75]
"""

import argparse
import os
import subprocess
import sys


def peak_rss_mb(command, stdin_path=None, env=None):
    """Runs `command` to completion; returns (exit code, peak RSS in MB)."""
    feeder = None
    stdin = None
    if stdin_path is not None:
        feeder = subprocess.Popen(["cat", stdin_path], stdout=subprocess.PIPE)
        stdin = feeder.stdout
    child = subprocess.Popen(command, stdin=stdin, stdout=subprocess.DEVNULL,
                             env=env)
    if feeder is not None:
        feeder.stdout.close()
    # wait4 gives this child's own usage, not the feeder's or the script's.
    _, status, usage = os.wait4(child.pid, 0)
    if feeder is not None:
        feeder.wait()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hido", required=True)
    parser.add_argument("--hido-gen", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--limit-mb", type=float, default=75.0)
    args = parser.parse_args()

    csv = os.path.join(args.dir, "ingest_memory_check.csv")
    subprocess.run([args.hido_gen, "subspace", "--rows", "100000",
                    "--dims", "40", "--seed", "1", "--out", csv],
                   stdout=subprocess.DEVNULL, check=True)
    no_copy = dict(os.environ,
                   TMPDIR=os.path.join(args.dir, "ingest_memory_check.none"))
    runs = [
        ("file, --encode-categorical=true", ["--input", csv,
                                             "--encode-categorical=true"],
         None, None),
        ("file, --encode-categorical=false", ["--input", csv,
                                              "--encode-categorical=false"],
         None, None),
        ("pipe, no temporary copy", ["--input", "/dev/stdin"], csv, no_copy),
    ]
    failed = False
    try:
        for name, flags, stdin_path, env in runs:
            code, peak = peak_rss_mb([args.hido, "describe"] + flags,
                                     stdin_path, env)
            ok = code == 0 and peak <= args.limit_mb
            failed |= not ok
            print("%-34s exit %d, peak RSS %.1f MB (limit %.0f MB)%s"
                  % (name, code, peak, args.limit_mb,
                     "" if ok else "  FAILED"))
    finally:
        for path in (csv, csv + ".truth"):
            if os.path.exists(path):
                os.remove(path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
