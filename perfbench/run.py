#!/usr/bin/env python3
"""Build the perfbench binary from the checkout it sits in, then run it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload small-lattice --seed 1 --seconds 12 --trace 0

Every build artifact (the binary, the Go build cache, temporary files)
lands under .bench_build/ at the checkout root, so the run reads and
writes nothing outside the checkout. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        # HOME and XDG_CONFIG_HOME keep the go command's per-user files
        # (telemetry counters, env file) inside the checkout too.
        "HOME": os.path.join(out, "home"),
        "XDG_CONFIG_HOME": os.path.join(out, "home", ".config"),
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_ROOT"] = root
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
