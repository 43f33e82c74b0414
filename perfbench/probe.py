"""Set-up probe: import lumpkit, build one workload's model, print "ready".

run.py starts this script in a fresh process and times it from launch to
the "ready" line, so setup_s covers interpreter start-up and imports too.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import workloads
    from spans import Tracer

    w = workloads.WORKLOADS[name]
    workloads.setup(w, w.size, workloads.Inputs.from_seed(seed), workdir, Tracer(False))
    print("ready", flush=True)


if __name__ == "__main__":
    main()
