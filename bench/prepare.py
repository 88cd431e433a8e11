"""Generate one workload's inputs and references into a work directory.

Usage: python3 bench/prepare.py SRC_DIR WORKLOAD SEED WORK_DIR

Runs in its own process, so the memory it needs does not count toward
the peak memory of the measured process.
"""

import sys


def main():
    src, name, seed, work = sys.argv[1:5]
    sys.path.insert(0, src)
    import mpirecon
    import workloads

    workloads.WORKLOADS[name].prepare(mpirecon, int(seed), work)


if __name__ == "__main__":
    main()
