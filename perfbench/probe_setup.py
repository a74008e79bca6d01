"""Time one fresh set-up of a workload and print the seconds.

Usage: python perfbench/probe_setup.py WORKLOAD SEED

The clock starts before any import, so for the in-process workloads the
figure holds ``import klctrl`` (numpy and scipy included) and building the
inputs; for cli it holds writing the generated problem files.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workload  # noqa: E402


def main(name, seed):
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    workload.load(name)(root, seed)
    print(time.perf_counter() - _start)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
