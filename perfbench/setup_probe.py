"""Set-up time of one fresh process: import shadowlab, then one untimed warm-up op.

Usage: python3 perfbench/setup_probe.py WORKLOAD WARMUP_SEED [--smoke]

Prints the seconds from just before ``import shadowlab`` to the end of the
warm-up operation (imports, plan construction, BLAS first-call start-up).
"""

import sys
from time import perf_counter

import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.pin_blas_threads()
    t0 = perf_counter()
    sl = workloads.import_shadowlab()
    workloads.run_op(sl, workloads.WORKLOADS[name], seed, smoke="--smoke" in sys.argv[3:])
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
