#!/usr/bin/env python
"""Linear vs. quadratic estimator variance comparison across batch sizes.

Equivalent to: shadowlab compare --d 16 --B 16 --trials 2000
"""

import sys

from shadowlab.cli import main

if __name__ == "__main__":
    sys.exit(
        main(
            [
                "compare",
                "--d", "16",
                "--B", "16",
                "--trials", "2000",
                "--seed", "20260825",
                "--out", "estimator_comparison.csv",
            ]
        )
    )
