#!/usr/bin/env python3
"""Depth-vs-accuracy sweep on the synthetic two-block dataset.

Trains the hop-coefficient model at several propagation depths, ten
seeds each, and writes sweep.csv + manifest.json under artifacts/sweep.
Extra flags go straight to `gsdnn sweep`:

    python scripts/run_depth_sweep.py --ks 1,2,3,4
"""

import sys

from gsdnn.cli import main

if __name__ == "__main__":
    args = ["sweep", "--dataset", "sbm", "--ks", "1,2,4,6,8,10",
            "--n-seeds", "10", "--out", "artifacts/sweep", *sys.argv[1:]]
    sys.exit(main(args))
