#!/usr/bin/env python3
"""Write the reference outputs that the benchmark checks against.

Run from the repository root after a change that is meant to alter results:

    python3 perfbench/make_refs.py

For every workload and every input set ``0 .. POOL-1`` it runs the
operations once, untimed, and stores the checked arrays in
``perfbench/refs/<workload>.npz`` under ``<input set>:<op>/<array>``. Value
iteration is stored as the policy-iteration value of the same model, the
exact reference its accuracy is measured against.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import run


def main() -> int:
    run.import_library()
    import workloads

    workdir = run.OUT / "refs-tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.REFS_DIR.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            arrays = {}
            for index in range(workloads.POOL):
                workload = workloads.WORKLOADS[name](index, workdir)
                for op in workload.ops(workload.setup(), exact=True):
                    for key, value in op.reduce(op.run()).items():
                        arrays[f"{index}:{op.name}/{key}"] = value
                print(f"{name}: input set {index} done", flush=True)
            np.savez_compressed(workloads.refs_path(name), **arrays)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
