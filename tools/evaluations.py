"""Print every policy evaluation of vacuous meetings on credal tori: per
evaluation its slack, whether it came out loose or exact, the path that
solved it and its GMRES products, read from the solver's evaluation records;
and per solve the size of its finite region next to the whole view's: finite
states, vertex rows, base states and table entries.

Each cell of an ``s x s`` torus offers two vertices with five nonzeros: a
uniform step to itself and its four neighbours, and a lazy step that stays
with probability ``p`` and moves to each neighbour with ``(1 - p) / 4``. On a
heterogeneous torus ``p`` is drawn per cell, in row-major order, from
U(0.4, 0.8) with seed 0; on a homogeneous one it is 0.6. The rungs are the
2-agent 10x10 and 20x20 tori and the 3-agent 6x6 and 8x8 ones, each in both
kinds, solved in quotient mode in both senses. A 20x20 or 8x8 rung takes 2
to 20 seconds; the 10x10 ones, which CI runs, well under one::

    python tools/evaluations.py                  # every rung
    python tools/evaluations.py --size 10        # the 10x10 rungs
    python tools/evaluations.py --size 8 --kind heterogeneous --sense upper
"""

import argparse
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from credalmeet import CredalMatrix, meet, solver  # noqa: E402

#: (torus side, agents) of each rung.
RUNGS = [(10, 2), (20, 2), (6, 3), (8, 3)]

KINDS = ("heterogeneous", "homogeneous")


def torus(size: int, kind: str) -> CredalMatrix:
    """The credal walk on the ``size x size`` torus of the module docstring."""
    rng = np.random.default_rng(0)
    n = size * size
    rows = []
    for r in range(size):
        for c in range(size):
            here = r * size + c
            around = [((r + dr) % size) * size + (c + dc) % size for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))]
            stay = float(rng.uniform(0.4, 0.8)) if kind == "heterogeneous" else 0.6
            uniform, lazy = np.zeros(n), np.zeros(n)
            uniform[here] += 0.2
            lazy[here] += stay
            for j in around:
                uniform[j] += 0.2
                lazy[j] += (1.0 - stay) / 4
            rows.append([uniform, lazy])
    return CredalMatrix.from_rows([f"c{r}_{c}" for r in range(size) for c in range(size)], rows)


@contextlib.contextmanager
def recorded_evaluations():
    """Collect ``(slack, evaluation)`` for every evaluation made meanwhile, and
    ``(view, finite states, region)`` for every solve."""
    calls, regions = [], []
    evaluate, finite_region = solver._Evaluator.evaluate, solver._finite_region

    def recorded(self, choice, slack=0.0):
        run = evaluate(self, choice, slack)
        calls.append((slack, run))
        return run

    def recorded_region(view, cls):
        out = finite_region(view, cls)
        regions.append((view, out[0], out[1]))
        return out

    solver._Evaluator.evaluate, solver._finite_region = recorded, recorded_region
    try:
        yield calls, regions
    finally:
        solver._Evaluator.evaluate, solver._finite_region = evaluate, finite_region


def report(size: int, agents: int, kind: str, sense: str) -> None:
    model = torus(size, kind)
    with recorded_evaluations() as (calls, regions):
        start = time.perf_counter()
        res = meet(model, agents, "vacuous", sense)
        took = time.perf_counter() - start
    dropped = [run.misses(slack) for slack, run in calls]
    loose = sum(run.loose and not out for (_, run), out in zip(calls, dropped))
    exact = sum(not run.loose for _, run in calls)
    products = sum(run.products for _, run in calls)
    print(f"torus {size}x{size}, {agents} agents, {kind}, {sense}: {res.values.size} states, "
          f"{res.iterations} sweeps ({loose} loose, {exact} exact, {sum(dropped)} dropped), "
          f"{products} products, residual {res.residual:.1e}, converged {res.converged}, {took:.2f} s")
    for view, finite, region in regions:
        (rows, base), (k, n) = region._stack.shape, view._stack.shape
        print(f"  region  {finite.size} of {view.n} finite states, {rows} of {k} vertex rows, "
              f"{base} of {n} base states, {region._table.size} of {view._table.size} table entries")
    for (slack, run), out in zip(calls, dropped):
        state = "dropped" if out else "loose" if run.loose else "exact"
        print(f"  {state:<8}slack {slack:.1e}  {run.path:<6}{run.products:>5} products  residual {run.residual:.1e}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, choices=sorted({s for s, _ in RUNGS}), action="append",
                        help="torus sides to run (default: all)")
    parser.add_argument("--kind", choices=KINDS, action="append", help="default: both")
    parser.add_argument("--sense", choices=("upper", "lower"), action="append", help="default: both")
    args = parser.parse_args(argv)
    for size, agents in RUNGS:
        if args.size and size not in args.size:
            continue
        for kind in args.kind or KINDS:
            for sense in args.sense or ("upper", "lower"):
                report(size, agents, kind, sense)


if __name__ == "__main__":
    main()
