"""Seeded inputs, timed operations and output checks of the three workloads.

Every input is generated here from the workload seed, before any timing
starts; the library only ever receives the generated arrays or YAML files.
The generators are copies kept apart from the test suite on purpose, so that
an edit to the tests cannot shift a workload.

A workload has a set-up step (turn every model input into a validated
``CredalMatrix``) and a list of operations. One operation is one library
solve call or one CLI command; its result is reduced to named arrays that are
checked against the references committed in ``refs/``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from credalmeet import CredalMatrix, cli, meet, modelio, policy_iteration, value_iteration

#: Number of distinct input sets; ``--seed n`` selects set ``n % POOL``, so
#: that every seed has committed reference outputs.
POOL = 10

#: Relative tolerance of the reference comparison on finite entries.
RTOL = 1e-9

#: Value-iteration tolerance of base-dense.
VI_TOL = 1e-8

#: Vertices per state of the random dense models. A fixed count of two
#: keeps the policy-iteration sweep count constant: 3 sweeps in all 32
#: two-agent solves at n=50, against 29 of 32 at n=60 with 1 to 3 vertices.
VERTICES = 2

#: (rows, columns) of the rough and the smooth torus of a graph-sparse walk.
ROUGH, SMOOTH = (2, 3), (3, 3)

REFS_DIR = Path(__file__).resolve().parent / "refs"


# ---------------------------------------------------------------- generators

def random_distribution(rng, n: int) -> np.ndarray:
    """A dense probability row, every entry at least ``0.2 / n``."""
    return 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n


def random_credal_rows(rng, n: int):
    """Labels and per-state vertex lists of a random dense credal model.

    Each state gets ``VERTICES`` dense vertices. Dense rows keep the
    policy-iteration sweep count nearly the same from seed to seed (at n=60,
    3 sweeps in 29 of 32 two-agent solves, against 19 of 32 when a tenth of
    the vertices have random sparse supports), so that the seed changes the
    inputs and not the amount of work.
    """
    rows = [[random_distribution(rng, n) for _ in range(VERTICES)] for _ in range(n)]
    return [f"s{i}" for i in range(n)], rows


_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


def torus_graph(rng) -> dict:
    """A credal walk on a rough and a smooth torus, as a YAML model document.

    Cells ``a<r>_<c>`` form the rough torus: each row offers a deterministic
    drift to a neighbour and a leak to a smooth cell, so walkers there can
    dodge each other forever. Cells ``b<r>_<c>`` form the smooth torus: each
    row offers a uniform step and either a lazy or a drifting one, all
    covering the cell and its four neighbours, so walkers there meet almost
    surely and the smooth torus is never left. Upper meeting times are
    therefore finite exactly when every walker is on the smooth torus, and
    lower ones are finite everywhere. Rows have at most five nonzeros.
    """
    shapes = {"a": ROUGH, "b": SMOOTH}
    labels = [f"{t}{r}_{c}" for t, (rows, cols) in shapes.items()
              for r in range(rows) for c in range(cols)]
    index = {lab: i for i, lab in enumerate(labels)}

    def hood(t, r, c):
        rows, cols = shapes[t]
        return [index[f"{t}{r}_{c}"]] + [
            index[f"{t}{(r + dr) % rows}_{(c + dc) % cols}"] for dr, dc in _MOVES
        ]

    def vec(pairs):
        v = np.zeros(len(labels))
        for i, w in pairs:
            v[i] += w
        return v / v.sum()

    vertices = {}
    for r in range(ROUGH[0]):
        for c in range(ROUGH[1]):
            own, *nbrs = hood("a", r, c)
            stay = float(rng.uniform(0.2, 0.6))
            vertices[f"a{r}_{c}"] = [
                vec([(nbrs[(r + c) % 4], 1.0)]),
                vec([(index[f"b{r}_{c}"], 1.0 - stay), (own, stay)]),
            ]
    for r in range(SMOOTH[0]):
        for c in range(SMOOTH[1]):
            own, *nbrs = hood("b", r, c)
            if (r + c) % 2:
                lazy = float(rng.uniform(0.4, 0.8))
                second = vec([(own, lazy)] + [(i, (1.0 - lazy) / 4) for i in nbrs])
            else:
                drift, d = float(rng.uniform(0.4, 0.7)), (r + 2 * c) % 4
                second = vec([(own, (1.0 - drift) / 4)]
                             + [(i, drift if j == d else (1.0 - drift) / 4)
                                for j, i in enumerate(nbrs)])
            vertices[f"b{r}_{c}"] = [vec([(i, 1.0) for i in [own, *nbrs]]), second]
    return {
        "name": "torus-pair",
        "states": labels,
        "rows": {lab: {"vertices": [[float(x) for x in v] for v in vertices[lab]]}
                 for lab in labels},
    }


# ---------------------------------------------------------------- checks

class CheckFailed(ValueError):
    """An operation's output differs from its reference."""


def check_exact(name: str, got: np.ndarray, ref: np.ndarray) -> None:
    """The ``inf`` pattern must match exactly, finite entries within ``RTOL`` relative."""
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, reference {ref.shape}")
    if np.isnan(got).any():
        raise CheckFailed(f"{name}: NaN in the output")
    inf_got, inf_ref = np.isinf(got), np.isinf(ref)
    if (inf_got != inf_ref).any():
        bad = np.flatnonzero(inf_got != inf_ref)
        raise CheckFailed(f"{name}: inf pattern differs at {bad[:5].tolist()}")
    fin = ~inf_ref
    err = np.abs(got[fin] - ref[fin])
    if (err > RTOL * np.abs(ref[fin])).any():
        raise CheckFailed(f"{name}: finite entries differ by up to {err.max():.3e}")


def check_vi(name: str, got: np.ndarray, exact: np.ndarray, tol: float) -> float:
    """Value iteration: exact ``inf`` pattern and ``0 <= VI <= exact + tol``.

    Returns max |VI - exact| / ``tol``; the accuracy itself is reported, not
    checked.
    """
    got = np.asarray(got, dtype=float)
    if got.shape != exact.shape or np.isnan(got).any():
        raise CheckFailed(f"{name}: malformed output")
    if (np.isinf(got) != np.isinf(exact)).any():
        raise CheckFailed(f"{name}: inf pattern differs")
    fin = np.isfinite(exact)
    if (got[fin] < 0).any() or (got[fin] > exact[fin] + tol).any():
        raise CheckFailed(f"{name}: value iteration left [0, exact + tol]")
    return float(np.max(np.abs(got[fin] - exact[fin]), initial=0.0)) / tol


# ---------------------------------------------------------------- operations

@dataclass
class Op:
    """One timed operation and how to reduce its result to checked arrays.

    ``reduce`` raises :class:`CheckFailed` when the call did not converge or
    the command exited non-zero. ``vi_tol`` marks a value-iteration call,
    whose arrays are checked against the exact reference by :func:`check_vi`.
    """

    name: str
    run: Callable[[], Any]
    reduce: Callable[[Any], dict[str, np.ndarray]]
    vi_tol: float | None = None


def _solved(result) -> dict[str, np.ndarray]:
    if not result.converged:
        raise CheckFailed("converged=False")
    return {"values": np.asarray(result.values, dtype=float)}


def _decode(value) -> float:
    return math.inf if value == "inf" else float(value)


def joint_labels(labels, agents: int, mode: str) -> list[str]:
    """Product-state labels in the order the library indexes them."""
    idx = range(len(labels))
    tuples = (itertools.product(idx, repeat=agents) if mode == "full"
              else itertools.combinations_with_replacement(idx, agents))
    return ["(" + ",".join(labels[z] for z in t) + ")" for t in tuples]


_CLASSES = ("target", "absorbing", "unsafe", "finite")


class CliOp:
    """A CLI command run in-process through ``credalmeet.cli.main``."""

    def __init__(self, argv: list[str], json_path: Path, keys: list[str]):
        self.argv = [*argv, "--json", str(json_path)]
        self.json_path = json_path
        self.keys = keys

    def __call__(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv)

    def reduce(self, code: int) -> dict[str, np.ndarray]:
        if code != 0:
            raise CheckFailed(f"exit status {code}")
        payload = json.loads(self.json_path.read_text())
        if "classification" in payload and "values" not in payload:
            sets = payload["classification"]
            code_of = {lab: k for k, cls in enumerate(_CLASSES) for lab in sets[cls]}
            return {"classes": np.array([code_of[lab] for lab in self.keys], dtype=float)}
        values = payload["values"]
        return {"values": np.array([_decode(values[lab]) for lab in self.keys])}


# ---------------------------------------------------------------- workloads

class BaseDense:
    """Policy iteration (n=500) and a batch of value iterations (n=20), from arrays."""

    name = "base-dense"
    n_vi_models = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed % POOL, 1])
        self.inputs = {"pi": random_credal_rows(rng, 500)}
        for k in range(self.n_vi_models):
            self.inputs[f"vi{k}"] = random_credal_rows(rng, 20)

    def setup(self) -> dict:
        return {key: CredalMatrix.from_rows(labels, rows)
                for key, (labels, rows) in self.inputs.items()}

    def ops(self, models: dict, exact: bool = False) -> list[Op]:
        """The timed operations; ``exact`` swaps each value iteration for policy
        iteration on the same model, which gives its reference."""
        ops = [Op(f"pi-{s}", lambda s=s: policy_iteration(models["pi"], [0], s), _solved)
               for s in ("upper", "lower")]
        for k in range(self.n_vi_models):
            vi = models[f"vi{k}"]
            for s in ("upper", "lower"):
                if exact:
                    ops.append(Op(f"vi{k}-{s}", lambda vi=vi, s=s: policy_iteration(vi, [0], s),
                                  _solved))
                else:
                    ops.append(Op(f"vi{k}-{s}",
                                  lambda vi=vi, s=s: value_iteration(vi, [0], s, tol=VI_TOL),
                                  _solved, vi_tol=VI_TOL))
        return ops


class PairDense:
    """Two-agent quotient meeting, vacuous belief, on dense n=50 models."""

    name = "pair-dense"
    n_models = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed % POOL, 2])
        self.inputs = {f"pair{k}": random_credal_rows(rng, 50) for k in range(self.n_models)}

    setup = BaseDense.setup

    def ops(self, models: dict, exact: bool = False) -> list[Op]:
        return [Op(f"{key}-{s}", lambda m=m, s=s: meet(m, 2, "vacuous", s, "quotient"), _solved)
                for key, m in models.items() for s in ("upper", "lower")]


class GraphSparse:
    """CLI commands on YAML credal walks over small tori."""

    name = "graph-sparse"
    n_graphs = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed % POOL, 3])
        self.workdir = workdir
        self.graphs = []
        for k in range(self.n_graphs):
            doc = torus_graph(rng)
            path = workdir / f"graph{k}.yaml"
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            self.graphs.append((path, path.read_text(), doc["states"]))

    def setup(self) -> dict:
        return {str(path): modelio.parse_model(text, str(path)) for path, text, _ in self.graphs}

    def ops(self, models: dict, exact: bool = False) -> list[Op]:
        ops = []
        for k, (path, _, labels) in enumerate(self.graphs):
            triples = joint_labels(labels, 3, "quotient")
            commands = {
                "meet3-upper": (["meet", "--agents", "3", "--sense", "upper"], triples),
                "meet3-lower": (["meet", "--agents", "3", "--sense", "lower"], triples),
                "meet3-mixture": (["meet", "--agents", "3", "--belief", "mixture",
                                   "--epsilon", "0.5"], triples),
                "meet2-full-lower": (["meet", "--agents", "2", "--mode", "full",
                                      "--sense", "lower"], joint_labels(labels, 2, "full")),
                "classify2-upper": (["classify", "--agents", "2", "--sense", "upper"],
                                    joint_labels(labels, 2, "quotient")),
                "hit-upper": (["hit", "--target", labels[-1], "--sense", "upper"], labels),
            }
            for name, ((command, *options), keys) in commands.items():
                run = CliOp([command, str(path), *options],
                            self.workdir / f"graph{k}-{name}.json", keys)
                ops.append(Op(f"graph{k}-{name}", run, run.reduce))
        return ops


WORKLOADS = {w.name: w for w in (BaseDense, PairDense, GraphSparse)}


# ---------------------------------------------------------------- references

def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.npz"


def load_refs(workload: str, seed: int) -> dict[str, np.ndarray]:
    """Reference arrays of one input set, keyed ``<op>/<array>``."""
    prefix = f"{seed % POOL}:"
    with np.load(refs_path(workload)) as data:
        return {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}


def check(op: Op, result, refs: dict[str, np.ndarray]) -> float | None:
    """Check one result; returns the value-iteration error ratio for VI calls."""
    arrays = op.reduce(result)
    if op.vi_tol is not None:
        return check_vi(op.name, arrays["values"], refs[f"{op.name}/values"], op.vi_tol)
    for key, got in arrays.items():
        check_exact(f"{op.name}/{key}", got, refs[f"{op.name}/{key}"])
    return None
