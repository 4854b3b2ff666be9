"""Run a fixed, seeded corpus of solves against one ``src/`` tree, and compare
two such runs.

The corpus covers base ``policy_iteration`` and ``value_iteration`` in both
senses, at several sweep budgets, on random models with trap states, and
``meet`` with 2 and 3 agents, full and quotient, under a vacuous belief in
both senses, a degenerate one and a mixture, on random models and on credal
walks over two tori whose upper meeting times are finite on the smooth torus
alone; policy and value iteration at the same budgets and a 2-agent quotient
``meet`` in both senses on models whose every state has two vertices, so
that every segment of choices has one length; ``meet`` under a vacuous
belief in both senses with 4 and 5 agents, quotient, and with 3 agents,
full, on small random models, whose contractions take three to five
products; and policy iteration on a slowly mixing walk that GMRES gives up
on.
Every input is generated here from fixed seeds; nothing is read from the
test suite or the benchmark. Per case the run records the values as float
hex, their ``inf`` pattern, the selection, the classification, the
iterations, the residual as float hex and ``converged``, or the error a
solve raised, every policy evaluation the case made: its path
(``"gmres"`` or ``"lu"``), its GMRES products and whether it is loose, and
how many joint contractions (``meeting.contract_chain`` calls) it made.

The CLI family runs the command line in process on a few seeded models
written as YAML to a temporary directory: ``hit`` in both senses by both
methods, ``classify --agents 2`` in both senses and modes, and ``meet`` with
2 and 3 agents, vacuous and mixture, full and quotient, in both senses.
Per command it records the exit status, standard output, standard error
and the ``--json`` file's text, each with the temporary directory's path
replaced by ``<tmp>``, and its policy evaluations and joint contractions as
a solve's::

    python tools/differential.py --src src --out head.json
    python tools/differential.py --src ../parent/src --out parent.json
    python tools/differential.py --compare parent.json head.json

``--src`` runs the corpus in a fresh Python process that imports the library
from the given directory. ``--compare`` prints, per family of cases, how many
are bit-identical, the largest relative move of a finite value and how many
selections changed, and per CLI family how many are byte-identical; per
family it names the cases whose evaluations differ in path, GMRES
products or loose flag, and those whose joint contraction counts differ
(or says that a run holds no evaluations or no counts, as a run of an
older tree may not), which never fails the compare. It exits with
status 1 when an ``inf`` pattern, a classification, an error or a CLI exit
status differs, or the two runs hold different cases.
"""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: Seeds of the random base models and of the random joint models.
BASE_SEEDS = range(40)
JOINT_SEEDS = range(10)

#: Seeds of the walks on two tori.
TORUS_SEEDS = range(5)

#: Seeds of the random models of the 3- to 5-agent meets.
DEEP_SEEDS = range(5)

#: Seeds of the random models that the CLI family writes as YAML.
CLI_SEEDS = range(3)

#: State counts of the models with two vertices at every state.
UNIFORM_SIZES = (20, 60)

#: Sweep budgets of the base solves; ``None`` is the default budget.
BUDGETS = (0, 1, 2, 16, None)

_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


# ---------------------------------------------------------------- inputs

def random_model(rng, n: int, traps: int):
    """Labels and vertex lists of ``n`` states: ``traps`` of them, placed at
    random, step to themselves alone; every other state has 1 to 3 vertices,
    each on a random support of the states (all of them with probability
    0.3), and now and then one with an entry of 1e-300."""
    trapped = set(rng.choice(n, size=traps, replace=False).tolist())
    rows = []
    for i in range(n):
        if i in trapped:
            rows.append([np.eye(n)[i]])
            continue
        verts = []
        for _ in range(int(rng.integers(1, 4))):
            size = n if rng.random() < 0.3 else int(rng.integers(1, min(n, 4) + 1))
            v = np.zeros(n)
            v[rng.choice(n, size=size, replace=False)] = rng.dirichlet(np.ones(size)) + 0.05
            v /= v.sum()
            if rng.random() < 0.1:
                v[int(rng.integers(n))] += 1e-300
            if not any(np.array_equal(v, w) for w in verts):
                verts.append(v)
        rows.append(verts)
    return [f"s{i}" for i in range(n)], rows


def uniform_model(rng, n: int, traps: int):
    """Labels and vertex lists of ``n`` states with exactly two vertices each:
    dense rows, every entry at least ``0.2 / n``, except on ``traps`` states,
    placed at random, whose two rows keep the walk among those states, so
    that some states are hopeless and some choices carry mass to them."""
    trapped = rng.choice(n, size=traps, replace=False)
    rows = []
    for i in range(n):
        if i in trapped:
            rows.append([np.bincount(trapped, rng.dirichlet(np.ones(traps)), n) for _ in range(2)])
        else:
            rows.append([0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n for _ in range(2)])
    return [f"s{i}" for i in range(n)], rows


def two_torus(rng, rough: tuple[int, int], smooth: tuple[int, int]):
    """Labels and vertex lists of a credal walk on a rough and a smooth torus.

    A rough cell offers a deterministic drift to a neighbour and a step to
    the smooth cell of its position (or the first one) that stays put with a
    random probability, so walkers there can dodge each other forever. A
    smooth cell offers a uniform step over itself and its neighbours, and a
    lazy or drifting one on the same cells, so walkers there meet almost
    surely and never leave. Upper meeting times are finite exactly when
    every walker is on the smooth torus."""
    shapes = {"a": rough, "b": smooth}
    labels = [f"{t}{r}_{c}" for t, (rows, cols) in shapes.items() for r in range(rows) for c in range(cols)]
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    def hood(t, r, c):
        rows, cols = shapes[t]
        return [index[f"{t}{r}_{c}"]] + [index[f"{t}{(r + dr) % rows}_{(c + dc) % cols}"] for dr, dc in _MOVES]

    def vec(pairs):
        v = np.zeros(n)
        for i, w in pairs:
            v[i] += w
        return v / v.sum()

    vertices = []
    for r in range(rough[0]):
        for c in range(rough[1]):
            own, *nbrs = hood("a", r, c)
            stay = float(rng.uniform(0.2, 0.6))
            leak = index.get(f"b{r}_{c}", index["b0_0"])
            drift = vec([(nbrs[(r + c) % 4], 1.0)])
            vertices.append([drift, vec([(leak, 1.0 - stay), (own, stay)])])
    for r in range(smooth[0]):
        for c in range(smooth[1]):
            own, *nbrs = hood("b", r, c)
            if (r + c) % 2:
                lazy = float(rng.uniform(0.4, 0.8))
                second = vec([(own, lazy)] + [(i, (1.0 - lazy) / 4) for i in nbrs])
            else:
                drift, d = float(rng.uniform(0.4, 0.7)), (r + 2 * c) % 4
                second = vec([(own, (1.0 - drift) / 4)]
                             + [(i, drift if j == d else (1.0 - drift) / 4) for j, i in enumerate(nbrs)])
            uniform = vec([(i, 1.0) for i in [own, *nbrs]])
            vertices.append([uniform] if np.array_equal(uniform, second) else [uniform, second])
    return labels, vertices


def slow_walk(n: int):
    """Labels and vertex lists of a walk towards the absorbing state
    ``n - 1``, reflected at 0, whose states each step by a quarter, fairly
    or lazily by a half: every selection mixes too slowly for restarted
    GMRES, so its evaluations fall back to LU."""
    rows = []
    for i in range(n - 1):
        step = np.zeros(n)
        step[max(i - 1, 0)] += 0.5
        step[i + 1] += 0.5
        rows.append([0.75 * step + 0.25 * np.eye(n)[i], step, 0.5 * step + 0.5 * np.eye(n)[i]])
    rows.append([np.eye(n)[n - 1]])
    return [f"s{i}" for i in range(n)], rows


def _cases():
    """``(family, name, thunk)`` for every case of the corpus, in a fixed order."""
    from credalmeet import CredalMatrix, build_product_space, meet, policy_iteration, value_iteration

    for seed in BASE_SEEDS:
        rng = np.random.default_rng([seed, 1])
        n = int(rng.integers(2, 41))
        labels, rows = random_model(rng, n, int(rng.integers(0, max(1, n // 4) + 1)))
        model = CredalMatrix.from_rows(labels, rows)
        targets = sorted(rng.choice(n, size=int(rng.integers(1, max(2, n // 5) + 1)), replace=False).tolist())
        for sense in ("upper", "lower"):
            for budget in BUDGETS:
                kw = {} if budget is None else {"max_iter": budget}
                yield ("policy_iteration", f"seed{seed}-n{n}-{sense}-{budget}",
                       lambda m=model, s=sense, kw=kw: policy_iteration(m, targets, s, **kw))
                yield ("value_iteration", f"seed{seed}-n{n}-{sense}-{budget}",
                       lambda m=model, s=sense, kw=kw: value_iteration(m, targets, s, tol=1e-9, **kw))

    for n in UNIFORM_SIZES:
        for traps in (0, 2):
            rng = np.random.default_rng([n, traps, 4])
            model = CredalMatrix.from_rows(*uniform_model(rng, n, traps))
            targets = sorted(rng.choice(n, size=2, replace=False).tolist())
            for sense in ("upper", "lower"):
                for budget in BUDGETS:
                    kw = {} if budget is None else {"max_iter": budget}
                    yield ("uniform policy", f"n{n}-traps{traps}-{sense}-{budget}",
                           lambda m=model, t=targets, s=sense, kw=kw: policy_iteration(m, t, s, **kw))
                    yield ("uniform value", f"n{n}-traps{traps}-{sense}-{budget}",
                           lambda m=model, t=targets, s=sense, kw=kw: value_iteration(m, t, s, tol=1e-9, **kw))
                yield ("uniform meet", f"n{n}-traps{traps}-2-quotient-{sense}",
                       lambda m=model, s=sense: meet(m, 2, "vacuous", s, "quotient"))

    def meets(family, name, model, agents, mode, rng):
        product = build_product_space(model.space, agents, mode)
        counts = np.diff(model.offsets)
        selection = {s: tuple(int(rng.integers(counts[z])) for z in s) for s in product.states}
        for sense in ("upper", "lower"):
            yield (f"{family} vacuous", f"{name}-{agents}-{mode}-{sense}",
                   lambda s=sense: meet(model, agents, "vacuous", s, mode))
            yield (f"{family} mixture", f"{name}-{agents}-{mode}-{sense}",
                   lambda s=sense: meet(model, agents, "mixture", s, mode, selection=selection, epsilon=0.3))
        yield (f"{family} degenerate", f"{name}-{agents}-{mode}",
               lambda: meet(model, agents, "degenerate", mode=mode, selection=selection))

    for seed in JOINT_SEEDS:
        rng = np.random.default_rng([seed, 2])
        for agents, mode in ((2, "full"), (2, "quotient"), (3, "full"), (3, "quotient")):
            n = int(rng.integers(3, 7 if agents == 2 else 5))
            model = CredalMatrix.from_rows(*random_model(rng, n, int(rng.integers(0, 2))))
            yield from meets("meet", f"seed{seed}-n{n}", model, agents, mode, rng)
    for seed in TORUS_SEEDS:
        rng = np.random.default_rng([seed, 3])
        for agents, mode, rough, smooth in ((2, "full", (2, 2), (2, 3)), (2, "quotient", (2, 3), (3, 3)),
                                            (3, "quotient", (2, 3), (3, 3)), (3, "full", (1, 2), (2, 2))):
            model = CredalMatrix.from_rows(*two_torus(rng, rough, smooth))
            yield from meets("two-torus", f"seed{seed}-{rough[0]}x{rough[1]}+{smooth[0]}x{smooth[1]}",
                             model, agents, mode, rng)
    for seed in DEEP_SEEDS:
        rng = np.random.default_rng([seed, 5])
        for agents, mode, sizes in ((4, "quotient", (3, 5)), (5, "quotient", (3, 4)), (3, "full", (4, 6))):
            n = int(rng.integers(*sizes))
            model = CredalMatrix.from_rows(*random_model(rng, n, int(rng.integers(0, 2))))
            for sense in ("upper", "lower"):
                yield ("deep meet", f"seed{seed}-n{n}-{agents}-{mode}-{sense}",
                       lambda m=model, a=agents, md=mode, s=sense: meet(m, a, "vacuous", s, md))
    model = CredalMatrix.from_rows(*slow_walk(100))
    for sense in ("upper", "lower"):
        yield "slow walk", f"n100-{sense}", lambda s=sense: policy_iteration(model, [99], s)


def _cli_cases(tmp: Path):
    """``(family, name, argv)`` for every command of the CLI family, on models
    written to ``tmp``, in a fixed order; each writes its ``--json`` there."""
    from credalmeet import CredalMatrix
    from credalmeet.modelio import dump_model

    models = []
    for seed in CLI_SEEDS:
        rng = np.random.default_rng([seed, 6])
        n = int(rng.integers(3, 6))
        models.append((f"seed{seed}-n{n}", CredalMatrix.from_rows(*random_model(rng, n, int(rng.integers(0, 2))))))
    models.append(("torus", CredalMatrix.from_rows(*two_torus(np.random.default_rng([0, 6]), (1, 2), (2, 2)))))
    for name, model in models:
        path = tmp / f"{name}.yaml"
        path.write_text(dump_model(model))
        out = ["--json", str(tmp / "out.json")]
        for sense in ("upper", "lower"):
            for method in ("policy", "value"):
                yield ("cli hit", f"{name}-{sense}-{method}",
                       ["hit", str(path), "--target", model.space.labels[0], "--sense", sense, "--method", method, *out])
            for mode in ("full", "quotient"):
                yield ("cli classify", f"{name}-2-{mode}-{sense}",
                       ["classify", str(path), "--agents", "2", "--mode", mode, "--sense", sense, *out])
        for agents in ("2", "3"):
            for belief in ("vacuous", "mixture"):
                for mode in ("full", "quotient"):
                    for sense in ("upper", "lower"):
                        mix = ["--epsilon", "0.3"] if belief == "mixture" else []
                        yield (f"cli meet {agents}", f"{name}-{belief}-{mode}-{sense}",
                               ["meet", str(path), "--agents", agents, "--belief", belief, "--mode", mode,
                                "--sense", sense, *mix, *out])


def _run_cli(argv, tmp: Path) -> dict:
    """The exit status, standard output and error and ``--json`` text of one
    command, with ``tmp`` as ``<tmp>``; the ``--json`` file is removed."""
    from credalmeet.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = tmp / "out.json"
    text = written.read_text() if written.exists() else None
    written.unlink(missing_ok=True)
    here = str(tmp)
    return {"exit": code, "stdout": stdout.getvalue().replace(here, "<tmp>"),
            "stderr": stderr.getvalue().replace(here, "<tmp>"),
            "json": None if text is None else text.replace(here, "<tmp>")}


def _record(result) -> dict:
    """The fields of a hitting or meeting result, floats as hex."""
    values = np.asarray(result.values, dtype=float)
    selection = getattr(result, "selections", None)
    if selection is None:
        selection = result.selection.tolist()
    cls = result.classification
    return {
        "values": [float(x).hex() for x in values.tolist()],
        "inf": "".join("1" if x else "0" for x in np.isinf(values).tolist()),
        "selection": [None if s is None else list(s) if isinstance(s, tuple) else s for s in selection],
        "classification": {k: sorted(getattr(cls, k)) for k in ("target", "absorbing", "unsafe", "finite")},
        "iterations": result.iterations,
        "residual": float(result.residual).hex(),
        "converged": bool(result.converged),
    }


@contextlib.contextmanager
def recorded_evaluations():
    """``[path, products, loose]`` of every policy evaluation made meanwhile,
    read from the records that ``solver._Evaluator.evaluate`` returns."""
    from credalmeet import solver

    runs = []
    evaluate = solver._Evaluator.evaluate

    def recorded(self, choice, slack=0.0):
        run = evaluate(self, choice, slack)
        runs.append([run.path, run.products, run.loose])
        return run

    solver._Evaluator.evaluate = recorded
    try:
        yield runs
    finally:
        solver._Evaluator.evaluate = evaluate


@contextlib.contextmanager
def counted_contractions():
    """A one-entry list that counts the joint contractions made meanwhile:
    the calls of ``meeting.contract_chain``, through which every
    contraction of a joint view's table goes."""
    from credalmeet import meeting

    made = [0]
    chain = meeting.contract_chain

    def counted(*args):
        made[0] += 1
        return chain(*args)

    meeting.contract_chain = counted
    try:
        yield made
    finally:
        meeting.contract_chain = chain


def run_corpus() -> dict:
    """Every case of the corpus, solved by the library on ``sys.path``."""
    out = []
    for family, name, thunk in _cases():
        with recorded_evaluations() as runs, counted_contractions() as made:
            try:
                record = _record(thunk())
            except Exception as err:  # a refusal is an output too
                record = {"error": f"{type(err).__name__}: {err}"}
        out.append({"family": family, "case": name, **record, "evaluations": runs, "contractions": made[0]})
    with tempfile.TemporaryDirectory() as tmp:
        for family, name, argv in _cli_cases(Path(tmp)):
            with recorded_evaluations() as runs, counted_contractions() as made:
                record = _run_cli(argv, Path(tmp))
            out.append({"family": family, "case": name, **record, "evaluations": runs, "contractions": made[0]})
    return {"cases": out}


# ---------------------------------------------------------------- compare

#: The work records of a case, compared apart from its outputs, and what
#: the compare says of the cases whose records agree.
WORK = {"evaluations": "the same in path, GMRES products and loose flag",
        "contractions": "the same in joint contractions"}


def compare(a: dict, b: dict) -> bool:
    """Print the comparison of two runs per family; True when nothing fails."""
    ok = True
    left = {(c["family"], c["case"]): c for c in a["cases"]}
    right = {(c["family"], c["case"]): c for c in b["cases"]}
    if left.keys() != right.keys():
        print(f"FAIL: the runs hold different cases ({len(left.keys() ^ right.keys())} differ)")
        ok = False
    families = {}
    for key in sorted(left.keys() & right.keys(), key=list(left).index):
        x, y = left[key].copy(), right[key].copy()
        stats = families.setdefault(key[0], {"cases": 0, "identical": 0, "move": 0.0, "flips": 0, "fail": [],
                                             **{field: {"unrecorded": 0, "differ": []} for field in WORK}})
        stats["cases"] += 1
        for field in WORK:  # compared apart: the outputs alone make a case identical
            u, v, tally = x.pop(field, None), y.pop(field, None), stats[field]
            if u is None or v is None:
                tally["unrecorded"] += 1
            elif u != v:
                tally["differ"].append(key[1])
        if x == y:
            stats["identical"] += 1
            continue
        if "exit" in x:  # a CLI case: only its exit status must agree
            if x["exit"] != y["exit"]:
                stats["fail"].append(f"{key[1]}: exit status {x['exit']} against {y['exit']}")
            continue
        if "error" in x or "error" in y:
            stats["fail"].append(f"{key[1]}: error {x.get('error')!r} against {y.get('error')!r}")
            continue
        for field in ("inf", "classification"):
            if x[field] != y[field]:
                stats["fail"].append(f"{key[1]}: {field} differs")
        if x["selection"] != y["selection"]:
            stats["flips"] += 1
        if x["inf"] == y["inf"]:
            for u, v in zip(x["values"], y["values"]):
                u, v = float.fromhex(u), float.fromhex(v)
                if math.isfinite(u) and u != v:
                    stats["move"] = max(stats["move"], abs(u - v) / max(abs(u), abs(v)))
    for family, s in families.items():
        if family.startswith("cli "):
            print(f"{family:<22}{s['identical']:>5} of {s['cases']:>4} byte-identical")
        else:
            print(f"{family:<22}{s['identical']:>5} of {s['cases']:>4} bit-identical, largest relative value "
                  f"move {s['move']:.1e}, {s['flips']} selection flips")
        for field, same in WORK.items():
            recorded, differ = s["cases"] - s[field]["unrecorded"], s[field]["differ"]
            if not recorded:
                print(f"  {field}: not recorded")
            else:
                print(f"  {field}: {recorded - len(differ)} of {recorded} {same}"
                      + (f"; differ in {', '.join(differ)}" if differ else ""))
        for line in s["fail"]:
            print(f"  FAIL: {line}")
        ok = ok and not s["fail"]
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the src/ directory whose library to run")
    parser.add_argument("--out", type=Path, help="where --src writes its run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="two runs to compare")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)  # the fresh process
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1
    if not (args.src and args.out):
        parser.error("give --src and --out, or --compare A B")
    if args.run:
        import credalmeet
        if not Path(credalmeet.__file__).resolve().is_relative_to(args.src.resolve()):
            sys.exit(f"credalmeet was imported from {credalmeet.__file__}, not from {args.src}")
        args.out.write_text(json.dumps(run_corpus()) + "\n")
        return 0
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--run", "--src", str(args.src), "--out", str(args.out)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
