"""Command-line interface.

Subcommands: ``validate``, ``classify``, ``hit``, ``meet``, ``simulate`` and
``selfcheck``. Every command prints a human-readable table and optionally
writes a JSON result file via ``--json``. Exit status: 0 success, 1 invalid
model, 2 solver did not converge, 3 usage error (a bad argument, or a file
that cannot be opened).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import meeting, reach
from .core import CredalMatrix, ModelValidationError, is_integer
from .chain import TransitionMatrix, simulate_hitting
from .solver import policy_iteration, value_iteration
from .modelio import ModelFormatError, encode_value, load_model, model_digest, write_result
from .selfcheck import bundled_model_path, run_selfcheck

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 3


class _NotConverged(Exception):
    """A solve that ran out of its iteration budget."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.12g}"


def _resolve_path(model_arg: str) -> str:
    if model_arg.startswith("builtin:"):
        return bundled_model_path(model_arg.split(":", 1)[1])
    return model_arg


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(model_arg: str) -> CredalMatrix:
    path = _resolve_path(model_arg)
    if not Path(path).exists():
        raise ValueError(f"model file not found: {path}")
    return load_model(path)


def _targets(model: CredalMatrix, raw: str) -> list[int]:
    # a repeated label names the same target: keep its first occurrence
    labels = list(dict.fromkeys(s.strip() for s in raw.split(",") if s.strip()))
    if not labels:
        raise ValueError("the target list is empty")
    return model.space.indices(labels)


def _classification_labels(model_labels, classification) -> dict:
    name = lambda ids: [model_labels[i] for i in sorted(ids)]
    return {
        "sense": classification.sense,
        "target": name(classification.target),
        "absorbing": name(classification.absorbing),
        "unsafe": name(classification.unsafe),
        "finite": name(classification.finite),
    }


def _print_classification(sets: dict) -> None:
    print(f"sense:     {sets['sense']}")
    for key in ("target", "absorbing", "unsafe", "finite"):
        print(f"{key + ':':<10} {', '.join(sets[key]) if sets[key] else '(none)'}")


def _model_info(model_arg: str, model: CredalMatrix) -> dict:
    return {
        "path": _resolve_path(model_arg),
        "digest": model_digest(model),
        "states": list(model.space.labels),
    }


def _report(args, fields) -> None:
    """Write the ``--json`` file of the command, when one was asked for:
    ``command`` first, then the fields returned by ``fields()``, which is
    only called then."""
    if args.json:  # a wrapper set on cli.write_result sees every write
        write_result(args.json, {"command": args.command, **fields()})


def _diagnostics(result, **head) -> dict:
    return {**head, "iterations": result.iterations, "residual": result.residual,
            "converged": result.converged}


def _check_converged(result, max_iter: int, steps: str) -> int:
    if not result.converged:
        raise _NotConverged(f"solver did not converge within {max_iter} {steps}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = _resolve_path(args.model)
    try:
        model = _load(args.model)
        violations: list[str] = []
    except (ModelFormatError, ModelValidationError) as exc:
        violations = exc.violations
        model = None
    _report(args, lambda: {
        "parameters": {"model": path},
        "valid": not violations,
        "violations": violations,
        **({} if model is None else {"model": _model_info(args.model, model)}),
    })
    if violations:
        print(f"{path}: INVALID")
        for v in violations:
            print(f"  - {v}")
        return EXIT_INVALID
    print(f"{path}: OK ({model.size} states)")
    return EXIT_OK


def _cmd_classify(args) -> int:
    model = _load(args.model)
    if args.agents is not None:
        # joint classification of the product space, target = the diagonal
        if args.target is not None:
            raise ValueError("--target cannot be combined with --agents; the joint "
                             "target is the diagonal")
        product = meeting.build_product_space(model.space, args.agents, args.mode)
        view = meeting.JointChoices(model, product)
        cls, _ = reach.classify_view(view, product.target_mask(), args.sense)
        labels = product.labels
        target_echo = ["(diagonal)"]
    else:
        if args.target is None:
            raise ValueError("--target is required unless --agents is given")
        targets = _targets(model, args.target)
        cls = reach.classify(model, targets, args.sense)
        labels = model.space.labels
        target_echo = sorted(model.space.labels[i] for i in targets)
    sets = _classification_labels(labels, cls)
    _print_classification(sets)
    _report(args, lambda: {
        "parameters": {"target": target_echo, "sense": args.sense,
                       "agents": args.agents, "mode": args.mode},
        "model": _model_info(args.model, model),
        "classification": sets,
    })
    return EXIT_OK


def _cmd_hit(args) -> int:
    model = _load(args.model)
    targets = _targets(model, args.target)
    if args.max_iter is None:
        args.max_iter = 1000 if args.method == "policy" else 10_000
    solve = policy_iteration if args.method == "policy" else value_iteration
    result = solve(model, targets, args.sense, tol=args.tol, max_iter=args.max_iter)
    labels = model.space.labels
    print(f"{args.sense} expected hitting times of {{{', '.join(labels[i] for i in targets)}}}")
    print("\n".join([f"{'state':<12}{'value':>16}  vertex"] + [
        f"{lab:<12}{_fmt(v):>16}  {c}"
        for lab, v, c in zip(labels, result.values.tolist(), result.selection.tolist())]))
    print(f"method {result.method}, {result.iterations} iterations, "
          f"residual {result.residual:.3e}, converged {result.converged}")
    _report(args, lambda: {
        "parameters": {
            "target": sorted(labels[i] for i in targets),
            "sense": args.sense, "method": args.method,
            "tol": encode_value(args.tol), "max_iter": args.max_iter,
        },
        "model": _model_info(args.model, model),
        "values": {lab: encode_value(v) for lab, v in zip(labels, result.values.tolist())},
        "selection": {lab: int(result.selection[i]) for i, lab in enumerate(labels)},
        "classification": _classification_labels(labels, result.classification),
        "diagnostics": _diagnostics(result, method=result.method),
    })
    return _check_converged(result, args.max_iter, "iterations")


def _read_selection(model: CredalMatrix, path: str | None):
    if path is None:
        return None
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ValueError(f"cannot read selection file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("the selection file must map joint states to vertex indices")
    selection = {}
    for key, tup in doc.items():
        joint = tuple(model.space.index(lab.strip()) for lab in str(key).split(","))
        if not isinstance(tup, list):
            raise ValueError(f"selection for {key!r} must be a list of vertex indices")
        for k, c in enumerate(tup):
            if not is_integer(c):
                raise ValueError(f"selection for {key!r}: entry {k} is not an integer ({c!r})")
        selection[joint] = tuple(tup)
    return selection


def _cmd_meet(args) -> int:
    # library meet ignores the options its belief does not read; the command line refuses them
    if args.epsilon is not None and args.belief != "mixture":
        raise ValueError(f"--epsilon applies only to --belief mixture, not {args.belief}")
    if args.selection is not None and args.belief == "vacuous":
        raise ValueError("--selection applies only to --belief degenerate or mixture, not vacuous")
    if args.sense is not None and args.belief == "degenerate":
        raise ValueError("--sense applies only to --belief vacuous or mixture, not degenerate")
    model = _load(args.model)
    selection = _read_selection(model, args.selection)
    result = meeting.meet(
        model,
        agents=args.agents,
        belief=args.belief,
        sense=args.sense or "upper",
        mode=args.mode,
        selection=selection,
        epsilon=args.epsilon,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    head = f"{args.belief} expected meeting times, {args.agents} agents, {args.mode} mode"
    if result.sense:
        head += f", {result.sense} bound"
    if result.epsilon is not None:
        head += f", epsilon {result.epsilon}"
    print(head)
    labels = model.space.labels
    joint_labels = result.product.labels
    if args.agents == 2:
        cells = [[_fmt(v) for v in row] for row in result.matrix().tolist()]
        width = 2 + max(len(s) for s in [*labels, *itertools.chain(*cells)])
        left = 2 + max(len(s) for s in labels)
        print("\n".join([" " * left + "".join(f"{s:>{width}}" for s in labels)] + [
            f"{lab:<{left}}" + "".join(f"{c:>{width}}" for c in row) for lab, row in zip(labels, cells)]))
    else:
        print("\n".join([f"{'state':<20}{'value':>16}"] + [
            f"{lab:<20}{_fmt(value):>16}" for lab, value in zip(joint_labels, result.values.tolist())]))
    print(f"{result.iterations} iterations, residual {result.residual:.3e}, "
          f"converged {result.converged}")
    _report(args, lambda: {
        "parameters": {
            "agents": args.agents, "belief": args.belief,
            "sense": result.sense, "mode": args.mode,
            "epsilon": result.epsilon, "tol": encode_value(args.tol), "max_iter": args.max_iter,
        },
        "model": _model_info(args.model, model),
        "values": {lab: encode_value(v) for lab, v in zip(joint_labels, result.values.tolist())},
        # each off-diagonal state's row of the choices array, in state order
        "selections": dict(itertools.compress(zip(joint_labels, result.choices.tolist()),
                                              (~result.product.target_mask()).tolist())),
        "classification": _classification_labels(joint_labels, result.classification),
        "diagnostics": _diagnostics(result),
    })
    return _check_converged(result, args.max_iter, "sweeps")


def _cmd_simulate(args) -> int:
    model = _load(args.model)
    stack, offsets = model.stack, model.offsets
    if len(stack) != model.size:  # every row has a vertex, so some row has several
        i = int(np.flatnonzero(np.diff(offsets) > 1)[0])
        raise ValueError(f"simulation needs a precise model; row {model.space.labels[i]!r} "
                         f"has {model.vertex_count(i)} vertices")
    matrix = TransitionMatrix(model.space, stack)
    targets = _targets(model, args.target)
    start = model.space.index(args.start)
    summary = simulate_hitting(
        matrix, targets, start,
        trials=args.trials, horizon=args.horizon, seed=args.seed,
    )
    print(f"simulated {summary.trials} paths from {args.start!r} "
          f"(horizon {args.horizon}, seed {args.seed})")
    mean = "n/a" if summary.mean is None else f"{summary.mean:.6f}"
    var = "n/a" if summary.variance is None else f"{summary.variance:.6f}"
    print(f"uncensored {summary.uncensored}, censored {summary.censored}")
    print(f"mean {mean}, variance {var}")
    _report(args, lambda: {
        "parameters": {
            "target": sorted(model.space.labels[i] for i in targets),
            "start": args.start, "trials": args.trials,
            "horizon": args.horizon, "seed": args.seed,
        },
        "model": _model_info(args.model, model),
        "result": {
            "mean": summary.mean, "variance": summary.variance,
            "censored": summary.censored, "uncensored": summary.uncensored,
            "trials": summary.trials,
        },
    })
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    ok = run_selfcheck()
    _report(args, lambda: {"passed": ok})
    return EXIT_OK if ok else EXIT_INVALID


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="credalmeet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, handler, with_model=True):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        if with_model:
            p.add_argument("model", help="model file path, or builtin:five-state")
        p.add_argument("--json", metavar="PATH", help="also write a JSON result file")
        return p

    add("validate", "check a model file and list every violation", _cmd_validate)

    p = add("classify", "partition the states for a hitting-time bound", _cmd_classify)
    p.add_argument("--target", help="comma-separated target labels")
    p.add_argument("--sense", choices=("upper", "lower"), required=True)
    p.add_argument("--agents", type=int, default=None,
                   help="classify the joint pair space instead, target = diagonal")
    p.add_argument("--mode", choices=("full", "quotient"), default="quotient")

    p = add("hit", "bound the expected hitting time of a target set", _cmd_hit)
    p.add_argument("--target", required=True, help="comma-separated target labels")
    p.add_argument("--sense", choices=("upper", "lower"), required=True)
    p.add_argument("--method", choices=("policy", "value"), default="policy")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=None)

    p = add("meet", "bound the expected meeting time of several agents", _cmd_meet)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--belief", choices=("degenerate", "vacuous", "mixture"), default="vacuous")
    p.add_argument("--sense", choices=("upper", "lower"), default=None,
                   help="bound of vacuous and mixture beliefs (default upper)")
    p.add_argument("--epsilon", type=float, default=None, help="mixture weight in [0, 1]")
    p.add_argument("--selection", metavar="FILE",
                   help="YAML map of joint states ('a,b') to vertex index lists")
    p.add_argument("--mode", choices=("full", "quotient"), default="quotient")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)

    p = add("simulate", "estimate a hitting time of a precise model by simulation", _cmd_simulate)
    p.add_argument("--target", required=True, help="comma-separated target labels")
    p.add_argument("--start", required=True, help="start state label")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    add("selfcheck", "run the built-in verification suite", _cmd_selfcheck, with_model=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ModelFormatError, ModelValidationError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except _NotConverged as exc:
        return _fail(str(exc), EXIT_NO_CONVERGENCE)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        return _fail(exc.args[0] if exc.args else "", EXIT_USAGE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:  # a model or a --json file that cannot be opened
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
