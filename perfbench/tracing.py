"""Spans around each layer's entry points, and the per-layer numbers they give.

The library is not edited. For a traced run, :func:`instrument` substitutes
timing wrappers for the layer entry points as the calling module sees them
(``solver.classify_view``, ``solver.CredalChoices``, ``meeting.JointChoices``,
``meeting.build_product_space``, ``meeting.solve_view_policy``,
``cli.write_result``, ``cli.main`` and a few siblings), and for
``CredalMatrix.from_rows`` and ``modelio.parse_model``, which the benchmark's
set-up and the CLI's ``load_model`` both look up at call time. It restores
the originals on exit. The traced run then makes the same public calls as
the untraced one.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root). Spans stay in memory until the run ends. A
span's self time is its duration minus the durations of its direct children;
the self times of one tree therefore sum to its root span.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from credalmeet import cli, core, meeting, modelio, reach, solver

ROOT = "run"

#: Per-layer self-time metric -> span name.
LAYER_SPANS = {
    "modelio.parse_s": "modelio.parse",
    "modelio.write_s": "modelio.write",
    "core.build_s": "core.build",
    "core.values_s": "core.values",
    "reach.classify_s": "reach.classify",
    "solver.self_s": "solver",
    "meeting.product_s": "meeting.product",
    "meeting.view_init_s": "meeting.view_init",
    "meeting.values_s": "meeting.values",
    "meeting.row_s": "meeting.row",
    "meeting.supports_s": "meeting.supports",
    "cli.self_s": "cli",
}

#: Per-layer counters, summed over a traced iteration.
COUNTERS = (
    "modelio.bytes",
    "core.values_calls",
    "core.choices",
    "reach.supports_calls",
    "solver.sweeps",
    "solver.unknowns",
    "meeting.values_calls",
    "meeting.choices",
    "meeting.row_calls",
)


class Tracer:
    """In-memory span recorder with counters; one per traced iteration."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.dense_bytes = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def call(self, name: str, fn, *args):
        i = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(i)

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        out[span[0]] += t
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, counters and ratios of one traced iteration."""
    own = self_times(tracer.spans)
    wall = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    out = {metric: own.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
    out.update({name: float(tracer.counts[name]) for name in COUNTERS})
    states = tracer.counts["reach.states"]
    out["reach.finite_frac"] = tracer.counts["reach.finite"] / states if states else 0.0
    out["solver.dense_bytes"] = float(tracer.dense_bytes)
    out["trace.coverage"] = sum(out[m] for m in LAYER_SPANS) / wall
    out["trace.wall_s"] = wall
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Substitute timing wrappers for the layer entry points while active."""
    t = tracer
    base_choices = reach.CredalChoices
    joint_choices = meeting.JointChoices
    from_rows = core.CredalMatrix.from_rows
    parse_model = modelio.parse_model
    classify_view = reach.classify_view
    solve_policy = solver.solve_view_policy
    solve_value = solver.solve_view_value
    build_product = meeting.build_product_space
    write_result = cli.write_result
    cli_main = cli.main

    class TracedCredalChoices(base_choices):
        def values(self, state, f):
            out = t.call("core.values", base_choices.values, self, state, f)
            t.counts["core.values_calls"] += 1
            t.counts["core.choices"] += len(out)
            return out

        def supports(self, state):
            t.counts["reach.supports_calls"] += 1
            return base_choices.supports(self, state)

    class TracedJointChoices(joint_choices):
        def __init__(self, model, product):
            t.call("meeting.view_init", joint_choices.__init__, self, model, product)

        def values(self, state, f):
            out = t.call("meeting.values", joint_choices.values, self, state, f)
            t.counts["meeting.values_calls"] += 1
            t.counts["meeting.choices"] += len(out)
            return out

        def row(self, state, choice):
            # rows built while materialising supports belong to that span
            if t.current == "meeting.supports":
                return joint_choices.row(self, state, choice)
            t.counts["meeting.row_calls"] += 1
            return t.call("meeting.row", joint_choices.row, self, state, choice)

        def supports(self, state):
            t.counts["reach.supports_calls"] += 1
            return t.call("meeting.supports", joint_choices.supports, self, state)

    def traced_classify(view, targets, sense):
        cls, witness = t.call("reach.classify", classify_view, view, targets, sense)
        t.counts["reach.finite"] += len(cls.finite)
        t.counts["reach.states"] += view.n
        return cls, witness

    def traced_solver(fn, dense):
        def solve(view, targets, sense, tol, max_iter):
            res = t.call("solver", fn, view, targets, sense, tol, max_iter)
            k = len(res.classification.finite)
            t.counts["solver.sweeps"] += res.iterations
            t.counts["solver.unknowns"] += res.iterations * k
            if dense and res.iterations:
                # sub, eye(k) and I - sub of the largest evaluation, computed
                t.dense_bytes = max(t.dense_bytes, 3 * 8 * k * k)
            return res
        return solve

    def traced_parse(text, source="<string>"):
        t.counts["modelio.bytes"] += len(text.encode())
        return t.call("modelio.parse", parse_model, text, source)

    patches = [
        (solver, "CredalChoices", TracedCredalChoices),
        (solver, "classify_view", traced_classify),
        (reach, "classify_view", traced_classify),
        (solver, "solve_view_policy", traced_solver(solve_policy, True)),
        (solver, "solve_view_value", traced_solver(solve_value, False)),
        (meeting, "solve_view_policy", traced_solver(solve_policy, True)),
        (meeting, "JointChoices", TracedJointChoices),
        (meeting, "build_product_space",
         lambda space, agents, mode="quotient": t.call("meeting.product", build_product, space, agents, mode)),
        (core.CredalMatrix, "from_rows",
         classmethod(lambda cls, labels, rows: t.call("core.build", from_rows, labels, rows))),
        (modelio, "parse_model", traced_parse),
        (cli, "write_result", lambda path, payload: t.call("modelio.write", write_result, path, payload)),
        (cli, "main", lambda argv=None: t.call("cli", cli_main, argv)),
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield t
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
