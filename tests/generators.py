"""Seeded random model builders shared across the test suite.

Vertices mix dense rows with sparse-support ones so that infinite-value
patterns actually occur, next to finite values in a default credal model,
and probabilities on the support stay bounded away from zero so value
iteration contracts at a usable rate.
"""

import numpy as np

from credalmeet import CredalMatrix, TransitionMatrix


def random_distribution(rng, n, dense=True):
    if dense:
        support = np.arange(n)
    else:
        k = int(rng.integers(1, n + 1))
        support = np.sort(rng.choice(n, size=k, replace=False))
    raw = rng.dirichlet(np.ones(support.size))
    raw = 0.8 * raw + 0.2 / support.size
    vec = np.zeros(n)
    vec[support] = raw
    return vec


def random_credal_matrix(rng, n=None, max_vertices=4, dense_prob=None):
    """A model of ``n`` states (2 to 6 when not given), each with 1 to
    ``max_vertices`` vertices.

    With ``dense_prob`` given, each vertex is dense with that probability and
    otherwise puts mass on a random subset of the states. By default a state
    is dense, all its vertices with full support, with probability 0.3; every
    other state has a pool of one or two states, and its vertices put mass
    on the pool alone (one vertex on a one-state pool). A dense vertex touches
    every state, so only states whose vertices keep to a few states can be
    kept from a target set while others reach it surely: over 500 default
    draws with :func:`random_targets`, 5 to 10% have finite and infinite
    states side by side in each sense, against none when every state mixes
    dense and sparse vertices.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    rows = []
    for _ in range(n):
        k = int(rng.integers(1, max_vertices + 1))
        if dense_prob is None:
            dense = bool(rng.random() < 0.3)
            pool = np.arange(n) if dense else np.sort(rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
            k = 1 if pool.size == 1 else k
        verts = []
        seen = set()
        while len(verts) < k:
            if dense_prob is None:
                v = np.zeros(n)
                v[pool] = random_distribution(rng, pool.size, dense=dense)
            else:
                v = random_distribution(rng, n, dense=bool(rng.random() < dense_prob))
            key = tuple(np.round(v / v.sum(), 12))
            if key in seen:
                continue
            seen.add(key)
            verts.append(v)
        rows.append(verts)
    return CredalMatrix.from_rows([f"s{i}" for i in range(n)], rows)


def random_transition_matrix(rng, n, dense_prob=0.7):
    rows = [
        random_distribution(rng, n, dense=bool(rng.random() < dense_prob))
        for _ in range(n)
    ]
    return TransitionMatrix.from_entries([f"s{i}" for i in range(n)], np.stack(rows))


def random_targets(rng, n):
    k = int(rng.integers(1, n))
    return sorted(int(x) for x in rng.choice(n, size=k, replace=False))


def random_selection(rng, model):
    return np.array(
        [int(rng.integers(0, model.vertex_count(i))) for i in range(model.size)]
    )


def two_torus_walk(rng, rough=(2, 3), smooth=(3, 3), lazy=True):
    """A credal walk on a rough and a smooth torus.

    A rough cell offers a deterministic drift to a neighbour and a step that
    stays put with a random probability and otherwise leaks to the smooth
    cell of its position (the first one when the smooth torus has no such
    cell), so walkers on the rough torus can dodge each other forever. A
    smooth cell offers a uniform step over itself and its four neighbours,
    and with ``lazy`` a lazy step on the same cells, so walkers there meet
    almost surely and never leave. Upper meeting times are finite exactly when every
    walker is on the smooth torus, whose choices read the smooth cells' rows
    and columns alone.
    """
    shapes = {"a": rough, "b": smooth}
    labels = [f"{t}{r}_{c}" for t, (rows, cols) in shapes.items() for r in range(rows) for c in range(cols)]
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)

    def row(pairs):
        v = np.zeros(n)
        for i, w in pairs:
            v[i] += w
        return v / v.sum()

    def around(t, r, c):
        rows, cols = shapes[t]
        return [index[f"{t}{(r + dr) % rows}_{(c + dc) % cols}"] for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))]

    vertices = []
    for r in range(rough[0]):
        for c in range(rough[1]):
            own, stay = index[f"a{r}_{c}"], float(rng.uniform(0.2, 0.6))
            leak = index.get(f"b{r}_{c}", index["b0_0"])
            vertices.append([row([(around("a", r, c)[(r + c) % 4], 1.0)]), row([(leak, 1.0 - stay), (own, stay)])])
    for r in range(smooth[0]):
        for c in range(smooth[1]):
            own, stay = index[f"b{r}_{c}"], float(rng.uniform(0.4, 0.8))
            hood = [own, *around("b", r, c)]
            vertices.append([row([(i, 1.0) for i in hood])])
            if lazy:
                vertices[-1].append(row([(own, stay)] + [(i, (1.0 - stay) / 4) for i in hood[1:]]))
    return CredalMatrix.from_rows(labels, vertices)


def trapped_credal_matrix(rng, n, trap, leak):
    """A random model on ``n + trap`` states in shuffled order: ``n`` states
    with up to 3 vertices, some sparse, and ``trap`` states that never leave
    the trap and so have infinite values. With ``leak`` a fifth of the ``n``
    states get one more vertex into the trap: in lower sense it has an inf
    value and is never selected (in upper sense it would make every state
    that reaches it infinite). Returns the model and the shuffled index of
    the first of the ``n`` states."""
    core = random_credal_matrix(rng, n=n, max_vertices=3, dense_prob=0.8)
    total = n + trap
    rows = []
    for i in range(n):
        verts = [np.concatenate([v, np.zeros(trap)]) for v in core.vertices(i)]
        if leak and rng.random() < 0.2:
            into = np.concatenate([random_distribution(rng, n), random_distribution(rng, trap)])
            verts.append(0.5 * into)
        rows.append(verts)
    for _ in range(trap):
        rows.append([np.concatenate([np.zeros(n), random_distribution(rng, trap)])])
    order = rng.permutation(total)
    shuffled = [[v[order] for v in rows[j]] for j in order]
    model = CredalMatrix.from_rows([f"s{i}" for i in range(total)], shuffled)
    return model, int(np.argsort(order)[0])
