"""Restarted GMRES with a least-squares solve of the whole Hessenberg system
after every product, kept as an oracle for ``solver._gmres``.

It is the loop the solver ran before its Givens rotations: one
``np.linalg.lstsq`` call and one new iterate per product. The stop rules
are the solver's own (``_gmres_bound``, ``_gmres_cycles``, ``give_up``,
and a ``slack`` that raises every stop test's target to ``max(bound,
slack)``), so the two must take the same number of products and agree to
rounding. Its in-cycle test, the misfit against the target at the sup-norm
of the iterate it would form, is the solver's own: the solver forms that
iterate, from one solve of its rotated triangle, at every product once the
misfit is within ``max(sqrt(eps), slack)``, since no larger misfit can meet
a target.
"""

import math

import numpy as np

from credalmeet.solver import GMRES_RESTART, _gmres_bound, _gmres_cycles


def lstsq_gmres(apply, k: int, give_up: bool = False, slack: float = 0.0):
    """Restarted GMRES from zero for ``apply(h) = 1``: the last iterate, the
    sup-norm of its true residual and the number of products."""
    h = np.zeros(k)
    r = np.ones(k)
    norm = math.sqrt(k)
    products = 0
    cycles = _gmres_cycles(k)
    for cycle in range(1, cycles + 1):
        basis = np.empty((GMRES_RESTART + 1, k))
        hess = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        rhs = np.zeros(GMRES_RESTART + 1)
        basis[0], rhs[0] = r / norm, norm
        for j in range(GMRES_RESTART):
            w = apply(basis[j])
            products += 1
            for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal
                c = basis[: j + 1] @ w
                w -= c @ basis[: j + 1]
                hess[: j + 1, j] += c
            hess[j + 1, j] = np.linalg.norm(w)
            y = np.linalg.lstsq(hess[: j + 2, : j + 1], rhs[: j + 2], rcond=None)[0]
            step = y @ basis[: j + 1]
            # the least-squares misfit is the residual's 2-norm, which bounds its sup-norm
            misfit = np.linalg.norm(hess[: j + 2, : j + 1] @ y - rhs[: j + 2])
            if hess[j + 1, j] == 0.0 or misfit <= max(_gmres_bound(k, np.max(np.abs(h + step))), slack):
                break
            basis[j + 1] = w / hess[j + 1, j]
        h = h + step
        r = 1.0 - apply(h)
        residual = float(np.max(np.abs(r)))
        target = max(_gmres_bound(k, np.max(np.abs(h))), slack)
        if residual <= target:
            break
        last, norm = norm, float(np.linalg.norm(r))
        # the 2-norm, cut at the last cycle's rate in each cycle left, must reach the target
        if give_up and not (norm < last and norm * (norm / last) ** (cycles - cycle) <= target):
            break
    return h, residual, products
