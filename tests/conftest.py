import numpy as np

from driftlab.scenario import load_scenario

# a 3D sink: one attracting point at 0, the 3D case of the solver and
# operator tests
SINK_3D = {
    "name": "sink-3d", "dim": 3,
    "b": ["-sin(x1)", "-sin(x2)", "-sin(x3)"],
    "c": "cos(x1) + cos(x2)*cos(x3)",
    "L": "3 - cos(x1) - cos(x2) - cos(x3)",
    "components": [{"type": "point", "location": [0.0, 0.0, 0.0]}],
}


def bare_scenario(dim, b, c, L="0"):
    """A scenario with the given fields and no declared components."""
    return load_scenario({
        "name": "raw", "dim": dim, "b": b, "c": c, "L": L, "components": [],
    })


def to_dense(op):
    """Oracle: the dense matrix of a stencil operator, each neighbour
    coupling placed at the column np.roll finds for it."""
    grid = op.grid
    idx = np.arange(grid.size).reshape((grid.n,) * grid.dim)
    rows = idx.ravel()
    dense = np.diag(op.diag)
    for a in range(grid.dim):
        for k, step in ((2 * a, -1), (2 * a + 1, 1)):  # x + h*e_a, x - h*e_a
            dense[rows, np.roll(idx, step, axis=a).ravel()] += op.off[k]
    return dense


def dense_principal(dense):
    """Oracle: leading eigenpair of a dense matrix by full nonsymmetric solve.

    Returns (lam, vec, gap) with vec normalized to positive sign and unit
    max-norm, gap = distance from the leading real part to the next one.
    """
    lam, vecs = np.linalg.eig(dense)
    order = np.argsort(lam.real)
    lead = order[-1]
    gap = float(lam.real[order[-1]] - lam.real[order[-2]])
    v = vecs[:, lead].real
    v = v * np.sign(v[np.argmax(np.abs(v))])
    v = v / np.max(np.abs(v))
    return float(lam[lead].real), v, gap


def l2_normalize(v, h, dim):
    return v / np.sqrt(np.sum(v * v) * h**dim)
