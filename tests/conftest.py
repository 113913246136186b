import cmath

import numpy as np

from driftlab.eigen import principal_eigenpair
from driftlab.expr import grid_angles
from driftlab.operator import Grid, assemble
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


def sparse_mesh(grid):
    """The grid's points as dim broadcastable axis arrays, the a-th of shape
    (n,) along axis a and 1 elsewhere, as validate_scenario builds its mesh."""
    return np.meshgrid(*[grid_angles(grid.n)] * grid.dim, indexing="ij", sparse=True)


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


def fourier_principal(scenario, eps, K):
    """Oracle: the rightmost eigenvalue of the continuum operator
    eps*Lap u + b.grad u + c u of a scenario, from its Fourier-Galerkin
    matrix on the modes m with every |m_a| <= K, numbered row-major. Entry
    (m, m') is -eps*|m|^2 on the diagonal plus sum_a b_a,(m-m')*i*m'_a +
    c_(m-m'), with f_k the harmonics of f (0 past |k_a| = 2K)."""
    dim = scenario.dim
    axis = np.arange(-K, K + 1)
    modes = [g.ravel() for g in np.meshgrid(*[axis] * dim, indexing="ij")]
    # m - m' per axis, offset into 0..4K
    diff = tuple(m[:, None] - m[None, :] + 2 * K for m in modes)

    def convolution(f):
        coef = np.zeros((4 * K + 1,) * dim, dtype=complex)
        for k, a in f.harmonics(dim).items():
            if max(map(abs, k)) <= 2 * K:
                coef[tuple(ka + 2 * K for ka in k)] = a
        return coef[diff]

    M = convolution(scenario.b[0]) * (1j * modes[0])
    for b, m in zip(scenario.b[1:], modes[1:]):
        M += convolution(b) * (1j * m)
    square = modes[0].astype(float) ** 2
    for m in modes[1:]:
        square += m.astype(float) ** 2
    M = M + convolution(scenario.c) - eps * np.diag(square)
    return float(np.max(np.linalg.eigvals(M).real))


def separable_principal(parts, n, eps):
    """Oracle: (lam, u) of the upwind operator on the (n,)*dim grid of a
    scenario whose b_a depends on x_a alone and whose c is a sum of parts
    c_a(x_a). Its stencil is then the Kronecker sum of the 1D stencils of
    `parts`, one 1D scenario per axis with b_a and c_a written in x1, so lam
    is the sum of their principal values and u the Kronecker product of
    their vectors, row-major with x1 slowest. Each 1D value is certified to
    1e-11, past the solver's default tol, so that the sum stays an oracle."""
    lam, u = 0.0, np.ones(1)
    for part in parts:
        pair = principal_eigenpair(assemble(part, Grid(1, n), eps), tol=1e-11)
        assert pair.certified
        lam += pair.lam
        u = np.kron(u, pair.u)
    return lam, u


def l2_normalize(v, h, dim):
    return v / np.sqrt(np.sum(v * v) * h**dim)


# -- reference harmonics by product expansion ----------------------------------
#
# Expression text is evaluated as Python, with x1..x3 bound to linear forms
# and sin/cos to their two harmonics, by plain dict arithmetic that shares no
# code with TrigExpr. Sums merge the dicts, and a product multiplies every
# pair of entries.


class _Linear:
    """k.x + phase."""

    def __init__(self, k, phase=0.0):
        self.k, self.phase = tuple(k), phase

    def __add__(self, other):
        o = other if isinstance(other, _Linear) else _Linear((0, 0, 0), other)
        return _Linear(map(sum, zip(self.k, o.k)), self.phase + o.phase)

    __radd__ = __add__

    def __mul__(self, c):
        return _Linear((c * k for k in self.k), c * self.phase)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other


class _Harmonics(dict):
    """{m: a_m} with the arithmetic of the functions sum a_m e^{i m.x}."""

    def __add__(self, other):
        out = dict(self)
        for m, a in _harmonics(other).items():
            out[m] = out.get(m, 0j) + a
        return _Harmonics(out)

    __radd__ = __add__

    def __neg__(self):
        return _Harmonics({m: -a for m, a in self.items()})

    def __sub__(self, other):
        return self + -_harmonics(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for i, a in self.items():
            for j, b in _harmonics(other).items():
                m = tuple(p + q for p, q in zip(i, j))
                out[m] = out.get(m, 0j) + a * b
        return _Harmonics(out)

    __rmul__ = __mul__


def _harmonics(value):
    return value if isinstance(value, _Harmonics) else _Harmonics({(0, 0, 0): complex(value)})


def _trig(name):
    def factor(arg):
        ph = cmath.exp(1j * arg.phase)
        a = 0.5 * ph if name == "cos" else -0.5j * ph
        return _Harmonics({arg.k: a}) + _Harmonics({tuple(-k for k in arg.k): a.conjugate()})
    return factor


def reference_harmonics(text, dim):
    """The harmonics {m: a_m} of expression text (Python syntax: explicit
    '*'), keys cut to length dim, zero entries dropped and zero parts +0.0."""
    names = {"sin": _trig("sin"), "cos": _trig("cos"), "__builtins__": {}}
    for i in range(3):
        names["x%d" % (i + 1)] = _Linear(tuple(int(i == j) for j in range(3)))
    harm = _harmonics(eval(text, names))
    return {m[:dim]: a + 0j for m, a in harm.items() if a != 0}
