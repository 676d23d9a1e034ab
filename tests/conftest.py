import numpy as np
import pytest

from fnel import isaacs, laplacian, pucci_max, pucci_min, solver


@pytest.fixture(autouse=True, scope="session")
def eigen_results_lie_in_their_bracket():
    """Every eigenfield made in the suite has lambda1 inside its bracket, the
    min and max of F_h u / u at its eigenvector u, up to the rounding of the
    computed ratios: F_h u is a sum of k stencil terms (k = 3 radial, 9 in
    2D) and u an LU solve's, so each ratio is within about k eps (|A| u)_i /
    u_i for each of the two, A the matrix of the policy F_h picks at u."""
    fields = {cls: cls.field for cls in (solver._RadialGrid, solver._Grid2D)}

    def checked(field):
        def check(grid, u, meta):
            if "lambda_lo" in meta:
                pol = grid.apply(u)[1]
                a, nbr = np.abs(grid.system(pol)), _neighbours(grid, u)
                slack = (2 * a.shape[1] * np.finfo(float).eps
                         * ((a * nbr).sum(axis=1) / u[grid.unknown]).max())
                assert (meta["lambda_lo"] - slack <= meta["lambda1"]
                        <= meta["lambda_hi"] + slack), (meta, slack)
            return field(grid, u, meta)
        return check

    for cls, field in fields.items():
        cls.field = checked(field)
    yield
    for cls, field in fields.items():
        cls.field = field


def _neighbours(grid, u):
    """|u| at each row's stencil, aligned with ``grid.system``'s columns; the
    boundary data of an eigenproblem are zero."""
    if isinstance(grid, solver._Grid2D):
        return np.abs(u[grid.nbr]).T
    p = np.concatenate(([0.0], np.abs(u[grid.unknown]), [0.0]))
    return np.stack([p[:-2], p[1:-1], p[2:]], axis=1)


@pytest.fixture
def lap3():
    return laplacian(3)


@pytest.fixture
def pm3():
    return pucci_max(1.0, 2.0, 3)


@pytest.fixture
def pmin3():
    return pucci_min(1.0, 2.0, 3)


@pytest.fixture
def pm2():
    return pucci_max(1.0, 2.0, 2)


def random_isaacs(rng, n, lam=1.0, Lam=2.0, n_sup=2, n_inf=2):
    """Isaacs operator whose control matrices lie in [lam*I, Lam*I]."""
    fams = []
    for _ in range(n_sup):
        row = []
        for _ in range(n_inf):
            q = rng.standard_normal((n, n))
            q, _ = np.linalg.qr(q)
            eigs = rng.uniform(lam, Lam, n)
            row.append(q @ np.diag(eigs) @ q.T)
        fams.append(row)
    return isaacs(lam, Lam, n, fams)


def counted_solves(monkeypatch):
    """Log the sparse LU work: ``spla.splu`` appends "factorize", a solve
    with its LU appends "solve", and ``spla.spsolve``, which does both,
    appends both; returns the log."""
    import scipy.sparse.linalg as spla

    log = []
    spsolve, splu = spla.spsolve, spla.splu

    class CountedLU:
        def __init__(self, lu):
            self.lu, self.perm_c, self.perm_r = lu, lu.perm_c, lu.perm_r

        def solve(self, *args, **kwargs):
            log.append("solve")
            return self.lu.solve(*args, **kwargs)

    def counted_spsolve(*args, **kwargs):
        log.extend(("factorize", "solve"))
        return spsolve(*args, **kwargs)

    def counted_splu(*args, **kwargs):
        log.append("factorize")
        return CountedLU(splu(*args, **kwargs))

    monkeypatch.setattr(spla, "spsolve", counted_spsolve)
    monkeypatch.setattr(spla, "splu", counted_splu)
    return log
