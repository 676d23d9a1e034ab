import numpy as np
import pytest

from fnel import isaacs, laplacian, pucci_max, pucci_min, solver


@pytest.fixture(autouse=True, scope="session")
def eigen_results_lie_in_their_bracket():
    """Every eigenfield made in the suite has lambda1 inside its bracket, the
    min and max of F_h u / u at its eigenvector u, which the eigen loop
    widens by the rounding of the computed ratios."""
    fields = {cls: cls.field for cls in (solver._RadialGrid, solver._Grid2D)}

    def checked(field):
        def check(grid, u, meta):
            if "lambda_lo" in meta:
                assert meta["lambda_lo"] <= meta["lambda1"] <= meta["lambda_hi"], meta
            return field(grid, u, meta)
        return check

    for cls, field in fields.items():
        cls.field = checked(field)
    yield
    for cls, field in fields.items():
        cls.field = field


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
    """Log the LU work of both grids: ``spla.splu`` and LAPACK's tridiagonal
    ``dgttrf`` append "factorize", a solve with a SuperLU LU or by
    ``dgttrs`` appends "solve", and ``spla.spsolve``, which does both,
    appends both; returns the log."""
    import scipy.sparse.linalg as spla
    from scipy.linalg import lapack

    log = []
    splu = spla.splu

    class CountedLU:
        def __init__(self, lu):
            self.lu, self.perm_c, self.perm_r = lu, lu.perm_c, lu.perm_r

        def solve(self, *args, **kwargs):
            log.append("solve")
            return self.lu.solve(*args, **kwargs)

    def counted(fn, *entries):
        def wrapped(*args, **kwargs):
            log.extend(entries)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spla, "spsolve", counted(spla.spsolve, "factorize", "solve"))
    monkeypatch.setattr(spla, "splu", lambda *a, **k: log.append("factorize")
                        or CountedLU(splu(*a, **k)))
    monkeypatch.setattr(lapack, "dgttrf", counted(lapack.dgttrf, "factorize"))
    monkeypatch.setattr(lapack, "dgttrs", counted(lapack.dgttrs, "solve"))
    return log
