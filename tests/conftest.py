import numpy as np
import pytest

from fnel import isaacs, laplacian, pucci_max, pucci_min


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
