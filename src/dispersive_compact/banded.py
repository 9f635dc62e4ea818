"""Direct solvers for periodic (cyclic) tri- and pentadiagonal systems.

The implicit left-hand side of every catalogued compact scheme is a symmetric
circulant band (beta, alpha, 1, alpha, beta).  Cyclic systems are solved as a
truncated band plus a low-rank corner correction (Woodbury), so each solve
costs O(n).  A dense LU path is provided as a test oracle.

scipy supplies only LAPACK's band routines, loaded on first use from its
compiled ``_flapack`` extension by itself: the ``scipy.linalg`` package is
never imported.  A tridiagonal band of at most DENSE_LIMIT points is
factored in Python by ``dgttrf``'s recurrence and swept for a matrix
right-hand side as numpy rows (a few columns, such as the corner columns, in
Python floats), so the dense-path KdV runs (paper sizes) never load scipy;
its vector solves go to ``dgttrs``.  These solves, and every pentadiagonal
one (``dgbtrf``/``dgbtrs``), have the bits of ``scipy.linalg.solve_banded``.
A larger tridiagonal band, positive definite since |alpha| < 1/2, is
factored as LDL^T by ``dpttrf`` and solved by ``dpttrs``, twice as fast as
``dgttrs`` and within a few ulps of it.  LAPACK factors at construction.
``solve`` gives each column of a matrix right-hand side the bits of its own
vector solve, so a dense operator built from the identity rounds as its
banded apply does.  The spectral analysis (``check_invertible`` and
everything in ``spectral``) needs numpy alone.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

# Circulants of up to DENSE_LIMIT points are applied by a dense matrix that
# ``operators`` builds from this solver's solves (the crossover is measured
# there).  Tridiagonal solvers of up to DENSE_LIMIT points factor and sweep
# in numpy; larger solvers flush the subnormal tails of their corner columns,
# which at dense-path sizes would move the dense matrices' bits.
DENSE_LIMIT = 384


@functools.cache
def _lapack():
    """scipy's ``_flapack`` extension, whose functions ``scipy.linalg.lapack``
    re-exports: loaded by itself in 13-20 ms and 3 MB, against 0.19-0.23 s
    and 28 MB through ``scipy.linalg`` (numpy loaded, 2-vCPU x86-64 VM)."""
    import scipy

    directory = os.path.join(scipy.__path__[0], "linalg")
    finder = importlib.machinery.FileFinder(directory, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's _flapack extension not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gttrf(n: int, alpha: float) -> tuple:
    """``dgttrf``'s factor of the band (alpha, 1, alpha), by its recurrence.
    |alpha| < 1/2 keeps every pivot above |alpha|, so ``dgttrf`` never
    interchanges rows: the multipliers and pivots are its bits, ``du2`` is
    zero and ``ipiv`` (1-based) is the identity."""
    d = [1.0] * n
    dl = [alpha] * (n - 1)
    for i in range(n - 1):
        dl[i] = alpha / d[i]
        d[i + 1] = d[i + 1] - dl[i] * alpha
    return (np.array(dl), np.array(d), np.full(n - 1, alpha), np.zeros(n - 2),
            np.arange(1, n + 1, dtype=np.int32))


# the most columns that ``_gtts2`` sweeps in Python floats.  At n = 384 on a
# 2-vCPU x86-64 VM: 2 columns 0.17 ms as floats against 1.10 ms as numpy
# rows, 12 columns 0.91 against 1.13 ms; the rows' cost hardly grows with
# the number of columns, so they win above ~14
_FLOAT_SWEEP_COLUMNS = 12


def _gtts2(dl, d, du, du2, ipiv, rhs: np.ndarray) -> np.ndarray:
    """``dgtts2``'s two sweeps without interchanges, for a matrix right-hand
    side: each column gets the bits ``dgttrs`` gives it, returned in Fortran
    order as ``dgttrs`` returns them.  A block is swept as numpy rows; a
    few columns, such as a solver's two corner columns, are swept one by one
    in Python floats, the same IEEE operations without a numpy call each."""
    b = np.array(rhs, dtype=float)
    factor = dl.tolist(), d.tolist(), du.tolist(), du2.tolist()
    if b.shape[1] <= _FLOAT_SWEEP_COLUMNS:
        return np.array([_sweep(*factor, col) for col in b.T.tolist()]).T
    _sweep(*factor, list(b))
    return np.asfortranarray(b)


def _sweep(dl, d, du, du2, rows: list) -> list:
    """``dgtts2``'s sweeps over ``rows``, in place: numpy rows (views of one
    block) or Python floats, updated by the same operations in the same
    order."""
    n = len(d)
    for i in range(n - 1):
        rows[i + 1] -= dl[i] * rows[i]
    rows[n - 1] /= d[n - 1]
    rows[n - 2] -= du[n - 2] * rows[n - 1]
    rows[n - 2] /= d[n - 2]
    for i in range(n - 3, -1, -1):
        rows[i] -= du[i] * rows[i + 1]
        # du2 is zero, but its product still rounds signed zeros and NaNs
        rows[i] -= du2[i] * rows[i + 2]
        rows[i] /= d[i]
    return rows


class SingularOperatorError(ValueError):
    """The circulant symbol vanishes somewhere on [0, 2*pi)."""


def check_invertible(alpha: float, beta: float) -> None:
    """Raise unless |1 + 2*alpha*cos(w) + 2*beta*cos(2w)| >= 1e-10 for all w.

    With c = cos(w) the symbol is the quadratic D(c) = 1 + 2*alpha*c +
    2*beta*(2c^2 - 1) on [-1, 1], whose range is spanned by its values at the
    endpoints and, when it lies inside, at the vertex c = -alpha/(4*beta).
    """
    cands = [-1.0, 1.0]
    if beta != 0.0 and abs(alpha) < 4.0 * abs(beta):
        cands.append(-alpha / (4.0 * beta))
    values = [1.0 + 2.0 * alpha * c + 2.0 * beta * (2.0 * c * c - 1.0) for c in cands]
    if min(values) < 1e-10 and max(values) > -1e-10:
        raise SingularOperatorError(
            f"LHS symbol vanishes for alpha={alpha}, beta={beta}"
        )


class CyclicBandedSolver:
    """Factorization of a cyclic (beta, alpha, 1, alpha, beta) band.

    Factors the truncated band once (``dgttrf``'s factor when tridiagonal
    of at most DENSE_LIMIT points, ``dpttrf``'s LDL^T when larger,
    ``dgbtrf``'s when pentadiagonal) and precomputes the corner-correction
    data; ``solve`` is then one pair of triangular sweeps (``dgttrs``,
    ``dpttrs`` or ``dgbtrs``, or ``dgttrs``'s numpy form for a small band's
    matrix right-hand side) plus a rank-2 (tridiagonal) or rank-4
    (pentadiagonal) correction.  Up to DENSE_LIMIT and for pentadiagonal
    bands the sweeps are the ones ``scipy.linalg.solve_banded`` runs, so the
    results are the same bits; a larger tridiagonal solve rounds apart from
    them by a few ulps.  Immutable after construction and safe to share;
    ``solve`` writes to its argument only when it is also ``out``.
    """

    def __init__(self, n: int, alpha: float, beta: float = 0.0):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.n = int(n)
        self.bandwidth = 2 if beta != 0.0 else (1 if alpha != 0.0 else 0)
        if self.bandwidth and n < 2 * self.bandwidth + 1:
            raise ValueError(f"n={n} too small for bandwidth {self.bandwidth}")
        check_invertible(self.alpha, self.beta)
        if self.bandwidth == 0:
            return

        p, n = self.bandwidth, self.n
        diags = {0: 1.0, 1: alpha, -1: alpha}
        if p == 2:
            diags.update({2: beta, -2: beta})
        ab = np.zeros((2 * p + 1, n))
        for off, val in diags.items():
            if off >= 0:
                ab[p - off, off:] = val
            else:
                ab[p - off, :off] = val
        self._ab = ab
        if self._numpy_sweeps:
            # check_invertible has left |alpha| < 1/2: no pivot can vanish
            self._factor = _gttrf(n, self.alpha)
        else:
            if p == 1:
                # |alpha| < 1/2 makes the band positive definite: its LDL^T
                # solve takes half dgttrs's time (n = 385 to 8193)
                *factor, info = _lapack().dpttrf(ab[1], ab[0, 1:])
                failure = "not positive definite"
            else:
                # dgbtrf keeps p extra superdiagonal rows for the interchanges
                *factor, info = _lapack().dgbtrf(
                    np.vstack((np.zeros((p, n)), ab)), p, p)
                failure = "singular"
            if info != 0:
                raise SingularOperatorError(
                    f"truncated band is {failure} (info={info}) for alpha={alpha}, beta={beta}"
                )
            self._factor = tuple(factor)

        # wrap entries missing from the truncated band, as rank-2p correction
        corners = []
        for i in range(p):
            for off in range(i + 1, p + 1):
                val = diags[off]
                corners.append((i, (i - off) % n, val))        # top-left wrap
                corners.append((n - 1 - i, (n - 1 - i + off) % n, val))
        rows = sorted({i for i, _, _ in corners})
        u = np.zeros((n, len(rows)))
        vt = np.zeros((len(rows), n))
        for k, r in enumerate(rows):
            u[r, k] = 1.0
            for i, j, val in corners:
                if i == r:
                    vt[k, j] += val
        g = self._band_solve(u)
        cap = np.eye(len(rows)) + vt @ g
        if n > DENSE_LIMIT:
            # g decays geometrically away from the corners; its subnormal
            # tail adds nothing to a solve but makes ``g @ w`` ~10x slower
            g[np.abs(g) < np.finfo(float).tiny] = 0.0
        self._g = g
        self._vt = vt
        self._cap_inv = np.linalg.inv(cap)

    @property
    def _numpy_sweeps(self) -> bool:
        """Whether the band is factored, and swept for a matrix right-hand
        side, in numpy."""
        return self.bandwidth == 1 and self.n <= DENSE_LIMIT

    def _band_solve(self, rhs: np.ndarray, overwrite=False) -> np.ndarray:
        """Solve the truncated band by the stored factor; rhs is copied
        unless ``overwrite`` lets LAPACK solve a contiguous vector in it."""
        if self.bandwidth == 2:
            lu, ipiv = self._factor
            return _lapack().dgbtrs(lu, 2, 2, rhs, ipiv,
                                    overwrite_b=overwrite)[0]
        if not self._numpy_sweeps:
            return _lapack().dpttrs(*self._factor, rhs,
                                    overwrite_b=overwrite)[0]
        if rhs.ndim == 2:
            return _gtts2(*self._factor, rhs)
        return _lapack().dgttrs(*self._factor, rhs, overwrite_b=overwrite)[0]

    def _correct(self, y: np.ndarray, out=None) -> np.ndarray:
        """The corner correction of a band solve ``y``, written into ``out``
        when given.  A block is corrected column by column by ``-``: one
        ``np.subtract(y, c, None)`` a column made a dense build at n = 150
        ~7 % slower."""
        correction = self._g @ (self._cap_inv @ (self._vt @ y))
        if out is None:
            return y - correction
        return np.subtract(y, correction, out)

    def solve(self, rhs: np.ndarray, out=None) -> np.ndarray:
        """Solve A x = rhs, written into ``out`` when given (which may be
        ``rhs``); rhs may be (n,) or (n, k), and each column of a block gets
        the bits that a vector solve gives it alone.  A vector solved into
        itself is overwritten in place by LAPACK when contiguous (a strided
        one, such as a dual parity's rows, is solved in LAPACK's copy).  A
        numpy-swept band solves a block in one sweep and corrects it column
        by column: one matrix product over all columns would round
        differently."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs length {rhs.shape[0]} != n={self.n}")
        if rhs.ndim == 1 and self.bandwidth:
            return self._correct(self._band_solve(rhs, overwrite=out is rhs), out)
        if self.bandwidth == 0:
            x = rhs.copy()
        elif not self._numpy_sweeps:
            x = np.column_stack([self.solve(col) for col in rhs.T])
        else:
            x = np.column_stack([self._correct(y) for y in self._band_solve(rhs).T])
        if out is not None:
            out[...] = x
        return x if out is None else out

    def dense(self) -> np.ndarray:
        """Full matrix, for oracles and small-n construction."""
        n = self.n
        a = np.eye(n)
        for off, val in ((1, self.alpha), (2, self.beta)):
            if val != 0.0:
                idx = np.arange(n)
                a[idx, (idx + off) % n] = val
                a[idx, (idx - off) % n] = val
        return a


def dense_oracle_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense LU with partial pivoting; test oracle only (n <= 512)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] > 512:
        raise ValueError("dense oracle limited to n <= 512")
    return np.linalg.solve(matrix, rhs)
