"""Direct solvers for periodic (cyclic) tri- and pentadiagonal systems.

The implicit left-hand side of every catalogued compact scheme is a symmetric
circulant band (beta, alpha, 1, alpha, beta).  Cyclic systems are solved as a
truncated band plus a low-rank corner correction (Woodbury), so each solve
costs O(n).  A dense LU path is provided as a test oracle.

scipy supplies only the band factorization: LAPACK is imported when the first
band is factored, which KdV ``run`` and ``converge`` do while building their
operators.  The spectral analysis (``check_invertible`` and everything in
``spectral``) needs numpy alone, so the analysis commands never load it.
"""

from __future__ import annotations

import numpy as np

# Circulants of up to DENSE_LIMIT points are applied by a dense matrix that
# ``operators`` builds from this solver's solves (the crossover is measured
# there).  Larger solvers flush the subnormal tails of their corner columns;
# at dense-path sizes that would move the dense matrices' bits.
DENSE_LIMIT = 384


class SingularOperatorError(ValueError):
    """The circulant symbol vanishes somewhere on [0, 2*pi)."""


def check_invertible(alpha: float, beta: float, tol: float = 1e-10) -> None:
    """Raise unless |1 + 2*alpha*cos(w) + 2*beta*cos(2w)| >= tol for all w.

    With c = cos(w) the symbol is the quadratic D(c) = 1 + 2*alpha*c +
    2*beta*(2c^2 - 1) on [-1, 1], whose range is spanned by its values at the
    endpoints and, when it lies inside, at the vertex c = -alpha/(4*beta).
    """
    cands = [-1.0, 1.0]
    if beta != 0.0 and abs(alpha) < 4.0 * abs(beta):
        cands.append(-alpha / (4.0 * beta))
    values = [1.0 + 2.0 * alpha * c + 2.0 * beta * (2.0 * c * c - 1.0) for c in cands]
    if min(values) < tol and max(values) > -tol:
        raise SingularOperatorError(
            f"LHS symbol vanishes for alpha={alpha}, beta={beta}"
        )


class CyclicBandedSolver:
    """Factorization of a cyclic (beta, alpha, 1, alpha, beta) band.

    Factors the truncated band once by LAPACK (``dgttrf`` when tridiagonal,
    ``dgbtrf`` when pentadiagonal) and precomputes the corner-correction
    data; ``solve`` is then one pair of triangular sweeps (``dgttrs`` /
    ``dgbtrs``) plus a rank-2 (tridiagonal) or rank-4 (pentadiagonal)
    correction.  The sweeps are the ones ``scipy.linalg.solve_banded`` runs,
    so the results are the same bits.  Immutable after construction and safe
    to share; ``solve`` never writes to its argument.
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
        from scipy.linalg import lapack  # only factored bands need LAPACK

        if p == 1:
            *factor, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
            self._trs = lapack.dgttrs
        else:
            # dgbtrf keeps p extra superdiagonal rows for the row interchanges
            *factor, info = lapack.dgbtrf(np.vstack((np.zeros((p, n)), ab)), p, p)
            self._trs = lapack.dgbtrs
        if info != 0:
            raise SingularOperatorError(
                f"truncated band is singular (info={info}) for alpha={alpha}, beta={beta}"
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

    def _band_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the truncated band by the stored factor; rhs is copied."""
        if self.bandwidth == 1:
            return self._trs(*self._factor, rhs)[0]
        lu, ipiv = self._factor
        return self._trs(lu, 2, 2, rhs, ipiv)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs; rhs may be (n,) or (n, k)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs length {rhs.shape[0]} != n={self.n}")
        if self.bandwidth == 0:
            return rhs.copy()
        y = self._band_solve(rhs)
        return y - self._g @ (self._cap_inv @ (self._vt @ y))

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
