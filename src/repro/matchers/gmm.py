"""A two-component Gaussian mixture fit with EM (ZeroER's core).

ZeroER's central observation is that similarity vectors of matches and
non-matches follow different distributions; it fits a 2-component GMM on
unlabelled similarity vectors and reads match posteriors off the mixture.
This implementation adds the covariance regularisation ZeroER needs to
stay stable on small candidate sets.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatcherError

__all__ = ["TwoComponentGMM"]


def _log_gaussian(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of N(mean, cov) at the rows of X."""
    # Imported here so that importing the package (a server that only
    # loads an artifact does) leaves scipy unloaded.
    from scipy.linalg import solve_triangular

    dim = X.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = X - mean
    z = solve_triangular(chol, diff.T, lower=True).T
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (dim * np.log(2 * np.pi) + log_det + np.sum(z * z, axis=1))


class TwoComponentGMM:
    """EM for a mixture of two full-covariance Gaussians.

    Component 1 is the *match* component by convention: ``fit`` receives
    initial responsibilities for it (ZeroER seeds them from an aggregate
    similarity heuristic), and the labelling is preserved through EM.
    """

    def __init__(self, reg: float = 1e-3, max_iter: int = 200, tol: float = 1e-6) -> None:
        if reg <= 0:
            raise MatcherError("covariance regularisation must be positive")
        self.reg = reg
        self.max_iter = max_iter
        self.tol = tol
        self.means_: np.ndarray | None = None
        self.covs_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None
        self.n_iter_ = 0

    def fit(self, X: np.ndarray, init_match_responsibility: np.ndarray) -> "TwoComponentGMM":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 4:
            raise MatcherError("GMM needs a 2-D matrix with at least 4 rows")
        resp1 = np.clip(np.asarray(init_match_responsibility, dtype=np.float64), 1e-6, 1 - 1e-6)
        if resp1.shape != (X.shape[0],):
            raise MatcherError("initial responsibilities must be one per row")
        resp = np.stack([resp1, 1.0 - resp1], axis=1)

        previous_ll = -np.inf
        for iteration in range(self.max_iter):
            self._m_step(X, resp)
            log_prob = self._log_prob(X)  # (n, 2) joint log p(x, z)
            total = np.logaddexp(log_prob[:, 0], log_prob[:, 1])
            resp = np.exp(log_prob - total[:, None])
            log_likelihood = float(np.mean(total))
            self.n_iter_ = iteration + 1
            if abs(log_likelihood - previous_ll) < self.tol:
                break
            previous_ll = log_likelihood
        return self

    def _m_step(self, X: np.ndarray, resp: np.ndarray) -> None:
        n, dim = X.shape
        weights = resp.sum(axis=0) + 1e-9
        means = (resp.T @ X) / weights[:, None]
        covs = np.empty((2, dim, dim))
        for k in range(2):
            diff = X - means[k]
            covs[k] = (resp[:, k][:, None] * diff).T @ diff / weights[k]
            covs[k] += self.reg * np.eye(dim)
        self.weights_ = weights / n
        self.means_ = means
        self.covs_ = covs

    def _log_prob(self, X: np.ndarray) -> np.ndarray:
        if self.means_ is None or self.covs_ is None or self.weights_ is None:
            raise MatcherError("GMM is not fitted")
        columns = [
            np.log(self.weights_[k] + 1e-12) + _log_gaussian(X, self.means_[k], self.covs_[k])
            for k in range(2)
        ]
        return np.stack(columns, axis=1)

    def match_posterior(self, X: np.ndarray) -> np.ndarray:
        """P(match component | x) for each row of X."""
        log_prob = self._log_prob(np.asarray(X, dtype=np.float64))
        total = np.logaddexp(log_prob[:, 0], log_prob[:, 1])
        return np.exp(log_prob[:, 0] - total)
