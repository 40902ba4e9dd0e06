"""Gaussian discriminant baseline over integrated I-Q points.

One full-covariance Gaussian is fit per class by maximum likelihood on
labeled data (a supervised mixture: no EM needed).  Posteriors are computed
in log space through Cholesky factors, so widely separated clusters do not
underflow.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError, IncompatibilityError

COV_REG_SCALE = 1e-9


class GmmClassifier:
    """Per-class Gaussian fit with class priors from training frequencies."""

    def __init__(self, means: np.ndarray, covs: np.ndarray, priors: np.ndarray):
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        self.priors = np.asarray(priors, dtype=float)
        self.n_classes, self.dim = self.means.shape
        self._chols = []
        self._log_norms = []
        for c in range(self.n_classes):
            try:
                L = np.linalg.cholesky(self.covs[c])
            except np.linalg.LinAlgError as e:
                raise DataError(f"covariance of class {c} is not positive definite") from e
            self._chols.append(L)
            self._log_norms.append(
                -0.5 * self.dim * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(L)))
            )

    @classmethod
    def fit(cls, points: np.ndarray, labels: np.ndarray) -> "GmmClassifier":
        """Maximum-likelihood fit; covariances use the biased (1/n) estimator
        plus a tiny trace-scaled diagonal ridge for numerical safety."""
        X = np.asarray(points, dtype=float)
        y = np.asarray(labels, dtype=int)
        if X.ndim != 2:
            raise ConfigurationError("points must be (n, dim)")
        if y.shape != (X.shape[0],):
            raise ConfigurationError("labels must match points")
        if not np.isfinite(X).all():
            raise DataError("cannot fit on non-finite points")
        classes = np.unique(y)
        n_classes = int(classes.max()) + 1
        if set(classes.tolist()) != set(range(n_classes)):
            raise DataError("every class from 0 to max(label) needs at least one sample")

        dim = X.shape[1]
        means = np.empty((n_classes, dim))
        covs = np.empty((n_classes, dim, dim))
        priors = np.empty(n_classes)
        for c in range(n_classes):
            Xc = X[y == c]
            if len(Xc) <= dim:
                raise DataError(f"class {c} has too few samples for a {dim}-D covariance")
            means[c] = Xc.mean(axis=0)
            centered = Xc - means[c]
            cov = centered.T @ centered / len(Xc)
            cov += COV_REG_SCALE * (np.trace(cov) / dim) * np.eye(dim)
            covs[c] = cov
            priors[c] = len(Xc) / len(X)
        return cls(means, covs, priors)

    def log_posteriors(self, points: np.ndarray) -> np.ndarray:
        """Unnormalized class log-posteriors of (n, dim) points, shape (n, n_classes)."""
        X = np.asarray(points, dtype=float)
        if X.ndim != 2:
            raise ConfigurationError("points must be (n, dim)")
        if X.shape[1] != self.dim:
            raise IncompatibilityError(
                f"model fit on {self.dim}-D points, got {X.shape[1]}-D"
            )
        out = np.empty((X.shape[0], self.n_classes))
        for c in range(self.n_classes):
            diff = X - self.means[c]
            sol = np.linalg.solve(self._chols[c], diff.T)
            maha = np.sum(sol * sol, axis=0)
            out[:, c] = self._log_norms[c] - 0.5 * maha + np.log(self.priors[c])
        return out

    def predict_proba(self, points: np.ndarray) -> np.ndarray:
        lp = self.log_posteriors(points)
        lp = lp - lp.max(axis=1, keepdims=True)
        p = np.exp(lp)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Class indices; ties resolve to the lower index."""
        return np.argmax(self.log_posteriors(points), axis=1)

    def confidence_weights(self, points: np.ndarray, labels: np.ndarray, floor: float = 0.0) -> np.ndarray:
        """Per-sample weight: the posterior mass this model assigns to the
        sample's own label, clipped from below at ``floor``."""
        proba = self.predict_proba(points)
        w = proba[np.arange(len(labels)), np.asarray(labels, dtype=int)]
        return np.maximum(w, floor)

    def arch(self) -> dict:
        return {"kind": "gmm", "n_classes": self.n_classes, "dim": self.dim}

    def param_arrays(self) -> list[np.ndarray]:
        """Fitted tensors in declaration order: means, covariances, priors."""
        return [self.means, self.covs, self.priors]

    @classmethod
    def from_flat(cls, arch: dict, flat: np.ndarray) -> "GmmClassifier":
        nc, dim = arch["n_classes"], arch["dim"]
        means = flat[: nc * dim].reshape(nc, dim).copy()
        covs = flat[nc * dim : nc * dim + nc * dim * dim].reshape(nc, dim, dim).copy()
        priors = flat[nc * dim + nc * dim * dim :].copy()
        return cls(means, covs, priors)
