"""Differentiable surrogate of the read cost, with its analytic gradient.

Instead of a hard assignment, each module m carries a probability L[m, s] of
belonging to stream s (rows of a softmax over free logits A).  The surrogate
loss is

    loss(L) = sum_s lines(s) * events(s)
    lines(s)  = sum_m n_lines[m] * L[m, s]
    events(s) = sum_e (1 - prod_m (1 - fold[e, m] * L[m, s]))

where ``fold`` is the per-module selection probability from
:func:`streamopt.model.fold_modules`.  For one-hot rows the loss equals the
discrete read cost exactly; in between it is a smooth surrogate (not the
expectation of the discrete cost over rounded assignments).

One kernel evaluates every product.  The fold is recast as a binary
incidence H over columns c = (module m_c, fold value v_c), with identical
event rows merged (:meth:`streamopt.model.ModuleIncidence.row_groups`), so
that

    log prod_m (1 - fold[e, m] L[m, s]) = (H @ log(1 - v_c L[m_c, s]))[e]

costs time in proportion to the nonzeros.  Writing F[c, s] = 1 - v_c L[m_c, s]
and miss[e, s] for the product, the gradient is

    d events(s) / d L[m, s] = sum_{c: m_c = m} v_c (H^T (w * miss))[c] / F[c, s]

with w the row multiplicities.  The multiplicities are folded into H^T once,
when the evaluator is built, so H^T (w * miss) is a single sparse product.
A factor that is exactly zero (v_c = 1 and L = 1, as in one-hot input) has
log1p(-1) = -inf, which H carries to its row, and the row's miss
exp(-inf) = 0 and kept probability -expm1(-inf) = 1 are exact.  Only the
gradient needs more: a zero factor's leave-one-out product is the rest of
its row when it is the row's single zero factor, and 0 when there are two
or more, so the gradient counts zero factors per row, and only when some
factor is exactly zero.  The chain rule through the softmax needs only the
probabilities:
dA[m, s] = L[m,s] * (G[m,s] - sum_s' G[m,s'] L[m,s']).

Restarts are evaluated side by side, one column per (restart, stream), and
every column is computed on its own: the event sum is the product of a
single sparse row of multiplicities with the per-row terms, which adds the
rows in their fixed order for each column.  So a restart's loss and gradient
do not depend on what else is in the batch, which lets the optimizer drop
restarts from the batch without moving the others' trajectories.

Each step's large temporaries go into a workspace: flat buffers that the
evaluator keeps, grown to the widest batch seen, of which a narrower batch
uses a prefix.  The sparse products call scipy's compiled routine, the one
its ``@`` calls, with an output buffer, so results are the same to the bit.
No returned array shares the workspace, but an evaluator is not reentrant:
do not share one across threads.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .model import ModuleIncidence


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax_rows requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(assignments, n_streams: int) -> np.ndarray:
    """One-hot probabilities of integer stream assignments: shape
    ``(..., units)`` becomes ``(..., units, n_streams)``."""
    assignments = np.asarray(assignments, dtype=np.intp)
    probs = np.zeros(assignments.shape + (n_streams,))
    np.put_along_axis(probs, assignments[..., None], 1.0, axis=-1)
    return probs


def _operand(matrix) -> tuple:
    """A CSR or CSC matrix as its compiled product routine, shape, arrays."""
    return (getattr(_sparsetools, matrix.format + "_matvecs"), *matrix.shape,
            matrix.indptr, matrix.indices, matrix.data)


def _product(operand, x: np.ndarray, out: np.ndarray | None = None):
    """``operand @ x`` into the C-contiguous ``out``, zeroed first, or new."""
    matvecs, n_row, n_col, indptr, indices, data = operand
    out = np.empty((n_row, x.shape[1])) if out is None else out
    out.fill(0.0)
    matvecs(n_row, n_col, x.shape[1], indptr, indices, data, x.ravel(),
            out.ravel())
    return out


class LossEvaluator:
    """Repeated loss/gradient evaluation over one folded incidence, with
    ``line_counts`` the number of lines in each module.

    Probability tensors may carry a leading batch axis (one slice per
    restart, or one one-hot scheme per slice).
    """

    def __init__(self, module_incidence: ModuleIncidence, line_counts):
        self.n_modules = module_incidence.n_modules
        line_counts = np.asarray(line_counts, dtype=float)
        if line_counts.shape != (self.n_modules,):
            raise ValueError("line_counts must have one entry per module")
        self._line_counts = line_counts
        groups = module_incidence.row_groups()
        hits, weights = groups.hits, groups.weights
        n_rows, n_columns = self._n_rows, self._n_columns = hits.shape
        self._hits = _operand(hits)
        # H^T with each row's multiplicity in place of its ones, and the
        # multiplicities as one sparse row.
        self._weighted_hits_t = _operand(sp.csc_matrix(
            (np.repeat(weights, np.diff(hits.indptr)), hits.indices,
             hits.indptr), shape=hits.shape[::-1]))
        self._weight_row = _operand(sp.csr_matrix(
            (weights, np.arange(n_rows), [0, n_rows]), shape=(1, n_rows)))
        self._column_module = groups.column_module
        self._neg_column_value = -groups.column_value[:, None]
        # Sums v_c * (per-column term) back onto each column's module; the
        # columns come ordered by module, so each module's row is a range.
        self._to_modules = _operand(sp.csr_matrix(
            (groups.column_value, np.arange(n_columns),
             np.searchsorted(groups.column_module, np.arange(self.n_modules + 1))),
            shape=(self.n_modules, n_columns)))
        self._width, self._flat, self._view = 0, [np.zeros(0)] * 4, []
        # Height of the workspace: rows per batch column of its temporaries.
        self.rows = max(n_rows, n_columns)

    # -- internals ---------------------------------------------------------

    def _views(self, width: int) -> list[np.ndarray]:
        """Workspace views at ``width`` batch columns, remade when it changes:
        (columns, width) for -v_c L and the log factors (later column terms),
        (rows, width) for log miss and its expm1 (later miss)."""
        if width != self._width:
            rows = (self._n_columns,) * 2 + (self._n_rows,) * 2
            self._flat = [f if f.size >= n * width else np.zeros(n * width)
                          for f, n in zip(self._flat, rows)]
            self._view = [f[:n * width].reshape(n, width)
                          for f, n in zip(self._flat, rows)]
            self._width = width
        return self._view

    def _check_probs(self, probs) -> tuple[np.ndarray, bool]:
        probs = np.asarray(probs, dtype=float)
        squeeze = probs.ndim == 2
        if squeeze:
            probs = probs[None, :, :]
        elif probs.ndim != 3:
            raise ValueError("probabilities must be (units, streams) or "
                             "(batch, units, streams)")
        if probs.shape[1] != self.n_modules:
            raise ValueError(f"probabilities have {probs.shape[1]} units, "
                             f"incidence has {self.n_modules} modules")
        return probs, squeeze

    def _forward(self, probs: np.ndarray) -> bool:
        """Fills the workspace with -v_c L[m_c] and the per-row log product
        of the factors (-inf where one is exactly zero), and returns whether
        any factor is exactly zero."""
        n_batch, _, n_streams = probs.shape
        neg_taken, log_factor, log_miss, _ = self._views(n_batch * n_streams)
        # mode="clip" lets take write into the buffer directly.
        probs.transpose(1, 0, 2).take(
            self._column_module, 0, mode="clip",
            out=neg_taken.reshape(-1, n_batch, n_streams))
        neg_taken *= self._neg_column_value
        # v_c L is below 1 unless both are exactly 1 (a NaN also takes the
        # zero-factor branch, which then finds no zeros).
        has_zero = not neg_taken.min(initial=0.0) > -1.0
        with np.errstate(divide="ignore"):
            _product(self._hits, np.log1p(neg_taken, out=log_factor), log_miss)
        return has_zero

    def _events(self, n_batch: int) -> np.ndarray:
        # From the log miss _forward left: kept = -expm1(log miss), summed as
        # -(w @ expm1), an exact sign flip; the product adds rows in order.
        _, _, log_miss, kept_neg = self._view
        events = _product(self._weight_row, np.expm1(log_miss, out=kept_neg))
        return np.negative(events, out=events).reshape(n_batch, -1)

    # -- evaluation --------------------------------------------------------

    def expected_events(self, probs) -> np.ndarray:
        probs, squeeze = self._check_probs(probs)
        self._forward(probs)
        events = self._events(probs.shape[0])
        return events[0] if squeeze else events

    def expected_lines(self, probs) -> np.ndarray:
        probs, squeeze = self._check_probs(probs)
        lines = np.einsum("m,bms->bs", self._line_counts, probs)
        return lines[0] if squeeze else lines

    def loss(self, probs):
        lines = self.expected_lines(probs)
        events = self.expected_events(probs)
        value = np.sum(lines * events, axis=-1)
        return float(value) if np.ndim(value) == 0 else value

    def loss_and_gradient(self, probs):
        """Loss and its gradient with respect to the logits.

        Returns ``(loss, grad)`` with batch shapes matching the input.
        """
        probs, squeeze = self._check_probs(probs)
        counts = self._line_counts
        n_batch, n_modules, n_streams = probs.shape

        has_zero = self._forward(probs)
        events = self._events(n_batch)
        neg_taken, column, log_miss, miss = self._view
        _product(self._weighted_hits_t, np.exp(log_miss, out=miss), column)
        if not has_zero:
            column /= np.add(neg_taken, 1.0, out=neg_taken)
        else:
            zero = neg_taken == -1.0
            column /= np.where(zero, 1.0, 1.0 + neg_taken)
            # A zero factor's leave-one-out product is the rest of its row,
            # nonzero only where it is the row's single zero factor.
            single = _product(self._hits, zero.astype(float)) == 1.0
            rest = np.exp(_product(self._hits,
                                   np.log1p(np.where(zero, 0.0, neg_taken))))
            alone = _product(self._weighted_hits_t, np.where(single, rest, 0))
            column = np.where(zero, alone, column)
        devents = _product(self._to_modules, column).reshape(
            n_modules, n_batch, n_streams).transpose(1, 0, 2)

        lines = np.einsum("m,bms->bs", counts, probs)
        loss = (lines * events).sum(axis=-1)
        # d loss / d L, then through the softmax.
        grad = counts[:, None] * events[:, None, :]
        devents *= lines[:, None, :]
        grad += devents
        grad -= (grad * probs).sum(axis=-1, keepdims=True)
        grad *= probs
        if squeeze:
            return float(loss[0]), grad[0]
        return loss, grad
