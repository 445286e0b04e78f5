"""Output oracle and the plain compiled feed-forward arm.

The reference is the benchmark's own dense float64 feed-forward, independent
of every kernel in the program.  SDGC outputs are compared by category (is
the input column still alive at the last layer, the contest's golden check);
medium-A outputs by predicted class (``stack.tail`` argmax).  Exact values are
not compared: on deep SDGC nets float rounding is amplified layer by layer,
while the categories are stable.
"""

from __future__ import annotations

import numpy as np


def dense_forward(net, y0: np.ndarray) -> np.ndarray:
    """``Y(l)`` by dense float64 matrix products, one layer at a time."""
    y = np.asarray(y0, dtype=np.float64)
    for layer in net.layers:
        z = layer.weight.to_dense().astype(np.float64) @ y
        z += np.asarray(layer.bias_column(), dtype=np.float64)
        y = np.clip(z, 0.0, net.ymax)
    return y


def sdgc_labels(y_last: np.ndarray) -> np.ndarray:
    """SDGC category per column: True where the input is still alive."""
    return (np.asarray(y_last) != 0).any(axis=0)


def class_labels(stack, y_last: np.ndarray) -> np.ndarray:
    """Predicted class per column of a medium network's sparse-stack output."""
    return np.argmax(stack.tail(np.asarray(y_last, dtype=np.float32)), axis=1)


def mismatches(labels: np.ndarray, reference: np.ndarray) -> int:
    """Columns whose label disagrees with the reference's."""
    if labels.shape != reference.shape:
        raise ValueError(f"label shapes differ: {labels.shape} vs {reference.shape}")
    return int(np.count_nonzero(labels != reference))


class CsrFeedForward:
    """Plain ``scipy.sparse`` CSR feed-forward: the kernel floor.

    No compression, no strategy choice, no compaction: one CSR product, bias
    add and clamp per layer, in float32 like the engines.
    """

    def __init__(self, net):
        import scipy.sparse as sp

        self.ymax = float(net.ymax)
        self.layers = [
            (
                sp.csr_matrix(
                    (
                        layer.weight.data.astype(np.float32),
                        layer.weight.indices,
                        layer.weight.indptr,
                    ),
                    shape=layer.weight.shape,
                ),
                np.asarray(layer.bias_column(), dtype=np.float32),
            )
            for layer in net.layers
        ]

    def __call__(self, y0: np.ndarray) -> np.ndarray:
        y = np.asarray(y0, dtype=np.float32)
        for weight, bias in self.layers:
            y = weight @ y
            y += bias
            np.clip(y, 0.0, self.ymax, out=y)
        return y
