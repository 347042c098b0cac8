"""Central finite differences, the oracle for the engine's gradients."""

import numpy as np

from lowbit import tensor as T


def finite_diff_grad(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x`` (Tensor or array).

    Evaluates f once per signed perturbation of each element, so cost is
    2 * x.size forward passes. ``f`` receives a fresh Tensor sharing the
    perturbed buffer and must not mutate or retain it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = np.array(x.data if isinstance(x, T.Tensor) else x,
                    dtype=np.float64, copy=True)
    flat = base.reshape(-1)
    out = np.zeros_like(flat)

    def ev():
        r = f(T.Tensor(base))
        return r.item() if isinstance(r, T.Tensor) else float(r)

    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = ev()
        flat[i] = orig - eps
        fm = ev()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * eps)
    return out.reshape(base.shape)
