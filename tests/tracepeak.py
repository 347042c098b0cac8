"""Peak heap use of a call, the measure behind the memory tests."""

import tracemalloc

import numpy as np

# one 512 x 512 float64 weight, the unit the memory bounds count in
LAYER_BYTES = 512 * 512 * np.dtype(np.float64).itemsize


def peak_layers(fn) -> float:
    """Peak traced bytes of ``fn()`` above its start, in LAYER_BYTES.

    numpy reports its buffers to tracemalloc, so the arrays a call holds
    at once are what this counts. ``fn`` runs once untraced first, so
    lazy imports and first-call caches stay out of the count.
    """
    fn()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / LAYER_BYTES
    finally:
        tracemalloc.stop()


def held_layers(fn) -> float:
    """Traced bytes that ``fn()``'s result still holds once it returns,
    in LAYER_BYTES."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = fn()  # noqa: F841 -- held while the count is taken
        return (tracemalloc.get_traced_memory()[0] - start) / LAYER_BYTES
    finally:
        tracemalloc.stop()
