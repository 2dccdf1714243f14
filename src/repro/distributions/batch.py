"""Exact elementwise math for batched density evaluation.

The batched distribution API (``Distribution.log_prob_batch``) promises
results **bitwise identical** to the scalar ``log_prob`` evaluated
per element.  That promise is what lets the columnar SMC path
(:mod:`repro.core.columnar`) reproduce the object path byte for byte —
and it rules out numpy's array transcendentals: on common builds,
``np.log``/``np.exp``/``np.log1p`` use SIMD kernels whose results differ
from :mod:`math`'s (libm's) scalar results by one ulp on a few percent
of inputs.  Elementwise ``+``, ``-``, ``*``, ``/``, ``np.maximum`` and
``np.sqrt`` are exactly rounded either way, so plain array arithmetic is
safe; only the transcendentals need care.

The helpers here apply the :mod:`math` function element by element
(C-speed via ``map`` over ``tolist``) for arrays, and delegate to
:mod:`math` directly for scalars — so code written against them is
literally the scalar implementation when handed scalars, and its exact
elementwise image when handed arrays.

Throughput is a few tens of nanoseconds per element — orders of
magnitude faster than one Python-level ``log_prob`` call per particle,
which is all the columnar hot path needs.

Memo
----

A columnar step hands the same column to the same transcendental many
times: ``TwoNormals.log_prob_batch`` takes ``log`` of the per-particle
``outlier_std`` column once per observation, 305 times per Figure 8
step, and the column never changes within the step.  So each helper
keeps its :data:`_MEMO_ENTRIES` most recently used ``(input, output)``
pairs of float64 arrays (of at most :data:`_MEMO_MAX_SIZE` elements)
and answers a repeated input with a copy of the stored output.

The memo is keyed on **bits**, not on ``==``: a hit needs the input's
``uint64`` view to equal the stored one element for element.  Value
equality would be wrong twice over — ``-0.0 == 0.0`` although
``log1p(-0.0)`` is ``-0.0`` and ``log1p(0.0)`` is ``0.0``, and
``nan != nan`` would make a NaN lane miss forever.  Inputs are copied
on insertion and outputs are copied on the way out, so mutating either
array afterwards cannot change a later result; entries are never
mutated.  Each thread has its own memo (the service runs sessions on
shard threads), so no lock is taken.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, List, Tuple, Union

import numpy as np

__all__ = ["exp", "log", "log1p", "sqrt", "lgamma", "ArrayOrFloat"]

ArrayOrFloat = Union[np.ndarray, float]


#: Recently used ``(input bits, output)`` pairs kept per helper and thread.
_MEMO_ENTRIES = 4
#: Larger arrays are computed but not remembered (bounds the memo's memory).
_MEMO_MAX_SIZE = 1 << 16


def _exact_unary(fn: Callable[[float], float]) -> Callable[[ArrayOrFloat], ArrayOrFloat]:
    """Lift a scalar libm function to an exact elementwise array function."""
    local = threading.local()

    def compute(x: np.ndarray) -> np.ndarray:
        flat = np.fromiter(map(fn, x.ravel().tolist()), dtype=np.float64, count=x.size)
        return flat.reshape(x.shape)

    def apply(x: ArrayOrFloat) -> ArrayOrFloat:
        if not isinstance(x, np.ndarray):
            return fn(x)
        if x.dtype != np.float64 or x.size > _MEMO_MAX_SIZE:
            return compute(x)
        memo: List[Tuple[int, np.ndarray, np.ndarray]] = getattr(local, "memo", None)
        if memo is None:
            memo = local.memo = []
        bits = x.view(np.uint64)
        # The first element's bits reject nearly every miss without a
        # whole-array comparison.
        head = int(bits.flat[0]) if bits.size else -1
        for position, (key_head, key, out) in enumerate(memo):
            if key_head == head and key.shape == bits.shape and np.array_equal(key, bits):
                if position:
                    memo.insert(0, memo.pop(position))
                return out.copy()
        result = compute(x)
        memo.insert(0, (head, bits.copy(), result.copy()))
        del memo[_MEMO_ENTRIES:]
        return result

    apply.__name__ = fn.__name__
    apply.__doc__ = f"Exact elementwise ``math.{fn.__name__}`` (scalar passthrough)."
    return apply


exp = _exact_unary(math.exp)
log = _exact_unary(math.log)
log1p = _exact_unary(math.log1p)
lgamma = _exact_unary(math.lgamma)

# np.sqrt is correctly rounded (IEEE 754 requires it), so the fast numpy
# kernel is bitwise identical to math.sqrt and can be used directly.
def sqrt(x: ArrayOrFloat) -> ArrayOrFloat:
    """Exact elementwise square root (``np.sqrt`` is correctly rounded)."""
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x)
