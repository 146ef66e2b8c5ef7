"""Fault injection into MAC multiplications.

The paper estimates the accuracy impact of aging-induced timing errors by
flipping one of the two most significant bits of multiplier outputs with a
given probability (Fig. 1b): post-synthesis timing simulation of millions of
multiplications per inference is infeasible, so errors are injected at the
software level instead.

:class:`MsbBitFlipInjector` implements that model for the integer execution
path: each unsigned product ``q_a * q_w`` computed by the (8x8) multiplier
is hit independently with probability ``probability``; a hit flips one
randomly chosen bit among ``msb_bits``.  Instead of materialising every
product, the injector samples the number of hits from the exact binomial
distribution, gathers only the hit products and scatter-adds the
corresponding value deltas into the accumulator matrix with one
``np.bincount`` (exact in any order: the deltas are integer-valued), which
keeps the NumPy inference fast while remaining statistically faithful.

Stream contract: each call draws, in this order, the binomial event count,
one flat product position per event (with replacement, so a product can be
hit twice) and one index into ``msb_bits`` per event.  The same seed and
operand shapes therefore draw the same (position, bit) pairs, whatever the
code dtype or the order in which the activation columns arrive, and the
generator is left in the same state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

import repro.observability as observability
from repro.utils.rng import make_rng


@dataclass
class MsbBitFlipInjector:
    """Random MSB bit-flip injector for MAC products.

    Attributes:
        probability: per-multiplication probability of a bit flip.
        msb_bits: candidate bit positions (LSB-first indices into the
            product word); the paper uses the two MSBs of the 16-bit product.
        product_bits: width of the multiplier output word.
        rng: seed or generator for the random fault locations.
        max_events_per_call: safety cap on the number of injected faults per
            call (prevents pathological memory use if the caller passes an
            enormous probability and operand count).  Faults drawn beyond
            it are dropped, counted in ``nn.faults.truncated_events`` and
            reported with a ``RuntimeWarning``.  The faults applied are
            counted in ``nn.faults.events``.
    """

    probability: float
    msb_bits: tuple[int, ...] = (14, 15)
    product_bits: int = 16
    rng: "int | np.random.Generator | None" = None
    max_events_per_call: int = 5_000_000
    _generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not self.msb_bits:
            raise ValueError("msb_bits must not be empty")
        if any(bit < 0 or bit >= self.product_bits for bit in self.msb_bits):
            raise ValueError("msb_bits must lie inside the product word")
        self._generator = make_rng(self.rng)

    def accumulation_deltas(
        self,
        q_activations: np.ndarray,
        q_weights: np.ndarray,
        columns: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Value deltas to add to the accumulator matrix ``q_a @ q_w``.

        Hit products are drawn as flat positions ``(i * K + k) * N + j``
        over the canonical order of k, the order of ``q_weights``' rows,
        whatever order the activation columns arrive in; so the same random
        stream hits the same products.  Each position costs one floor
        division by the scalar ``K * N``: its remainder is the flat index of
        ``q_weights[k, j]``, from which k, j, the activation index and the
        output index follow by integer arithmetic.  The bit flip is applied
        to the exact int64 product of the two codes.

        Args:
            q_activations: unsigned activation codes, shape (M, K).
            q_weights: unsigned weight codes, shape (K, N), in the canonical
                order of k.
            columns: for each canonical k, the column of ``q_activations``
                that holds it (a length-K index array), when the activation
                columns are permuted (a channels-last unfold); ``None`` when
                they are in canonical order.

        Hit products are gathered through flat indices, which is cheapest
        when both operands are C-contiguous.

        Returns:
            A dense (M, N) array of deltas, or ``None`` when no fault was
            sampled (so callers can skip the addition).
        """
        if self.probability == 0.0:
            return None
        if q_activations.ndim != 2 or q_weights.ndim != 2:
            raise ValueError("expected 2-D operand matrices")
        rows, inner = q_activations.shape
        inner_w, cols = q_weights.shape
        if inner != inner_w:
            raise ValueError(
                f"operand shapes do not align: {q_activations.shape} @ {q_weights.shape}"
            )
        total_products = rows * inner * cols
        if total_products == 0:
            return None
        num_events = int(self._generator.binomial(total_products, self.probability))
        if num_events == 0:
            return None
        if num_events > self.max_events_per_call:
            dropped = num_events - self.max_events_per_call
            observability.add("nn.faults.truncated_events", dropped)
            warnings.warn(
                f"sampled {num_events} faults but max_events_per_call is "
                f"{self.max_events_per_call}; {dropped} faults were dropped",
                RuntimeWarning,
                stacklevel=2,
            )
            num_events = self.max_events_per_call

        observability.add("nn.faults.events", num_events)

        # Stream order: every position d = i * (K * N) + r, then every bit's
        # index into msb_bits.  r = k * N + j is the flat index of
        # q_weights[k, j].  Each index array is reused or dropped once used:
        # a call can draw millions.
        plane = inner * cols
        position = self._generator.integers(0, total_products, size=num_events)
        flips = np.left_shift(1, np.array(self.msb_bits, dtype=np.int64)).take(
            self._generator.integers(0, len(self.msb_bits), size=num_events)
        )
        i = position // plane
        activation_index = i * plane
        position -= activation_index  # r
        weight_codes = q_weights.ravel().take(position)
        k = position // cols
        position -= k * cols  # j
        np.multiply(i, inner, out=activation_index)
        activation_index += k if columns is None else columns.take(k)
        del k
        # The exact int64 product of the codes (each truncated to int64, as
        # astype would), whatever their dtype and magnitude.
        products = np.multiply(
            q_activations.ravel().take(activation_index),
            weight_codes,
            dtype=np.int64,
            casting="unsafe",
        )
        del activation_index, weight_codes
        i *= cols
        i += position  # the flat index of the output (i, j)
        del position
        # The flipped product minus the product: +2^b where bit b was clear,
        # -2^b where it was set.
        flips ^= products
        flips -= products
        del products
        deltas = np.bincount(i, weights=flips, minlength=rows * cols)
        return deltas.reshape(rows, cols)

    def expected_faults(self, num_products: int) -> float:
        """Expected number of injected faults over ``num_products`` MACs."""
        return self.probability * num_products
