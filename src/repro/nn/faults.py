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
            reported with a ``RuntimeWarning``.
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

        Hit products are drawn as (i, k, j) over the canonical order of k,
        the order of ``q_weights``' rows, whatever order the activation
        columns arrive in; so the same random stream hits the same products.

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

        # Product (i, k, j) is drawn as (i * inner + k) * cols + j.  Each
        # index array is dropped once used: a call can draw millions.
        activation_index, j = divmod(
            self._generator.integers(0, total_products, size=num_events), cols
        )
        i, k = divmod(activation_index, inner)
        if columns is not None:
            activation_index = i * inner
            activation_index += columns[k]
        activation_codes = q_activations.ravel()[activation_index]
        del activation_index
        k *= cols
        k += j  # the flat index of q_weights[k, j]
        weight_codes = q_weights.ravel()[k]
        del k
        products = activation_codes.astype(np.int64) * weight_codes.astype(np.int64)
        bits = self._generator.choice(np.array(self.msb_bits), size=num_events)
        bit_values = (products >> bits) & 1
        # Flipping bit b adds 2^b where it was clear and subtracts it where set.
        deltas_values = ((1 - 2 * bit_values) * (1 << bits)).astype(np.float64)

        deltas = np.bincount(i * cols + j, weights=deltas_values, minlength=rows * cols)
        return deltas.reshape(rows, cols)

    def expected_faults(self, num_products: int) -> float:
        """Expected number of injected faults over ``num_products`` MACs."""
        return self.probability * num_products
