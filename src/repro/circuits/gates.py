"""Boolean semantics of the standard cells.

Each entry maps a cell name (matching :mod:`repro.aging.cell_library`) to a
function over 0/1 input values.  The functions are used by the zero-delay
logic simulator, the timed simulator and the constant-propagation pass of
the STA engine.

Two function tables are provided:

* :data:`CELL_FUNCTIONS` — scalar 0/1 semantics, one call per vector.
* :data:`WORD_CELL_FUNCTIONS` — bit-parallel word semantics for the batched
  simulators: every argument is a ``uint64`` lane row (or stack of rows)
  whose bit ``k % 64`` of word ``k // 64`` holds the value of Monte-Carlo
  lane ``k``, and the extra leading ``mask`` argument
  (:data:`repro.utils.bitops.UINT64_MASK`) implements negation by XOR.  One
  call evaluates the cell for every lane.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np


def _inv(a: int) -> int:
    return a ^ 1


def _buf(a: int) -> int:
    return a


def _nand2(a: int, b: int) -> int:
    return (a & b) ^ 1


def _nor2(a: int, b: int) -> int:
    return (a | b) ^ 1


def _and2(a: int, b: int) -> int:
    return a & b


def _or2(a: int, b: int) -> int:
    return a | b


def _xor2(a: int, b: int) -> int:
    return a ^ b


def _xnor2(a: int, b: int) -> int:
    return (a ^ b) ^ 1


def _mux2(a: int, b: int, sel: int) -> int:
    """2:1 multiplexer: output ``a`` when ``sel`` is 0, else ``b``."""
    return b if sel else a


def _aoi21(a: int, b: int, c: int) -> int:
    """AND-OR-INVERT: ``not ((a and b) or c)``."""
    return ((a & b) | c) ^ 1


def _oai21(a: int, b: int, c: int) -> int:
    """OR-AND-INVERT: ``not ((a or b) and c)``."""
    return ((a | b) & c) ^ 1


CELL_FUNCTIONS: dict[str, Callable[..., int]] = {
    "INV": _inv,
    "BUF": _buf,
    "NAND2": _nand2,
    "NOR2": _nor2,
    "AND2": _and2,
    "OR2": _or2,
    "XOR2": _xor2,
    "XNOR2": _xnor2,
    "MUX2": _mux2,
    "AOI21": _aoi21,
    "OAI21": _oai21,
}

#: Number of input pins per cell, derived from the boolean functions.
CELL_INPUT_COUNTS: dict[str, int] = {
    "INV": 1,
    "BUF": 1,
    "NAND2": 2,
    "NOR2": 2,
    "AND2": 2,
    "OR2": 2,
    "XOR2": 2,
    "XNOR2": 2,
    "MUX2": 3,
    "AOI21": 3,
    "OAI21": 3,
}


def _winv(mask: np.uint64, a: np.ndarray) -> np.ndarray:
    return mask ^ a


def _wbuf(mask: np.uint64, a: np.ndarray) -> np.ndarray:
    return a


def _wnand2(mask: np.uint64, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mask ^ (a & b)


def _wnor2(mask: np.uint64, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mask ^ (a | b)


def _wand2(mask: np.uint64, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & b


def _wor2(mask: np.uint64, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a | b


def _wxor2(mask: np.uint64, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a ^ b


def _wxnor2(mask: np.uint64, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mask ^ (a ^ b)


def _wmux2(mask: np.uint64, a: np.ndarray, b: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Lane-wise 2:1 multiplexer: ``a`` where ``sel`` is 0, ``b`` where 1."""
    return (a & (mask ^ sel)) | (b & sel)


def _waoi21(mask: np.uint64, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return mask ^ ((a & b) | c)


def _woai21(mask: np.uint64, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return mask ^ ((a | b) & c)


#: Word-level (bit-parallel) cell semantics; see the module docstring.
WORD_CELL_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {
    "INV": _winv,
    "BUF": _wbuf,
    "NAND2": _wnand2,
    "NOR2": _wnor2,
    "AND2": _wand2,
    "OR2": _wor2,
    "XOR2": _wxor2,
    "XNOR2": _wxnor2,
    "MUX2": _wmux2,
    "AOI21": _waoi21,
    "OAI21": _woai21,
}


def evaluate_cell(cell_name: str, inputs: Sequence[int]) -> int:
    """Evaluate cell ``cell_name`` on 0/1 ``inputs``.

    Raises:
        KeyError: for an unknown cell.
        ValueError: if the number of inputs does not match the cell, or an
            input is not 0/1.
    """
    try:
        func = CELL_FUNCTIONS[cell_name]
        arity = CELL_INPUT_COUNTS[cell_name]
    except KeyError:
        raise KeyError(f"unknown cell {cell_name!r}") from None
    if len(inputs) != arity:
        raise ValueError(
            f"cell {cell_name} expects {arity} inputs, got {len(inputs)}"
        )
    for value in inputs:
        if value not in (0, 1):
            raise ValueError(f"cell inputs must be 0/1, got {value!r}")
    return func(*inputs)
