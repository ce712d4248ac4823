"""Mixed-radix indexing over capacity vectors.

The dynamic-programming solver keys its table by the vector of column sums
``c = (c_1, ..., c_k)`` with ``0 <= c_j <= upper_bounds[j]``.  Each vector maps
to a flat index in a mixed-radix number system with radices
``upper_bounds[j] + 1``; campaign 0 is the least significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class CapacityBox:
    """The lattice of capacity vectors ``0 <= c <= caps`` with flat indexing."""

    caps: tuple[int, ...]
    strides: tuple[int, ...]
    size: int

    @classmethod
    def from_caps(cls, caps: Sequence[int]) -> "CapacityBox":
        caps = tuple(int(c) for c in caps)
        strides = []
        stride = 1
        for c in caps:
            strides.append(stride)
            stride *= c + 1
        return cls(caps=caps, strides=tuple(strides), size=stride)

    def encode(self, vector: Sequence[int]) -> int:
        idx = 0
        for c, cap, stride in zip(vector, self.caps, self.strides):
            if not 0 <= c <= cap:
                raise ValueError(f"capacity component {c} outside 0..{cap}")
            idx += c * stride
        return idx

    def iter_range(self, lower: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield ``(index, vector)`` for every vector with ``lower <= c <= caps``.

        Walks an odometer instead of decoding each index, so the whole sweep
        is linear in the number of vectors yielded.
        """
        vector = [int(b) for b in lower]
        for b, cap in zip(vector, self.caps):
            if not 0 <= b <= cap:
                raise ValueError(f"lower component {b} outside 0..{cap}")
        while True:
            yield self.encode(vector), tuple(vector)
            pos = 0
            while pos < len(vector):
                if vector[pos] < self.caps[pos]:
                    vector[pos] += 1
                    break
                vector[pos] = int(lower[pos])
                pos += 1
            else:
                return
