"""Named parameter collection with seeded initialization.

Paths are slash-separated strings ("gim/layer0/temporal/W").  All iteration
is in sorted path order so that optimizer sweeps, checkpoint layouts, and
partition checks are reproducible run to run.  Initialization draws from a
single PCG64 generator in ``add`` call order, so two stores built by the
same construction code and seed hold bitwise identical values.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


class ParamStore:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._entries: dict[str, Tensor] = {}

    def add(
        self,
        path: str,
        shape: tuple[int, ...],
        init: str = "zeros",
        fan_in: int | None = None,
        std: float = 0.02,
    ) -> Tensor:
        """Create and register one parameter tensor.

        init: "zeros" | "uniform_fan_in" | "normal".  uniform_fan_in draws
        from U[-1/sqrt(fan_in), +1/sqrt(fan_in)] with fan_in defaulting to
        shape[0]; normal draws N(0, std).  The gradient accumulator is
        allocated immediately and persists for the life of the store.
        """
        if path in self._entries:
            raise ValueError(f"duplicate parameter path: {path}")
        shape = tuple(int(s) for s in shape)
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "uniform_fan_in":
            width = 1.0 / np.sqrt(fan_in if fan_in is not None else shape[0])
            data = self._rng.uniform(-width, width, size=shape)
        elif init == "normal":
            data = self._rng.normal(0.0, std, size=shape)
        else:
            raise ValueError(f"unknown init scheme: {init}")
        t = Tensor(data, requires_grad=True)
        t.grad = np.zeros(shape)
        self._entries[path] = t
        return t

    # ---- access ----

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path]

    def paths(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(p, self._entries[p]) for p in self.paths()]

    def count_parameters(self, prefix: str = "") -> int:
        return sum(t.data.size for p, t in self.items() if p.startswith(prefix))

    def zero_grads(self) -> None:
        for _, t in self.items():
            t.grad[...] = 0.0

    # ---- serialization support ----

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; paths and shapes must match."""
        missing = sorted(set(self._entries) - set(arrays))
        extra = sorted(set(arrays) - set(self._entries))
        if missing or extra:
            raise ValueError(
                f"parameter path mismatch (missing={missing[:3]}, extra={extra[:3]})"
            )
        for path, t in self.items():
            value = np.asarray(arrays[path], dtype=np.float64)
            if value.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {path}: {value.shape} vs {t.data.shape}"
                )
            t.data[...] = value
