"""Data-movement accounting (paper §III-A, Fig. 2).

For ``n`` queries of ``q`` indices over ``v``-element vectors:

* baseline (no NDP) ships every gathered vector: ``n·q·v`` elements;
* TensorDIMM and FAFNIR ship only outputs: ``n·v``;
* RecNMP ships one item per (query, occupied DIMM): between ``n·v`` and
  ``n·q·v`` depending on spatial locality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.locality import expected_occupied_devices


@dataclass(frozen=True)
class MovementModel:
    """Closed-form element-movement counts for one batch shape."""

    queries: int
    query_len: int
    vector_elements: int

    def __post_init__(self) -> None:
        if min(self.queries, self.query_len, self.vector_elements) < 1:
            raise ValueError("all parameters must be positive")

    @property
    def baseline_elements(self) -> int:
        return self.queries * self.query_len * self.vector_elements

    @property
    def tensordimm_elements(self) -> int:
        return self.queries * self.vector_elements

    @property
    def fafnir_elements(self) -> int:
        return self.queries * self.vector_elements

    def recnmp_expected_elements(self, dimms: int) -> float:
        """Expected shipped items: one per occupied DIMM per query."""
        per_query = expected_occupied_devices(self.query_len, dimms)
        return self.queries * per_query * self.vector_elements

    @property
    def ndp_operations(self) -> int:
        """Total reduction operations: n·(q−1)·v (§III-A)."""
        return self.queries * (self.query_len - 1) * self.vector_elements

    def movement_reduction(self, engine: str, dimms: int = 16) -> float:
        """Factor by which an engine shrinks movement vs the baseline."""
        shipped = {
            "baseline": float(self.baseline_elements),
            "tensordimm": float(self.tensordimm_elements),
            "fafnir": float(self.fafnir_elements),
            "recnmp": self.recnmp_expected_elements(dimms),
        }
        try:
            return self.baseline_elements / shipped[engine]
        except KeyError:
            raise KeyError(
                f"unknown engine {engine!r}; expected one of {sorted(shipped)}"
            ) from None
