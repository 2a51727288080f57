"""Named SpMV workload suite standing in for the paper's matrices (Fig. 14).

The paper evaluates two groups — scientific computations (matrix-inversion
kernels) and graphs (including large road networks like "RO") — from inputs
we cannot redistribute.  This suite generates structurally matched synthetic
stand-ins; DESIGN.md §2 documents the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.sparse.generators import (
    laplacian_2d,
    random_sparse,
    rmat,
    road_mesh,
)
from repro.sparse.lil import LilMatrix


@dataclass(frozen=True)
class SpmvWorkload:
    """One named SpMV input with its evaluation group."""

    name: str
    group: str  # "scientific" or "graph"
    build: Callable[[], LilMatrix]
    description: str = ""

    def matrix(self) -> LilMatrix:
        return self.build()


def fig14_suite() -> List[SpmvWorkload]:
    """The Fig. 14 stand-in suite: small→large scientific + graph inputs."""
    return [
        SpmvWorkload(
            "sci-stencil-S",
            "scientific",
            lambda: laplacian_2d(45),
            "2 025-dof 5-point stencil (single chunk, no merge iterations)",
        ),
        SpmvWorkload(
            "sci-dense-band",
            "scientific",
            lambda: random_sparse(2000, 2000, 0.01, seed=11),
            "1 %-dense 2 000² system (single chunk)",
        ),
        SpmvWorkload(
            "sci-stencil-M",
            "scientific",
            lambda: laplacian_2d(90),
            "8 100-dof stencil (4 chunks, 1 merge iteration)",
        ),
        SpmvWorkload(
            "sci-stencil-L",
            "scientific",
            lambda: laplacian_2d(128),
            "16 384-dof stencil (8 chunks)",
        ),
        SpmvWorkload(
            "graph-rmat-S",
            "graph",
            lambda: rmat(13, edge_factor=8, seed=21),
            "8 K-vertex power-law graph",
        ),
        SpmvWorkload(
            "graph-rmat-M",
            "graph",
            lambda: rmat(15, edge_factor=8, seed=22),
            "32 K-vertex power-law graph",
        ),
        SpmvWorkload(
            "graph-road-RO",
            "graph",
            lambda: road_mesh(181, seed=23),
            "32 K-vertex road-network stand-in (the paper's 'RO' regime)",
        ),
        SpmvWorkload(
            "graph-road-L",
            "graph",
            lambda: road_mesh(256, seed=24),
            "65 K-vertex road network",
        ),
    ]
