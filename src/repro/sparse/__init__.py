"""Sparse-matrix substrate: formats and synthetic generators."""

from repro.sparse.coo import CooMatrix
from repro.sparse.generators import (
    diagonally_dominant,
    laplacian_2d,
    random_sparse,
    rmat,
    road_mesh,
)
from repro.sparse.lil import LilMatrix

__all__ = [
    "CooMatrix",
    "LilMatrix",
    "diagonally_dominant",
    "laplacian_2d",
    "random_sparse",
    "rmat",
    "road_mesh",
]
