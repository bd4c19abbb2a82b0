"""Trainable matrix-product-state feature extractor.

A chain of `n_sites` input-carrying cores (local physical dimension 2)
plus one output core with a free leg of size `out_dim`, inserted at the
middle position (n_sites + 1) // 2 of the (n_sites + 1)-core chain.
Contracting the chain with the per-component feature map
phi(v) = (1 - v, v) compresses an input vector of length n_sites into
`out_dim` real features.

Core shapes, left to right (m = bond dimension, d = 2):

    (d, m), (m, d, m) ... (m, out_dim, m) ... (m, d, m), (m, d)

Genomes store the entries as offsets from `identity_base`, which contracts
every input to the all-ones vector, so near-zero genomes are not collapsed
to zero output.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

LOCAL_DIM = 2
_BLOCK_ENTRIES = 1 << 16  # core entries gathered per step of contract_rows


@lru_cache(maxsize=64)
def param_count(n_sites: int, bond_dim: int, out_dim: int) -> int:
    """Total number of real entries across all cores."""
    return sum(math.prod(shape) for shape in _core_shapes(n_sites, bond_dim, out_dim))


def _core_shapes(n_sites: int, bond_dim: int, out_dim: int) -> list[tuple[int, ...]]:
    if n_sites < 2:
        raise ValueError("need at least 2 input sites to host an interior output core")
    m = bond_dim
    output_pos = (n_sites + 1) // 2
    interior = (m, LOCAL_DIM, m)
    return ([(LOCAL_DIM, m)] + [interior] * (output_pos - 1) + [(m, out_dim, m)]
            + [interior] * (n_sites - 1 - output_pos) + [(m, LOCAL_DIM)])


def _segment_ends(n_sites: int, bond_dim: int, out_dim: int) -> np.ndarray:
    """Where the first core, the interior cores left of the output core, the
    output core and the interior cores right of it end in the flat entries;
    the last core takes the rest."""
    m = bond_dim
    output_pos = (n_sites + 1) // 2
    site_size = m * LOCAL_DIM * m
    return np.cumsum([LOCAL_DIM * m, (output_pos - 1) * site_size,
                      m * out_dim * m, (n_sites - 1 - output_pos) * site_size])


def _views(flat: np.ndarray, n_sites: int, bond_dim: int,
           out_dim: int) -> tuple[np.ndarray, ...]:
    """(first, left, output, right, last) reshaped views of the flat entries."""
    m = bond_dim
    first, left, output, right, last = np.split(
        flat, _segment_ends(n_sites, m, out_dim))
    return (first.reshape(LOCAL_DIM, m), left.reshape(-1, m, LOCAL_DIM, m),
            output.reshape(m, out_dim, m), right.reshape(-1, m, LOCAL_DIM, m),
            last.reshape(m, LOCAL_DIM))


@lru_cache(maxsize=8)
def identity_base(n_sites: int, bond_dim: int, out_dim: int) -> np.ndarray:
    """Bond-index deltas replicated over physical legs (boundaries: bond 0).

    Read-only, since every caller shares the array.
    """
    base = np.zeros(param_count(n_sites, bond_dim, out_dim))
    first, left, output, right, last = _views(base, n_sites, bond_dim, out_dim)
    first[:, 0] = 1.0
    last[0, :] = 1.0
    delta = np.eye(bond_dim)[:, None, :]
    left[:] = delta
    output[:] = delta
    right[:] = delta
    base.flags.writeable = False
    return base


def contract_rows(offsets: np.ndarray, rows: np.ndarray, values: np.ndarray,
                  bond_dim: int, out_dim: int) -> np.ndarray:
    """Left-to-right sweeps of many (cores, input) pairs at once.

    Pair i contracts the chain with entries identity_base +
    offsets[rows[i]] against the input values[i] (n_sites components, each
    in [0, 1]; not checked here).  Returns (n, out_dim).  Core entries are
    gathered a block of sites at a time, about _BLOCK_ENTRIES floats, so no
    pair's full set of cores is ever copied.
    """
    count, n_sites = values.shape
    m = bond_dim
    base = identity_base(n_sites, m, out_dim)
    pos = (n_sites + 1) // 2
    site_size = m * LOCAL_DIM * m

    def entries(start: int, stop: int) -> np.ndarray:
        return base[start:stop] + offsets[rows, start:stop]

    def site_matrices(start: int, sites: range):
        """(count, m, m) per site: phi(v) contracted with the physical leg."""
        per_block = max(1, _BLOCK_ENTRIES // (count * site_size))
        for lo in range(0, len(sites), per_block):
            block = sites[lo:lo + per_block]
            cores = entries(start + lo * site_size, start + (lo + len(block)) * site_size)
            cores = cores.reshape(count, len(block), m, LOCAL_DIM, m)
            v = values[:, block.start:block.stop, None, None]
            mats = (1.0 - v) * cores[:, :, :, 0] + v * cores[:, :, :, 1]
            yield from np.ascontiguousarray(mats.transpose(1, 0, 2, 3))

    ends = _segment_ends(n_sites, m, out_dim)
    first_phi = np.stack([1.0 - values[:, 0], values[:, 0]], axis=1)
    vec = np.vecmat(first_phi, entries(0, ends[0]).reshape(count, LOCAL_DIM, m))
    for mat in site_matrices(ends[0], range(1, pos)):
        vec = np.vecmat(vec, mat)
    output = entries(ends[1], ends[2]).reshape(count, m, out_dim, m)
    carry = np.einsum("na,naob->nob", vec, output)
    for mat in site_matrices(ends[2], range(pos, n_sites - 1)):
        carry = carry @ mat
    last_phi = np.stack([1.0 - values[:, -1], values[:, -1]], axis=1)
    last = entries(ends[3], base.size).reshape(count, m, LOCAL_DIM)
    return np.matvec(carry, np.matvec(last, last_phi))
