"""Trainable matrix-product-state feature extractor over words of symbols.

A chain of `n_sites` input-carrying cores (local physical dimension 2)
plus one output core with a free leg of size `out_dim`, inserted at the
middle position (n_sites + 1) // 2 of the (n_sites + 1)-core chain.
Contracting the chain with the per-component feature map
phi(v) = (1 - v, v) compresses an input vector of length n_sites into
`out_dim` real features.

Core shapes, left to right (m = bond dimension, d = 2), spelled only by
`_piece_shapes`, as five pieces, and read everywhere else through `_views`:

    (d, m), (m, d, m) ... (m, out_dim, m) ... (m, d, m), (m, d)

Genomes store the entries as offsets from `identity_base`, which contracts
every input to the all-ones vector, so near-zero genomes are not collapsed
to zero output.

Inputs are words: the n_sites components are cells of C consecutive
channels, and every cell holds one of K symbols, symbol k standing for
the channel values alphabet[k].  A cell's C blended site matrices then take
only K values, so their product is tabulated once per genome and symbol
(the finite local feature map of Stoudenmire & Schwab, arXiv:1605.05775,
with K points).  `cell_tables` builds these tables for the (cell, symbol)
pairs that some word of a finite set of states holds, and resolves each
state's table numbers once; `contract_states` then sweeps a state's word
as one vector-matrix product per cell, so any state id is a valid input:

- the boundary cores act as the bond-0 row of the first site's and the
  bond-0 column of the last site's (m, d, m) core, so every cell's table is
  an (m, m) matrix and the sweep starts and ends on the unit vector e0;
- the cells on which every word agrees, from cell 0 on, fold into one
  start vector per genome;
- the output core sits inside the middle cell (the one holding site
  (n_sites + 1) // 2), whose site matrices on either side of it fold into
  one (m, out_dim, m) core per symbol;
- the left vector runs cell by cell up to the middle cell, the right vector
  from the last cell down to it, and the middle core joins the two.

These products associate differently from a site-by-site sweep, so the
features differ from it in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

LOCAL_DIM = 2
# core entries gathered per block of genomes while building cell tables
_BLOCK_ENTRIES = 1 << 17


def param_count(n_sites: int, bond_dim: int, out_dim: int) -> int:
    """Total number of real entries across all cores."""
    return sum(map(math.prod, _piece_shapes(n_sites, bond_dim, out_dim)))


def _piece_shapes(n_sites: int, bond_dim: int, out_dim: int) -> tuple[tuple[int, ...], ...]:
    """first (d, m), left (pos - 1, m, d, m), output (m, out_dim, m), right
    (n_sites - 1 - pos, m, d, m) and last (m, d), with pos = (n_sites + 1) // 2:
    left and right stack the interior cores either side of the output core."""
    if n_sites < 2:
        raise ValueError("need at least 2 input sites to host an interior output core")
    m, d = bond_dim, LOCAL_DIM
    pos = (n_sites + 1) // 2
    return (d, m), (pos - 1, m, d, m), (m, out_dim, m), (n_sites - 1 - pos, m, d, m), (m, d)


def _views(flat: np.ndarray, n_sites: int, bond_dim: int,
           out_dim: int) -> tuple[np.ndarray, ...]:
    """(first, left, output, right, last) views split off the last axis by
    `_piece_shapes`, so (..., size) entries give (..., *shape) views."""
    shapes = _piece_shapes(n_sites, bond_dim, out_dim)
    ends = np.cumsum([math.prod(shape) for shape in shapes[:-1]])
    return tuple(part.reshape(flat.shape[:-1] + shape)
                 for part, shape in zip(np.split(flat, ends, axis=-1), shapes))


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


@lru_cache(maxsize=8)
def _site_rows(n_sites: int, bond_dim: int, out_dim: int) -> np.ndarray:
    """(n_sites, d, m) row numbers of every input site's core as (d, m, m), read-only.

    Row r is entries r*m .. r*m + m - 1 of the flat entries extended by
    one zero row and then the last core as the bond-0 column of an
    (m, d, m) core, one row per entry: the first core is the bond-0 row of
    its (d, m, m) form, and the zero row fills the rest.
    """
    m = bond_dim
    size = param_count(n_sites, m, out_dim)
    first, left, _, right, last = _views(np.arange(size) // m, n_sites, m, out_dim)
    zero = size // m
    first = np.where(np.arange(m) == 0, first[:, :1], zero)
    last = zero + 1 + np.arange(last.size).reshape(last.shape).T
    interior = np.concatenate([left, right])[..., 0].swapaxes(1, 2)
    rows = np.concatenate([first[None], interior, last[None]])
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class CellTables:
    """One population's cell tables for the states of one set of words.

    start (P, m): e0 times the tables of the agreed cells; cells
    (P, n_pairs, m, m): the table of each (cell, symbol) pair outside the
    middle cell; middle (P, n_middle, m, out_dim, m): the output core with
    the middle cell's site matrices folded in, one per symbol that cell
    holds; pairs (S, n_swept): the table number of each cell that state s
    sweeps, the n_left before the middle cell left to right, then the ones
    after it from the last cell down; cores (S,): the number of state s's
    middle core.
    """

    start: np.ndarray
    cells: np.ndarray
    middle: np.ndarray
    pairs: np.ndarray
    cores: np.ndarray
    n_left: int


def cell_tables(offsets: np.ndarray, bond_dim: int, out_dim: int,
                alphabet: np.ndarray, words: np.ndarray) -> CellTables:
    """The tables of P chains, entries identity_base + offsets[p].

    alphabet (K, C): each symbol's channel values, each in [0, 1] (not
    checked here); words (S, n_cells): the word of each state s, symbols
    0..K-1.  Only the (cell, symbol) pairs some word holds are built, for
    a block of genomes of about _BLOCK_ENTRIES gathered core entries at a
    time, and each state's table numbers are resolved here, once.
    """
    m = bond_dim
    n_symbols, channels = alphabet.shape
    n_cells = words.shape[1]
    n_sites = n_cells * channels
    mid, split = divmod((n_sites + 1) // 2, channels)
    agreed = np.logical_and.accumulate((words == words[0]).all(axis=0))
    folded = min(int(agreed.sum()), mid)

    held = np.zeros((n_cells, n_symbols), dtype=bool)
    held[np.arange(n_cells), words] = True
    held_cell, held_symbol = np.nonzero(held)
    # pairs in cell order, so the agreed cells' come first, one each, and
    # the middle cell's last
    order = np.argsort(held_cell == mid, kind="stable")
    pair_cell, pair_symbol = held_cell[order], held_symbol[order]
    n_middle = int(held[mid].sum())
    n_pairs = len(pair_cell) - n_middle
    index = np.full((n_cells, n_symbols), -1)
    index[pair_cell, pair_symbol] = np.r_[np.arange(n_pairs), np.arange(n_middle)]
    # the blend (1 - v) A0 + v A1 of every site matrix of every pair,
    # channel-major: (C, pairs, m, m)
    high_weight = np.repeat(alphabet[pair_symbol].T, m * m, axis=1).reshape(
        channels, -1, m, m)
    low_weight = 1.0 - high_weight
    site_rows = _site_rows(n_sites, m, out_dim)[pair_cell * channels
                                                 + np.arange(channels)[:, None]]

    count = len(offsets)
    cells = np.empty((count, n_pairs, m, m))
    middle = np.empty((count, n_middle, m * out_dim, m))
    base = identity_base(n_sites, m, out_dim)
    per_block = min(count, max(1, _BLOCK_ENTRIES // (2 * high_weight.size)))
    row = np.dtype((np.void, m * 8))  # m float64 entries
    # a block's entries, then the zero row and the last core's rows of _site_rows
    entries = np.zeros((per_block, base.size + m + LOCAL_DIM * m * m))
    _, _, output_core, _, last_core = _views(entries[:, :base.size], n_sites, m, out_dim)
    last_column = entries[:, base.size + m:].reshape(per_block, m, LOCAL_DIM, m)[..., 0]
    low = np.empty((per_block,) + high_weight.shape)
    high = np.empty_like(low)
    for lo in range(0, count, per_block):
        size = min(per_block, count - lo)
        np.add(base, offsets[lo:lo + size], out=entries[:size, :base.size])
        last_column[:size] = last_core[:size]
        as_rows = entries[:size].view(row)
        # every row number is valid: "clip" only spares take a buffered copy
        np.take(as_rows, site_rows[..., 0, :], axis=1, out=low[:size].view(row)[..., 0],
                mode="clip")
        np.take(as_rows, site_rows[..., 1, :], axis=1, out=high[:size].view(row)[..., 0],
                mode="clip")
        blended = low[:size]
        blended *= low_weight
        high[:size] *= high_weight
        blended += high[:size]
        channel = list(blended.swapaxes(0, 1))
        after = reduce(np.matmul, channel[split:])
        before = (reduce(np.matmul, channel[:split]) if split
                  else np.broadcast_to(np.eye(m), after.shape))
        np.matmul(before[:, :n_pairs], after[:, :n_pairs], out=cells[lo:lo + size])
        output = output_core[:size].reshape(size, 1, m, -1)
        np.matmul((before[:, n_pairs:] @ output).reshape(size, n_middle, -1, m),
                  after[:, n_pairs:], out=middle[lo:lo + size])

    start = np.zeros((count, m))
    start[:, 0] = 1.0
    for pair in range(folded):
        start = np.vecmat(start, cells[:, pair])
    swept = np.r_[folded:mid, n_cells - 1:mid:-1]
    return CellTables(start, cells, middle.reshape(count, n_middle, m, out_dim, m),
                      index[swept, words[:, swept]], index[mid, words[:, mid]],
                      mid - folded)


def contract_states(tables: CellTables, rows: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
    """(n, out_dim) features of state states[i]'s word under the chain of
    genome rows[i]."""
    count, n_pairs, m, _ = tables.cells.shape
    # one take of whole (m, m) tables, numbered genome by genome, is a
    # plain copy and runs faster than a two-array fancy index
    table = np.dtype((np.void, m * m * 8))
    flat = rows * n_pairs + tables.pairs[states].T
    mats = np.take(tables.cells.reshape(count * n_pairs, m * m).view(table)[:, 0],
                   flat).view(np.float64).reshape(*flat.shape, m, m)
    vec = tables.start[rows]
    for mat in mats[:tables.n_left]:
        vec = np.einsum("na,nab->nb", vec, mat)
    back = np.zeros_like(vec)
    back[:, 0] = 1.0
    for mat in mats[tables.n_left:]:
        back = np.einsum("nab,nb->na", mat, back)
    middle = tables.middle[rows, tables.cores[states]]
    n, m, out_dim, _ = middle.shape
    # einsum, not BLAS: a BLAS dot may round a row by its place in memory
    joined = np.einsum("na,nab->nb", vec, middle.reshape(n, m, out_dim * m))
    return np.einsum("nfb,nb->nf", joined.reshape(n, out_dim, m), back)
