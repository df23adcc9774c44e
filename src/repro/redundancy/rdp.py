"""Row-Diagonal Parity (RDP) — double-erasure-correcting redundancy.

§3.3 notes that beyond replication and single parity, "more complex
encodings ... could also be used, a subject worthy of future
exploration", citing Corbett et al.'s Row-Diagonal Parity (FAST '04),
which high-end arrays adopted precisely to survive a second latent
sector error during reconstruction.  This module implements RDP as a
pure library over byte-string "blocks".

Layout (p prime):

* ``p - 1`` data columns (0 .. p-2),
* one **row-parity** column (index p-1): XOR across each row,
* one **diagonal-parity** column (index p): XOR across each diagonal
  ``d = (row + col) mod p`` for d in 0..p-2; diagonal p-1 is the
  "missing" diagonal and is not stored.

Each column holds ``p - 1`` blocks.  Any two erased columns can be
reconstructed; the classic proof shows the iterative chain below always
terminates when p is prime.

Every cell is handled as one integer taken from the shared table of
integer forms (``repro.common.xor``), so a cell the array wrote or read
before costs a dictionary probe, not a conversion: row parity is the
XOR across each row, diagonal parity the XOR along each stored
diagonal (row ``r`` of column ``c`` lies on diagonal ``(r + c) mod
p``).  :meth:`RDPStripe.join` and :meth:`RDPStripe.split` move between
a column's cells and one wide integer (row ``r`` in bit slot ``r``),
the form :meth:`RDPStripe.syndromes` reports in.
"""

from __future__ import annotations

from functools import reduce
from operator import xor as _xor
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.xor import as_block, as_int, xor_all


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class RDPStripe:
    """One RDP stripe: ``p - 1`` rows by ``p + 1`` columns of blocks."""

    def __init__(self, p: int, block_size: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p < 3:
            raise ValueError("p must be at least 3")
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.p = p
        self.block_size = block_size
        self._slot_bits = block_size * 8
        self._cell_mask = (1 << self._slot_bits) - 1
        #: ``(col, row)`` of the cells of each stored diagonal 0..p-2 in
        #: columns 0..p-1; diagonal p-1 is the missing one.
        self._diagonal_cells = [
            [(c, (d - c) % p) for c in range(p) if (d - c) % p < p - 1]
            for d in range(p - 1)]

    # -- columns as cell integers ---------------------------------------------

    def _ints(self, cells: Sequence[bytes]) -> List[int]:
        """One column's cells as integers, row r at index r."""
        shape = "a column holds p - 1 blocks of block_size bytes"
        if len(cells) != self.rows:
            raise ValueError(shape)
        values = []
        for cell in cells:
            if len(cell) != self.block_size:
                raise ValueError(shape)
            values.append(as_int(cell))
        return values

    def _cells(self, values: Sequence[int]) -> List[bytes]:
        """Inverse of :meth:`_ints`."""
        return [as_block(value, self.block_size) for value in values]

    def _wide(self, values: Sequence[int]) -> int:
        """Cell integers as one column integer, row r in slot r."""
        column = shift = 0
        for value in values:
            column |= value << shift
            shift += self._slot_bits
        return column

    def join(self, cells: Sequence[bytes]) -> int:
        """One column (``p - 1`` blocks) as an integer, row r in slot r."""
        return self._wide(self._ints(cells))

    def split(self, column: int) -> List[bytes]:
        """Inverse of :meth:`join`."""
        bits, mask = self._slot_bits, self._cell_mask
        return self._cells([(column >> (r * bits)) & mask
                            for r in range(self.rows)])

    @staticmethod
    def _row_parity(ints: Sequence[Sequence[int]]) -> List[int]:
        """XOR across each row of the columns in *ints*."""
        return [reduce(_xor, row) for row in zip(*ints)]

    def _diagonals(self, ints: Sequence[Sequence[int]]) -> List[int]:
        """Diagonal parity of columns ``0..p-1`` (the first p entries of
        *ints*), one integer per stored diagonal."""
        return [reduce(_xor, [ints[c][r] for c, r in cells])
                for cells in self._diagonal_cells]

    def syndromes(self, columns: Sequence[Sequence[bytes]]) -> Tuple[int, int]:
        """``(row, diagonal)`` parity syndromes of a complete stripe as
        joined columns; both are zero exactly when the stripe is
        consistent, and slot r of each is row r's / diagonal r's
        cell-wise syndrome."""
        ints = [self._ints(col) for col in columns]
        return (self._wide(self._row_parity(ints[:self.p])),
                self._wide(self._row_parity(
                    [self._diagonals(ints), ints[self.p]])))

    # -- geometry -----------------------------------------------------------

    @property
    def data_columns(self) -> int:
        return self.p - 1

    @property
    def rows(self) -> int:
        return self.p - 1

    @property
    def row_parity_column(self) -> int:
        return self.p - 1

    @property
    def diag_parity_column(self) -> int:
        return self.p

    def diagonal_of(self, row: int, col: int) -> int:
        """Diagonal number of a cell in columns 0..p-1."""
        return (row + col) % self.p

    # -- encode -------------------------------------------------------------------

    def encode(self, data: Sequence[Sequence[bytes]]) -> List[List[bytes]]:
        """Compute the full stripe from data columns.

        *data* is ``p - 1`` columns of ``p - 1`` blocks each; returns
        ``p + 1`` columns with row and diagonal parity appended.
        """
        if len(data) != self.data_columns:
            raise ValueError(f"expected {self.data_columns} data columns")
        ints = [self._ints(col) for col in data]
        row_parity = self._row_parity(ints)
        ints.append(row_parity)
        columns: List[List[bytes]] = [list(col) for col in data]
        columns.append(self._cells(row_parity))
        # Diagonal parity across columns 0..p-1 (data + row parity).
        columns.append(self._cells(self._diagonals(ints)))
        return columns

    # -- verify ---------------------------------------------------------------------

    def verify(self, columns: Sequence[Sequence[bytes]]) -> bool:
        """True when both parity columns are consistent with the data."""
        recomputed = self.encode([columns[c] for c in range(self.data_columns)])
        return (list(map(bytes, columns[self.row_parity_column]))
                == recomputed[self.row_parity_column]
                and list(map(bytes, columns[self.diag_parity_column]))
                == recomputed[self.diag_parity_column])

    # -- reconstruct ---------------------------------------------------------------------

    def _erasures(self, columns: Sequence[Optional[Sequence[bytes]]]) -> List[int]:
        """Indices of the erased (``None``) columns; :class:`ValueError`
        for a stripe of the wrong width or more than two erasures."""
        if len(columns) != self.p + 1:
            raise ValueError(f"expected {self.p + 1} columns")
        missing = [c for c, col in enumerate(columns) if col is None]
        if len(missing) > 2:
            raise ValueError("RDP tolerates at most two erased columns")
        return missing

    def cell(self, columns: Sequence[Optional[Sequence[bytes]]],
             col: int, row: int) -> bytes:
        """``reconstruct(columns)[col][row]``, one cell of a stripe.

        When *col* is the only erasure among columns ``0..p-1`` (an
        erased diagonal column besides changes nothing) the cell is the
        XOR of the rest of its row, and only that row is touched; every
        other case goes through :meth:`reconstruct`.
        """
        missing = self._erasures(columns)
        if col in missing and col != self.p and (
                len(missing) == 1 or self.p in missing):
            return xor_all([columns[c][row]  # type: ignore[index]
                            for c in range(self.p) if c != col])
        return self.reconstruct(columns)[col][row]

    def reconstruct(
        self,
        columns: Sequence[Optional[Sequence[bytes]]],
    ) -> List[List[bytes]]:
        """Rebuild up to two erased columns (``None`` entries).

        Raises :class:`ValueError` when more than two columns are gone.
        """
        p = self.p
        missing = self._erasures(columns)
        if not missing:
            return [list(map(bytes, col)) for col in columns]  # type: ignore[arg-type]

        in_rows = [c for c in missing if c != self.diag_parity_column]
        if len(in_rows) < 2:
            # At most one erasure in the row-parity group: that column
            # is the XOR of the group's other columns (every row has a
            # single unknown), and an erased diagonal column is
            # recomputed from scratch.
            full: List[Optional[List[bytes]]] = [
                None if col is None else list(map(bytes, col))
                for col in columns]
            if in_rows:
                full[in_rows[0]] = self._cells(self._row_parity([
                    self._ints(full[c])  # type: ignore[arg-type]
                    for c in range(p) if c != in_rows[0]]))
            if self.diag_parity_column in missing:
                return self.encode(full[:self.data_columns])  # type: ignore[arg-type]
            return full  # type: ignore[return-value]

        grid: Dict[Tuple[int, int], Optional[bytes]] = {}
        for c in range(p + 1):
            for r in range(self.rows):
                grid[(r, c)] = None if columns[c] is None else bytes(columns[c][r])

        # Two missing among columns 0..p-1: iterate rows and diagonals,
        # solving every constraint with a single unknown.
        unknown: Set[Tuple[int, int]] = {
            (r, c) for (r, c), v in grid.items() if v is None
        }
        progress = True
        while unknown and progress:
            progress = False
            # Row constraints: columns 0..p-1 XOR to zero per row
            # (row parity is included in the XOR as its own column).
            for r in range(self.rows):
                holes = [(r, c) for c in range(p) if (r, c) in unknown]
                if len(holes) == 1:
                    grid[holes[0]] = xor_all([
                        grid[(r, c)] for c in range(p)
                        if (r, c) != holes[0]])  # type: ignore[misc]
                    unknown.remove(holes[0])
                    progress = True
            # Diagonal constraints for d in 0..p-2.
            for d in range(p - 1):
                cells = [(r, c) for c in range(p) for r in range(self.rows)
                         if self.diagonal_of(r, c) == d]
                holes = [cell for cell in cells if cell in unknown]
                if len(holes) == 1:
                    grid[holes[0]] = xor_all(
                        [grid[(d, self.diag_parity_column)]]
                        + [grid[cell] for cell in cells
                           if cell != holes[0]])  # type: ignore[misc]
                    unknown.remove(holes[0])
                    progress = True
        if unknown:
            raise ValueError("reconstruction did not converge (corrupt stripe?)")
        return [[grid[(r, c)] for r in range(self.rows)]  # type: ignore[misc]
                for c in range(p + 1)]

