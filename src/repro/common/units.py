"""Size and time units used throughout the simulator."""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Default logical block size.  Real ext3 commonly uses 4 KB; tests use
#: smaller blocks to keep images tiny while exercising the same paths.
DEFAULT_BLOCK_SIZE = 4096

MS = 1e-3
US = 1e-6
