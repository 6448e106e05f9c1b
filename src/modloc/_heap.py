"""Keep large arrays out of glibc's brk heap.

glibc serves an allocation from the brk heap when it is smaller than the
mmap threshold, and raises that threshold (up to 32 MiB) each time a
mapped block is freed.  The state pipeline allocates and frees many 4-32
MiB arrays, so after the first few they land in the heap, where freed
holes stay resident.  numpy advises transparent huge pages for every
array of 4 MiB or more; inside the heap that advice lets the kernel fill
the resident holes with huge pages whenever it has some to spare, so the
peak resident set of the same run moved by up to 90 MB from one run to
the next.  Pinning the threshold maps every huge-page-advised array on
its own and unmaps it on free: the resident set then follows the live
arrays.  glibc serves a request from a free chunk already in the heap
before it consults the threshold, so the pin sits at 1 MiB, below the
4 MiB advice size: mid-size arrays freed together in the heap would
otherwise coalesce into chunks that take in the large ones (such as the
1.1 MiB real 384 x 384 eigenvectors of 2 D~ that the covariance check
solves).
"""

from __future__ import annotations

import ctypes
import sys

# mallopt parameter number of the mmap threshold in glibc's malloc.h
_M_MMAP_THRESHOLD = -3
# numpy's huge-page advice applies from this size up
LARGE_ARRAY_BYTES = 1 << 22
# allocations from this size up are mapped on their own
MMAP_THRESHOLD_BYTES = 1 << 20


def pin_mmap_threshold(nbytes: int = MMAP_THRESHOLD_BYTES) -> bool:
    """Map every allocation of nbytes or more; True when glibc took it."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # noqa: B018 - glibc only, not musl
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, nbytes))
