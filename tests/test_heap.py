"""The allocator setting that keeps peak memory steady (modloc._heap)."""

import platform
import sys

import numpy as np
import pytest

from modloc._heap import LARGE_ARRAY_BYTES, pin_mmap_threshold

glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the mmap threshold is a glibc setting")


def _in_brk_heap(addr: int) -> bool:
    with open("/proc/self/maps") as maps:
        for line in maps:
            if line.rstrip().endswith("[heap]"):
                lo, hi = (int(v, 16) for v in line.split()[0].split("-"))
                if lo <= addr < hi:
                    return True
    return False


@glibc_only
def test_large_arrays_stay_out_of_the_heap():
    assert pin_mmap_threshold()
    # freeing a mapped 16 MiB block would raise glibc's dynamic threshold
    # to 16 MiB and put the next 8 MiB array in the brk heap
    for _ in range(3):
        block = np.ones((16 << 20) // 8)
        del block
    a = np.ones((8 << 20) // 8)
    assert a.nbytes >= LARGE_ARRAY_BYTES
    assert not _in_brk_heap(a.ctypes.data)


@glibc_only
def test_mid_size_arrays_stay_out_of_the_heap():
    # the covariance check's 384 x 384 complex eigenvectors of 2 D~ are
    # 2.25 MiB; freed together in the heap, such arrays would coalesce into
    # a chunk that glibc hands to the next large array before it consults
    # the threshold
    assert pin_mmap_threshold()
    a = np.ones((9 << 18) // 8)
    assert a.nbytes < LARGE_ARRAY_BYTES
    assert not _in_brk_heap(a.ctypes.data)


def test_pin_is_skipped_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert pin_mmap_threshold() is False
