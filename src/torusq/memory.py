"""The memory guard: refuse a computation before it allocates more than the
machine has available.  torusq.symbolic, torusq.finite and torusq.suites
import it, and it imports no other module of torusq."""

from __future__ import annotations


def _available_memory() -> int | None:
    """MemAvailable in bytes, or None where /proc/meminfo cannot be read.

    Read as bytes through a small buffer and stopped at that line: a text
    read of the whole file holds about 16 kB, as much as the smallest runs
    the check guards, and would set their peak itself."""
    try:
        with open("/proc/meminfo", "rb", buffering=256) as meminfo:
            for line in meminfo:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    return None


def _require_memory(what: str, need: int) -> None:
    """Raise MemoryError, before the caller allocates anything, when its
    estimated peak of `need` bytes exceeds the available memory; where that
    is unknown the caller runs.  `what` opens the message, e.g. "dft at N=4"."""
    available = _available_memory()
    if available is not None and need > available:
        raise MemoryError(f"{what} needs ~{need / 2**30:.3g} GiB, "
                          f"but {available / 2**30:.3g} GiB is available")
