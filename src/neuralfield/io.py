"""Atomic file output, checksums, and the output-directory lock.

All floating-point values are written with 17 significant digits so files
round-trip exactly and reruns can be compared checksum to checksum.  Small
tables are formatted cell by cell (:func:`fmt`), node tables from arrays
(:func:`node_rows`); ``"%.17g" % v`` and ``f"{v:.17g}"`` give the same
bytes, so both paths write the same file.  Files are written to a temporary
sibling and renamed into place, so a crash never leaves a partial artifact
behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import OutputLockedError


def fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def atomic_write_text(path, chunks) -> None:
    """Write the str ``chunks`` to ``path`` through a temporary sibling."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def node_rows(nodes, values, times=None):
    """Text blocks of the CSV rows ``[t,]<node cells>,<value>``, one per time.

    ``nodes`` holds the leading numeric cells of each node's row, ``values``
    the (T, n) values at ``times``, or n values when ``times`` is None.
    Node cells and times are formatted once; a time slice's values by one
    ``%.17g`` format.
    """
    body = [",".join(map(fmt, cells)) + ",%.17g" for cells in nodes]
    if times is None:
        yield "\n".join(body) % tuple(values.tolist())
        return
    template = "\n".join("%s," + row for row in body)
    for t, row in zip(times.tolist(), values):
        cells = [fmt(t)] * (2 * len(body))
        cells[1::2] = row.tolist()
        yield template % tuple(cells)


def write_csv(path, header, rows) -> None:
    """Rows are cell lists, formatted by :func:`fmt`, or text blocks of
    already formatted lines such as :func:`node_rows` yields; each is
    written as it comes, so a generator of rows is never held whole."""
    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            yield (row if isinstance(row, str) else ",".join(fmt(cell) for cell in row)) + "\n"

    atomic_write_text(path, lines())


def write_json(path, payload) -> None:
    atomic_write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _holder_is_dead(lock_path) -> bool:
    """True when the lock file names a process that no longer exists."""
    try:
        os.kill(int(Path(lock_path).read_text()), 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass  # unreadable, still being written, or a live process of another user
    return False


@contextlib.contextmanager
def output_lock(out_dir):
    """Exclusive ownership of an output directory via a lock file.

    A lock whose recorded pid is dead was left by a killed run and is taken
    over.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt == 0 and _holder_is_dead(lock_path):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(lock_path)
                continue
            raise OutputLockedError(
                f"output directory {out_dir} is locked by another run "
                f"(remove {lock_path} if that run is dead)"
            ) from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield out_dir
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock_path)
