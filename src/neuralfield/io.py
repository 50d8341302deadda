"""Atomic file output with its checksum, and the output-directory lock.

All floating-point values are written with 17 significant digits so files
round-trip exactly and reruns can be compared checksum to checksum.  Files
are bytes: small tables formatted cell by cell (:func:`fmt`) and encoded,
node tables formatted from arrays by ``b"%.17g"`` (:func:`node_rows`), the
same characters as ``f"{v:.17g}"``.  Files are written to a temporary
sibling and renamed into place, so a crash never leaves a partial artifact
behind.  Writers hash as they write; :func:`sha256_file` re-reads a file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

from .errors import OutputLockedError


def fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def atomic_write(path, chunks) -> str:
    """Write the bytes ``chunks`` to ``path`` through a temporary sibling;
    returns their sha256.  The file gets the mode ``open`` would give it."""
    path = Path(path)
    digest = hashlib.sha256()
    # unique under the caller's output lock; the kernel applies the umask
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def node_rows(nodes, values, times=None):
    """Bytes blocks of the CSV rows ``[t,]<node cells>,<value>``, one per time.

    ``nodes`` is the (n, k) array of the leading cells of each node's row,
    printed by ``%.17g``, so integral values below 2**53 print as integers;
    ``values`` the (T, n) values at ``times``, or n values when ``times`` is None.
    All node cells go into one template by one ``%`` format; each time
    slice stamps its time on every line and fills in its values by one more.
    """
    line = b"%.17g," * nodes.shape[1] + b"%%.17g"
    block = b"\n".join([line] * nodes.shape[0]) % tuple(nodes.ravel().tolist())
    if times is None:
        yield block % tuple(values.tolist())
        return
    for t, row in zip(times.tolist(), values):
        stamp = b"%.17g," % t
        yield (stamp + block.replace(b"\n", b"\n" + stamp)) % tuple(row.tolist())


def write_csv(path, header, rows) -> str:
    """Rows are cell lists, formatted by :func:`fmt`, or bytes blocks of
    already formatted lines such as :func:`node_rows` yields; each is
    written as it comes, so a generator of rows is never held whole.
    Returns the file's sha256."""
    def lines():
        yield (",".join(header) + "\n").encode()
        for row in rows:
            block = row if isinstance(row, bytes) else ",".join(fmt(cell) for cell in row).encode()
            yield block + b"\n"

    return atomic_write(path, lines())


def write_json(path, payload) -> str:
    return atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


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
