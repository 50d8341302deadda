"""Atomic file output with its checksum, and the output-directory lock.

All floating-point values are written with 17 significant digits so files
round-trip exactly and reruns can be compared checksum to checksum.  Files
are bytes: small tables formatted cell by cell (:func:`fmt`) and encoded,
node tables from arrays (:func:`node_rows`), whose cells are the bytes
``b"%.17g" % x`` of each value, the same characters as ``f"{v:.17g}"``.

:func:`g17_cells` computes those bytes exactly in numpy where ``%.17g``
prints fixed notation, |x| in [1e-4, 1e17) and +-0, by Dekker's exact
product (Dekker, Numer. Math. 18, 1971); CPython's correctly rounded
``%.17g`` (Gay, 1990) formats every other value.  It builds its tables,
about 70 KB, on first use.

Files are written to a temporary sibling and renamed into place, so a crash
never leaves a partial artifact behind; the temporary file a killed run of
the same pid left is replaced.  Writers hash as they write;
:func:`sha256_file` re-reads a file.

A run owns its output directory by an ``flock`` on ``<out>/.lock``
(:func:`output_lock`).  The kernel releases it when the run exits, killed
or not, so no pid is recorded and a dead run's directory is free at once.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from . import discretization
from .errors import OutputLockedError


def fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits, None empty."""
    if value is None:
        return ""
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
    # a killed run with this pid left it behind; O_EXCL never follows a link
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)
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


# g17_cells: a value's byte row is six uint32 words, b"\0-.0" and the ASCII
# of its 17 digits in 4-digit groups ("000d" first), so digit i sits at byte
# 7 + i; a cell is at most 23 bytes ("-0.000" and 17 digits).  The gather
# index of a cell takes 23 * 8 bytes, so _GATHER_ROWS cells are placed at a
# time (94 KB of index; a whole 41 x 41 slice at once raised a simulate's
# peak RSS by 0.4 MB).
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_HEAD = np.frombuffer(b"\0-.0", np.uint32)[0]
_CELL = 23
_VALUE_BYTES = 155  # a chunk's peak per value, its cells included (149 traced)
_GATHER_ROWS = 512


@functools.cache
def _g17_tables():
    """Read-only tables of :func:`g17_cells`, built on first use.

    Indexed by the decade j: ``bounds`` are 5e-324 and the smallest doubles
    >= 10**k, k = -4..17, so ``searchsorted`` puts |x| in [10**e, 10**(e+1))
    at j = e + 6 and +-0 at j = 0; ``fast`` marks those j; ``power`` is
    10**(16 - e) with its Veltkamp halves.  Indexed by a 4-digit group: its
    ASCII and its trailing zeros.  Indexed by 34 j + 17 sign + (trailing
    zeros of the 17 digits): the byte-row position of each byte of the
    cell, 0 (a NUL) past its end.
    """
    bounds = [5e-324]
    for k in range(-4, 18):
        t = float(10 ** k) if k >= 0 else 1 / 10 ** -k
        num, den = t.as_integer_ratio()
        below = num * 10 ** max(-k, 0) < den * 10 ** max(k, 0)
        bounds.append(math.nextafter(t, math.inf) if below else t)
    fast = [j == 0 or 1 < j < 23 for j in range(24)]
    decade = [j - 6 if j and fast[j] else 0 for j in range(24)]  # +-0 prints as e = 0
    power = [float(10 ** (16 - e)) for e in decade]
    power_hi = [_SPLIT * p - (_SPLIT * p - p) for p in power]
    group = np.empty((10, 10, 10, 10, 4), np.uint8)  # the ASCII of abcd at [a, b, c, d]
    for i in range(4):
        group[..., i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
    z = np.array([1] + [0] * 9)  # the trailing zeros of abcd: d == 0, then c == 0, ...
    zeros = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    digits = bytes(range(7, 24))
    cells = []
    for e in decade:
        for k in range(17, 0, -1):  # significant digits
            if e < 0:  # "0." and -e - 1 zeros before the digits
                cell = b"\3\2" + b"\3" * (-e - 1) + digits[:k]
            else:  # the integer digits, and "." and the rest if any
                cell = digits[:e + 1] + (b"\2" + digits[e + 1:k] if k > e + 1 else b"")
            cells.append(cell.ljust(_CELL, b"\0"))
        cells += [b"\1" + cell[:-1] for cell in cells[-17:]]
    layout = b"".join(cells)
    tables = (np.array(bounds), np.array(fast), np.array(power), np.array(power_hi),
              np.array(power) - power_hi, group.view(np.uint32).ravel(),
              zeros.ravel().astype(np.uint8), np.frombuffer(layout, np.uint8).reshape(-1, _CELL))
    for table in tables:
        table.flags.writeable = False
    return tables


def _exact_digits(a, j, power, power_hi, power_lo):
    """a * 10**(16 - e) rounded half-even, exactly, as int64 for a in decade j;
    overwrites a.

    Dekker's product gives it as hi + lo with no rounding error: lo is
    ((a_hi b_hi - hi) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in that order.
    The sum lies in [1e16, 1e17), where hi is an even integer, so rounding
    lo half-even rounds the sum half-even.
    """
    hi = a * power[j]
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a -= a_hi  # a_lo
    b_hi, b_lo = power_hi[j], power_lo[j]
    lo = a_hi * b_hi
    lo -= hi
    lo += a_hi * b_lo
    lo += a * b_hi
    lo += a * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digit_rows(x, tables):
    """The byte row of each value, its layout key, and whether it is fast.

    Uses divmod, int64 arithmetic and no integer comparisons: each numpy
    loop a run has not used before maps in 64 KB of numpy's code, and peak
    RSS counts it (searchsorted and the uint8 index cast are the two added).
    """
    bounds, fast, power, power_hi, power_lo, group, zeros, _ = tables
    a = np.abs(x)
    j = np.searchsorted(bounds, a, side="right")
    fast = fast[j]
    # no inf or nan reaches the arithmetic
    d = _exact_digits(np.where(fast, a, 0.0), j, power, power_hi, power_lo)
    row = np.empty((x.size, 6), np.uint32)
    row[:, 0] = _HEAD
    for col in (5, 4, 3, 2):
        d, g = np.divmod(d, 10000)
        row[:, col] = group[g]
        z = zeros[g].astype(np.int64)
        if col == 5:  # the trailing zeros, and 1 while every group so far is 0000
            tz, run = z, z >> 2
        else:
            tz += run * z
            run *= z >> 2
    row[:, 1] = group[d]  # the leading digit, nonzero unless x is 0
    key = j * 34 + tz
    return row, np.where(np.signbit(x), key + 17, key), fast


def _g17_chunk(x):
    tables = _g17_tables()
    row, key, fast = _digit_rows(x, tables)
    layout = tables[-1]
    source = row.view(np.uint8).ravel()
    offsets = np.arange(0, 24 * x.size, 24)[:, None]
    out = np.empty((x.size, _CELL), np.uint8)
    for start in range(0, x.size, _GATHER_ROWS):
        stop = start + _GATHER_ROWS
        index = layout[key[start:stop]].astype(np.intp)
        index += offsets[start:stop]
        source.take(index, out=out[start:stop])
    cells = out.view(f"S{_CELL}").ravel().tolist()
    slow = np.flatnonzero(~fast)
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        cells[i] = b"%.17g" % value
    return cells


def _sections(values) -> int:
    """The fewest parts of equal size along its first axis that keep each
    part of ``values`` within ``CHUNK_BYTES``."""
    per_chunk = max(1, discretization.CHUNK_BYTES // _VALUE_BYTES)
    return max(1, -(-values.size // per_chunk))


def g17_cells(values) -> list:
    """``[b"%.17g" % x for x in values]`` for a float array, computed in numpy.

    |x| in [1e-4, 1e17) and +-0 print in fixed notation: the decade e of |x|
    is found among the smallest doubles >= 10**k; 10**(16 - e) is an exact
    double there, so Dekker's product gives |x| * 10**(16 - e) exactly as
    hi + lo, and rounding it half-even gives the 17 digits with no error,
    the digits CPython's correctly rounded ``%.17g`` prints.  No double in that range rounds up to the next power
    of ten: only the one below each 10**k could, and the tests check those.
    A table keyed by decade, sign and significant digits places the digits.
    Every other value (exponent notation, subnormals, inf, nan) is formatted
    by ``%.17g`` itself.  Values go through chunks whose memory, cells
    included, fits ``discretization.CHUNK_BYTES``.
    """
    x = np.ravel(np.asarray(values, dtype=np.float64))
    cells = []
    for part in np.array_split(x, _sections(x)):
        cells.extend(_g17_chunk(part))
    return cells


def node_rows(nodes, values, times=None):
    """Bytes blocks of the CSV rows ``[t,]<node cells>,<value>``, each of
    whole lines, to be joined by newlines.

    ``nodes`` is the (n, k) array of the leading cells of each node's row,
    printed as ``%.17g`` prints them, so integral values below 2**53 print as
    integers; ``values`` the (T, n) values at ``times``, or n values when
    ``times`` is None.  Every cell comes from :func:`g17_cells`.  The nodes
    go in blocks of at most half a chunk of nodes, each formatted once into
    a template; each time slice stamps its time on every line of a block's
    template and fills in that block's values by one more ``%`` format.
    Besides its values' cells a fill holds the stamped and the filled copy
    of the block's lines, about one more value's budget a node, so a block
    stays within a chunk.
    """
    line = b"%s," * nodes.shape[1] + b"%%s"
    size = max(1, discretization.CHUNK_BYTES // _VALUE_BYTES // 2)
    starts = range(0, len(nodes), size)
    templates = [b"\n".join([line] * len(part)) % tuple(g17_cells(part))
                 for part in (nodes[start:start + size] for start in starts)]
    stamps = [b""] if times is None else [t + b"," for t in g17_cells(times)]
    for stamp, row in zip(stamps, np.reshape(values, (-1, len(nodes)))):
        for template, start in zip(templates, starts):
            yield _stamped(template, stamp) % tuple(g17_cells(row[start:start + size]))


def _stamped(block, stamp):
    """``block`` with ``stamp`` leading every line."""
    return stamp + block.replace(b"\n", b"\n" + stamp) if stamp else block


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


@contextlib.contextmanager
def output_lock(out_dir):
    """Exclusive ownership of an output directory: an ``flock`` on its
    ``.lock``, which the kernel drops when the holder exits, however it
    exits, so a killed run leaves nothing to take over."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / ".lock"
    while True:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR | os.O_NOFOLLOW, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise OutputLockedError(f"output directory {out_dir} is locked by another run") from None
        with contextlib.suppress(FileNotFoundError):
            # a run that finished in between may have unlinked the file now held
            if os.path.samestat(os.fstat(fd), os.stat(lock_path, follow_symlinks=False)):
                break
        os.close(fd)
    try:
        yield out_dir
    finally:
        # unlinked while held: a run that opened it meanwhile finds, once it
        # locks it, that the path no longer names it, and retries
        with contextlib.suppress(OSError):
            os.unlink(lock_path)
        os.close(fd)
