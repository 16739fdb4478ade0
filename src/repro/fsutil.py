"""Filesystem helpers shared by the trace format, the disk cache and
the commands that write files."""

import errno
import os
import tempfile


def check_parent_dir(path):
    """Raise the error writing ``path`` would hit when its directory does
    not exist, so a command fails before its work rather than after."""
    directory = os.path.dirname(os.fspath(path)) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, "no such directory",
                                directory)


def atomic_write(path, writer):
    """Write via a sibling temp file + rename (safe across processes).

    ``writer`` receives the temp path and must write the complete
    contents; the rename publishes the file only after ``writer``
    returns, so readers never observe a truncated file and concurrent
    writers settle on whichever rename lands last.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.close(fd)
        writer(tmp_path)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
