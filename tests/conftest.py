"""Fixtures shared by the test modules."""

import builtins
import contextlib
import errno
import io

import pytest


class _HalfWriter:
    """A file whose first write stores half the text, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        lines = list(lines)
        empty = lines[0][:0] if lines else b""  # "" for text, b"" for bytes
        self.write(empty.join(lines))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def failing_writes(monkeypatch):
    """A context manager under which every file opened for writing fails
    halfway through its first write, as on a full disk."""

    @contextlib.contextmanager
    def active():
        real_open = io.open

        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _HalfWriter(fh) if "w" in mode else fh

        with monkeypatch.context() as patch:
            patch.setattr(io, "open", open_)
            patch.setattr(builtins, "open", open_)
            yield

    return active
