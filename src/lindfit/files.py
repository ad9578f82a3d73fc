"""Output files that a failing writer never leaves half written."""

import contextlib
import os


@contextlib.contextmanager
def replacing(path):
    """Open a text file for writing that replaces `path` when the block ends.

    The text goes to a temporary file beside `path`, named
    `<path>.<pid>.tmp` so that it matches no `*.csv` or `*.json` pattern,
    and os.replace moves it onto `path` once the block has succeeded.  If
    the block raises, the temporary file is removed and `path` keeps what
    it held.  The file is not fsynced: this guards against the writing
    process failing or being killed, not against an OS crash or power
    loss, after which the rename may reach the disk before the data.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
