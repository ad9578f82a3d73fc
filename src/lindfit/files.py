"""The package's one file writer (CSV and JSON files that a failing writer
never leaves half written) and its one JSON reader."""

import contextlib
import json
import os


@contextlib.contextmanager
def replacing(path):
    """Open a text file for writing that replaces `path` when the block ends.

    The text goes to a temporary file beside `path` (whose directory is
    made if missing), named
    `<path>.<pid>.tmp` so that it matches no `*.csv` or `*.json` pattern,
    and os.replace moves it onto `path` once the block has succeeded.  If
    the block raises, the temporary file is removed and `path` keeps what
    it held.  The file is not fsynced: this guards against the writing
    process failing or being killed, not against an OS crash or power
    loss, after which the rename may reach the disk before the data.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, cols, rows, head=()):
    """The `head` lines as they are, a header of `cols`, then one line per
    row: strings as they are, numbers at 17 significant digits.  A column
    holds strings or numbers throughout, so the first row sets the format
    of every row."""
    lines = [*head, ",".join(cols)]
    if rows:
        fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0])
        lines += [fmt % tuple(row) for row in rows]
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_json(path, error=ValueError):
    """The JSON object in `path`; a file that is not valid JSON, or holds
    another JSON value, is refused with `error` naming the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: must hold a JSON object, got {type(obj).__name__}")
    return obj


def write_json(path, obj, indent=None):
    """`obj` as JSON with sorted keys and a final newline; `indent` as
    json.dump takes it.  A nan or infinite number, which JSON cannot hold,
    is refused with ValueError, and `path` keeps what it held."""
    with replacing(path) as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True, allow_nan=False)
        fh.write("\n")
