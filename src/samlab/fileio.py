"""Output files that are either whole or absent.

Every file samlab writes goes through `replacing`: the bytes go to a temp
file in the same directory, which `os.replace` then renames over the target
in one step. A run that fails or is killed mid-write leaves the previous
file as it was (there is no fsync, so this covers a failing process, not a
power cut). The temp file's name is the process id and a per-process count,
not the target's name, so it stays short when the target's name is at the
file system's 255-byte limit.
"""

import contextlib
import itertools
import os
from pathlib import Path
from typing import Union

_temp_numbers = itertools.count()


@contextlib.contextmanager
def replacing(path: Union[str, Path]):
    """Yield a binary file whose contents replace `path` when the block ends
    without an exception; on an exception the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{os.getpid()}.{next(_temp_numbers)}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text(path: Union[str, Path], text: str) -> None:
    """Replace `path` with `text`, UTF-8 encoded."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))
