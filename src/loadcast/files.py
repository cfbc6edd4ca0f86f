"""Crash-safe replacement of the files the package writes.

Model and store files, evaluation reports, forecast CSV/JSON and training
logs are each written to a temporary file beside the target and renamed
over it once complete, so a reader sees the old file or the new one, never
a half-written one.  Files written together are renamed only after all of
them are complete.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(*paths):
    """Yield one temporary path per target in ``paths``, then rename each
    over its target once the block completes.

    If the block fails, or a target is a directory, every temporary is
    removed and no target is touched.  Nothing is fsynced: this guards
    against failed writes and killed processes, not power loss.
    """
    targets = [Path(p) for p in paths]
    tmps = [t.with_name(f".{t.name}.{os.getpid()}.tmp") for t in targets]
    try:
        yield tmps
        for target in targets:
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory")
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise
