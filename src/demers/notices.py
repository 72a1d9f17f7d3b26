"""Warnings a run reports about its results, recorded for its manifest.

``warn`` issues a ``UserWarning`` as ``warnings.warn`` does, so callers that
catch warnings still see every one, and inside ``recording()`` it also
appends the message to that block's list. ``cli.run`` records this way the
metric clamping of ``metrics``, the residual overlap of ``forcelayout`` and
a binary program's final LP that ended without an optimum
(``simplexsolver.solve_ilp``).

The list is held per thread: ``warnings.catch_warnings`` swaps process-wide
state, and ``cli.run_matrix`` runs ``cli.run`` on several threads at once.
It is a ``threading.local``, not a context variable: once a thread has set
a context variable, numpy searches that thread's context on every ufunc call
for its error state, and the force kernel, thousands of ufunc calls on tiny
arrays per layout, ran about 5% slower on the ``force`` benchmark.
"""

from __future__ import annotations

import contextlib
import threading
import warnings
from collections.abc import Iterator

_local = threading.local()  # ``record``: the list of the innermost recording() block


def warn(message: str, stacklevel: int = 1) -> None:
    """``warnings.warn(message, stacklevel=stacklevel)``, recorded as well."""
    record = getattr(_local, "record", None)
    if record is not None:
        record.append(message)
    warnings.warn(message, stacklevel=stacklevel + 1)


@contextlib.contextmanager
def recording() -> Iterator[list[str]]:
    """The messages ``warn`` gives in this thread within the block, in order."""
    outer = getattr(_local, "record", None)
    record: list[str] = []
    _local.record = record
    try:
        yield record
    finally:
        _local.record = outer
