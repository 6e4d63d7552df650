"""Shared setup for the paper-claim tests.

Each module under ``tests/claims/`` regenerates a scaled-down slice of
one of the paper's tables or figures and asserts its qualitative shape
(orderings, ratios, collapse points).  The modules carry the ``slow``
marker; run them with::

    PYTHONPATH=src python -m pytest -q -m slow tests/claims

Full-scale runs (the numbers recorded in EXPERIMENTS.md) use
``python -m repro.experiments <name>`` instead.
"""

import functools

import pytest


@functools.cache
def _run(fn, kwargs):
    return fn(**dict(kwargs))


@pytest.fixture(scope="session")
def point():
    """``point(fn, **kwargs)`` runs ``fn(**kwargs)`` once per session.

    Several claims read the same simulation point (a figure's curve, a
    table's row); the first claim simulates it and the rest reuse the
    result.  A failing point raises its own exception in every claim
    that asks for it.
    """
    def run(fn, **kwargs):
        return _run(fn, tuple(sorted(kwargs.items())))
    return run
