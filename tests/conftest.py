"""Shared builders: geometries are expensive enough to cache per session.
Every test must leave the cyclic garbage collector enabled."""

import gc
import sys
from itertools import chain
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gqupir.fields import GF
from gqupir.geometry import build_pg2, build_q4, build_w3
from gqupir.upir import Transcript

_GQ_CACHE = {}
_PLANE_CACHE = {}


def get_gq(family, q):
    key = (family, q)
    if key not in _GQ_CACHE:
        builder = {"w3": build_w3, "q4": build_q4}[family]
        _GQ_CACHE[key] = builder(GF(q))
    return _GQ_CACHE[key]


def get_plane(q):
    if q not in _PLANE_CACHE:
        _PLANE_CACHE[q] = build_pg2(GF(q))
    return _PLANE_CACHE[q]


def joined(streams, seed=None, truth=None):
    """One Transcript of the streams converge_topics handed to its log,
    topic after topic, each still numbered from seq 0."""
    return Transcript(streams[0].system, streams[0].protocol, seed,
                      chain.from_iterable(s.events for s in streams),
                      {} if truth is None else truth)


@pytest.fixture(autouse=True)
def gc_left_enabled():
    """Fail a test that leaves gc disabled, and enable it again, so that a
    pause that is never undone does not carry into the tests after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
