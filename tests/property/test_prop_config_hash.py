"""Property tests for the config hash's canonical form.

:func:`config_to_dict` reads each config class's field names from a
table it fills once per class, and returns exact-type scalars before
any other test. :func:`reference_to_dict` below is the recursive walk
it replaced, which reflects on every node and tests each value in
turn. On any dataclass tree both must give the same ``canonical_json``
bytes (the cache key) and the same field-order JSON (the ``config`` a
cache entry stores), and both must refuse the same values.

The configs the experiments plan are pinned separately: every
artifact's ``cells`` list must equal its planned config hashes
(``tests/unit/test_artifacts.py``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pipeline.parallel import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    config_hash,
    config_to_dict,
)
from repro.traces.bandwidth import BandwidthTrace


def reference_to_dict(value: object) -> object:
    """The canonical form as a plain recursive walk."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_to_dict(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, BandwidthTrace):
        return {"__bandwidth_trace__": [
            [float(t), float(r)] for t, r in value.breakpoints()
        ]}
    if isinstance(value, (tuple, list)):
        return [reference_to_dict(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"cannot canonicalize {type(value).__name__!r} for hashing"
    )


def reference_json(config: object) -> str:
    return json.dumps(
        reference_to_dict(config),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


class Mode(enum.Enum):
    FAST = "fast"
    SLOW = 2
    PAIR = (1, "x")


@dataclass(frozen=True)
class Leaf:
    # A ClassVar is not a field: neither form may emit it.
    kind: ClassVar[str] = "leaf"
    # Declared out of alphabetical order, so the field-order JSON
    # checks the table keeps ``dataclasses.fields`` order.
    z: object = None
    a: object = None


@dataclass
class Node:
    label: object
    child: object
    items: object
    trace: object = None


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")])
    | st.text(max_size=8)
    | st.floats(allow_nan=False).map(np.float64)
    | st.sampled_from(Mode)
)

TRACES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1e9),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda point: point[0],
).map(lambda points: BandwidthTrace(sorted(points)))


def _trees(children: st.SearchStrategy) -> st.SearchStrategy:
    return (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.builds(Leaf, z=children, a=children)
        | st.builds(
            Node,
            label=children,
            child=st.none() | st.builds(Leaf, z=children, a=children),
            items=st.lists(children, max_size=3).map(tuple),
            trace=st.none() | TRACES,
        )
    )


TREES = st.recursive(SCALARS | TRACES, _trees, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_canonical_form_matches_the_reference(tree):
    assert canonical_json(tree) == reference_json(tree)
    # ``put`` stores the config unsorted, so field order decides bytes.
    entry_form = json.dumps(config_to_dict(tree), separators=(",", ":"))
    assert entry_form == json.dumps(
        reference_to_dict(tree), separators=(",", ":")
    )
    payload = f"v{CACHE_SCHEMA_VERSION}:{reference_json(tree)}"
    assert config_hash(tree) == hashlib.sha256(payload.encode()).hexdigest()


BAD_VALUES = [
    pytest.param({"a": 1}, id="dict"),
    pytest.param({1, 2}, id="set"),
    pytest.param(np.int64(3), id="numpy-int64"),
    pytest.param(Leaf, id="dataclass-class"),
]

WRAPPERS = {
    "list": lambda v: [1, v, "x"],
    "tuple": lambda v: (v, 2.5),
    "leaf": lambda v: Leaf(z=v, a=True),
    "node": lambda v: Node(label="n", child=Leaf(a=v), items=(None,)),
}


@pytest.mark.parametrize("bad", BAD_VALUES)
@settings(max_examples=20, deadline=None)
@given(path=st.lists(st.sampled_from(sorted(WRAPPERS)), max_size=4))
def test_both_forms_refuse_the_same_values(bad, path):
    value = bad
    for wrapper in path:
        value = WRAPPERS[wrapper](value)
    with pytest.raises(ConfigError):
        reference_to_dict(value)
    with pytest.raises(ConfigError):
        config_to_dict(value)
