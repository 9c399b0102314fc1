"""Property tests for job-key canonicalisation (hypothesis).

The whole dedup story — executor claims, store upserts, warm resubmits —
rests on two properties of the key digest:

* **ordering invariance** — equivalent keys (same logical content, any
  mapping insertion order, ``plan_kwargs`` in any order) produce identical
  digests, or concurrent submitters would silently re-execute each other's
  work;
* **injectivity in practice** — distinct configurations never collide, or
  the store would serve one cell's payload for another.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, strategies as st

from repro.scenarios.registry import ScenarioCase
from repro.scenarios.sweep import case_job_key
from repro.serialization import canonical_json
from repro.service.store import DIGEST_LENGTH, ResultStore

#: one shared store: digests are pure functions of (code version, key), so
#: no test here ever writes to it
_STORE = ResultStore(os.path.join(tempfile.mkdtemp(), "digests.sqlite"),
                     code_version=lambda: "cv-fixed")

TUNABLES = ("outputs_per_thread", "block_threads", "items_per_warp",
            "stage_depth")

plan_kwargs_st = st.dictionaries(st.sampled_from(TUNABLES),
                                 st.integers(1, 4096), max_size=len(TUNABLES))

_scalar_st = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
    st.booleans(),
    st.none(),
)
#: job-key mappings as the pipeline builds them: string field names (the
#: reserved ``code_version`` field is the store's own, never a caller's),
#: scalar / nested-mapping / list values
_field_st = st.text(min_size=1, max_size=12).filter(
    lambda s: s != "code_version")
key_st = st.dictionaries(
    _field_st,
    st.one_of(_scalar_st,
              st.dictionaries(_field_st, _scalar_st, max_size=3),
              st.lists(_scalar_st, max_size=4)),
    min_size=1, max_size=5)


@given(kwargs=plan_kwargs_st, rnd=st.randoms(use_true_random=False))
def test_plan_kwargs_ordering_never_changes_the_job_key(kwargs, rnd):
    items = list(kwargs.items())
    rnd.shuffle(items)
    original = ScenarioCase("conv2d", "p100", "float32", "model", "tiny",
                            kwargs)
    shuffled = ScenarioCase("conv2d", "p100", "float32", "model", "tiny",
                            dict(items))
    assert case_job_key(original) == case_job_key(shuffled)
    assert original.fingerprint() == shuffled.fingerprint()
    assert original == shuffled, \
        "canonicalised cases must dedupe as equal objects"


@given(key=key_st, rnd=st.randoms(use_true_random=False))
def test_mapping_insertion_order_never_changes_the_digest(key, rnd):
    items = list(key.items())
    rnd.shuffle(items)
    reordered = dict(items)
    assert _STORE.digest_for(key) == _STORE.digest_for(reordered)


@given(first=key_st, second=key_st)
def test_distinct_configurations_never_collide(first, second):
    first_digest = _STORE.digest_for(first)
    assert len(first_digest) == DIGEST_LENGTH
    if canonical_json(first) == canonical_json(second):
        assert first_digest == _STORE.digest_for(second)
    else:
        assert first_digest != _STORE.digest_for(second)


@given(kwargs=plan_kwargs_st)
def test_distinct_plan_kwargs_produce_distinct_job_keys(kwargs):
    base = ScenarioCase("conv2d", "p100", "float32", "model", "tiny", {})
    tuned = ScenarioCase("conv2d", "p100", "float32", "model", "tiny", kwargs)
    if kwargs:
        assert case_job_key(base) != case_job_key(tuned)
        perturbed = dict(kwargs)
        first = next(iter(perturbed))
        perturbed[first] += 1
        assert case_job_key(tuned) != case_job_key(
            ScenarioCase("conv2d", "p100", "float32", "model", "tiny",
                         perturbed))
    else:
        assert case_job_key(base) == case_job_key(tuned)
