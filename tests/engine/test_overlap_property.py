"""Property test: the O(1) closed-form layer-wise prefill time agrees with
the O(L) per-layer pipeline recurrence it replaced.

Agreement is checked to within a relative tolerance of 1e-12: the
reference accumulates ``L`` additions of ``c = compute_time / L`` while the
closed form multiplies once, so the two legitimately differ in the last
couple of ulps (about ``L * eps`` relative, ~2e-14 for L = 80).  Anything
beyond that tolerance is a real disagreement between the derivation and
the pipeline.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_reference import layerwise_prefill_time_reference

from repro.engine import layerwise_prefill_time

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(
    n_layers=st.integers(min_value=1, max_value=160),
    compute_time=times,
    load_time=times,
    buffer_layers=st.integers(min_value=0, max_value=200),
)
def test_closed_form_matches_reference(
    n_layers, compute_time, load_time, buffer_layers
):
    closed = layerwise_prefill_time(n_layers, compute_time, load_time, buffer_layers)
    reference = layerwise_prefill_time_reference(
        n_layers, compute_time, load_time, buffer_layers
    )
    assert math.isclose(closed, reference, rel_tol=1e-12, abs_tol=1e-15), (
        f"closed={closed!r} reference={reference!r} for "
        f"L={n_layers} c={compute_time!r} d={load_time!r} B={buffer_layers}"
    )


@given(
    n_layers=st.integers(min_value=1, max_value=160),
    compute_time=times,
    load_time=times,
)
def test_full_buffer_is_pure_compute(n_layers, compute_time, load_time):
    assert layerwise_prefill_time(
        n_layers, compute_time, load_time, buffer_layers=n_layers
    ) == n_layers * (compute_time / n_layers)


@given(
    n_layers=st.integers(min_value=1, max_value=160),
    compute_time=times,
    load_time=times,
    buffer_layers=st.integers(min_value=0, max_value=200),
)
def test_bounded_by_no_overlap_and_compute(
    n_layers, compute_time, load_time, buffer_layers
):
    duration = layerwise_prefill_time(
        n_layers, compute_time, load_time, buffer_layers
    )
    # Never better than pure compute, never worse than serial load+compute
    # (modulo float noise on the boundaries; the absolute slack covers
    # subnormal inputs where c = compute_time / L underflows).
    assert duration >= compute_time * (1 - 1e-12) - 1e-300
    assert duration <= (compute_time + load_time) * (1 + 1e-12) + 1e-300
