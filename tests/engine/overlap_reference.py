"""Reference O(L) recurrence for the layer-wise pre-loading model.

Evaluates the per-layer pipeline of Figures 6-7 literally.  It is the
oracle for the property test pinning the O(1) closed form in
:func:`repro.engine.layerwise_prefill_time`, and the "before" side of
that closed form's speedup in ``benchmarks/bench_perf_sim.py``.
"""

from __future__ import annotations


def layerwise_prefill_time_reference(
    n_layers: int,
    compute_time: float,
    load_time: float,
    buffer_layers: int = 0,
) -> float:
    """Finish time of the last layer: layer ``i`` computes for
    ``c = compute_time / L`` once both the previous layer has finished and
    its KV has arrived; layers below ``B = buffer_layers`` are ready at 0
    and layer ``i >= B`` at ``(i - B + 1) * load_time / L``."""
    c = compute_time / n_layers
    d = load_time / n_layers
    b = min(buffer_layers, n_layers)
    finish = 0.0
    for layer in range(n_layers):
        ready = 0.0 if layer < b else (layer - b + 1) * d
        finish = max(finish, ready) + c
    return finish
