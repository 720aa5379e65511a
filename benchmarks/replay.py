"""Traced replay of crossing replicates through the public layer calls.

Each replicate runs the pipeline one layer at a time, with a span around
each call: ``sample_window_configuration`` -> ``build_index`` ->
``candidate_pairs`` -> ``segment_distance_arrays`` -> ``UnionFind`` ->
crossing test.  Its outcome is then checked against ``crossing_event`` on
the same configuration, which also gives the untraced time of the same
work.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from stickperc import UnionFind, build_index, crossing_event, sample_window_configuration
from stickperc.geometry import INTERSECT_THRESHOLD, segment_distance_arrays
from stickperc.percolation import replicate_seeds, tuned_cell_size

# replay intensities, as multiples of the workload's reference lambda_c(L)
MULTIPLES = (0.8, 1.0, 1.25)
LAYERS = (
    "sampling",
    "percolation.index",
    "percolation.pairs",
    "geometry.narrow",
    "percolation.union",
    "percolation.crossing",
)


class Tracer:
    """In-memory spans: (trace id, span id, parent span id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self._next = 0

    @contextmanager
    def span(self, trace: int, name: str, parent: int | None = None):
        span_id = self._next
        self._next += 1
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append((trace, span_id, parent, name, start, time.perf_counter_ns()))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the part of
        its interval that its child spans cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for _, span_id, _, name, start, end in self.spans:
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(span_id, [])):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] = out.get(name, 0.0) + (end - start - covered) * 1e-9
        return out

    def durations(self, name: str) -> list[float]:
        return [(end - start) * 1e-9 for _, _, _, n, start, end in self.spans if n == name]


def crossing_test(config, labels: np.ndarray, axis: int = 0) -> bool:
    """Whether one cluster label touches both window faces orthogonal to ``axis``."""
    window = config.observation_window
    reach = config.half * np.abs(config.dirs[:, axis]) + 1.0
    lo = config.centers[:, axis] - reach
    hi = config.centers[:, axis] + reach
    low = (lo <= window.low[axis]) & (hi >= window.low[axis])
    high = (lo <= window.high[axis]) & (hi >= window.high[axis])
    return bool(np.isin(labels[low], labels[high]).any())


def replay(spec, seed: int) -> dict:
    """Replay ``spec.replay_replicates`` replicates per (L, multiple) and
    return the spans' layer times, counts and the cross-check result."""
    law = spec.law_object()
    tracer = Tracer()
    counts = dict(sticks=0, candidates=0, edges=0, clusters=0, crossed=0)
    mismatches = 0
    untraced = 0.0
    trace = 0
    for L, reference in zip(spec.lengths, spec.reference):
        side = spec.side_factor * L
        cell = tuned_cell_size(float(L), law)
        for probe, multiple in enumerate(MULTIPLES):
            lam = multiple * reference
            for rep_seed in replicate_seeds(seed, probe, spec.replay_replicates):
                trace += 1
                with tracer.span(trace, "replicate") as root:
                    with tracer.span(trace, "sampling", root):
                        config = sample_window_configuration(spec.d, float(L), lam, law, side, rep_seed)
                    with tracer.span(trace, "percolation.index", root):
                        index = build_index(config, cell)
                    with tracer.span(trace, "percolation.pairs", root):
                        pairs = index.candidate_pairs()
                    with tracer.span(trace, "geometry.narrow", root):
                        i, j = pairs.T
                        dist = segment_distance_arrays(
                            config.centers[i], config.dirs[i], config.length,
                            config.centers[j], config.dirs[j], config.length,
                        )
                        edges = pairs[dist <= INTERSECT_THRESHOLD]
                    with tracer.span(trace, "percolation.union", root):
                        uf = UnionFind(config.count)
                        for a, b in edges:
                            uf.union(int(a), int(b))
                        labels = uf.labels()
                    with tracer.span(trace, "percolation.crossing", root):
                        crossed = crossing_test(config, labels)
                t0 = time.perf_counter()
                expected = crossing_event(config, axis=0, cell=cell)
                untraced += time.perf_counter() - t0
                mismatches += crossed != expected
                counts["sticks"] += config.count
                counts["candidates"] += len(pairs)
                counts["edges"] += len(edges)
                counts["clusters"] += uf.count
                counts["crossed"] += crossed
    return dict(tracer=tracer, counts=counts, mismatches=mismatches, untraced_s=untraced)
