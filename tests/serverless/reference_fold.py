"""Reference oracle for the pool's cold-stage fold: the sort-and-count loop.

A copy of ``MultiModelCluster._account_cold_stages`` as it was before the
array fold: one ``(end, instance id, position, instance, stage)`` tuple
per stage of every launch, one ``sorted``, then two counter updates per
stage (and, traced, one span per stage) in that order.  It folds into
fresh dicts and a fresh span list, so ``test_fold_parity.py`` can run it
on a finished pool and compare with what the pool folded.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

_EPS = 1e-12


def fold(pool) -> Tuple[Dict[str, Dict[str, float]],
                        Dict[str, Dict[str, int]], List[tuple],
                        List[tuple], float]:
    """``(seconds, counts, spans, marks, last end)``: per-model
    ``cold_stage_seconds`` and ``cold_stage_counts``, the traced
    ``(label, start, end, track, args)`` spans and ``(label, time,
    track, args)`` ``ladder_rung`` marks in record order, and the last
    stage's end."""
    done = sorted(   # instance ids and positions are unique
        (instance.launched_at + stage.end, instance.instance_id,
         position, instance, stage)
        for instance in itertools.chain(*pool.instances.values())
        for position, stage in enumerate(instance.cold_stages)
        if not instance.cancelled or instance.launched_at + stage.end
        <= instance.retired_at + _EPS)
    seconds: Dict[str, Dict[str, float]] = {
        model: {} for model in pool.deployments}
    counts: Dict[str, Dict[str, int]] = {
        model: {} for model in pool.deployments}
    spans: List[tuple] = []
    marks: List[tuple] = []
    for end, _id, _position, instance, stage in done:
        model = instance.model_name
        seconds[model][stage.name] = \
            seconds[model].get(stage.name, 0) + stage.duration
        counts[model][stage.name] = counts[model].get(stage.name, 0) + 1
        track = f"instance-{instance.instance_id}"
        spans.append((stage.name, instance.launched_at + stage.start, end,
                      track, dict(lane=stage.lane,
                                  background=stage.background,
                                  critical=stage.critical,
                                  cold_start=True)))
        if stage.name.startswith("degrade_"):
            marks.append(("ladder_rung", end, track,
                          dict(stage=stage.name)))
    return seconds, counts, spans, marks, done[-1][0] if done else 0.0
