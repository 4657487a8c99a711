"""Analytic serving costs for the discrete-event simulator.

The cluster simulator needs step-level timings without dragging a live
simulated process per instance; these formulas are the same ones the real
engine's clock advances by (``repro.simgpu.costmodel``), extended with the
KV-cache read traffic that grows with context length during decoding.

A run of pure-decode steps is read from a memo: each cost model keeps one
table of decode-step times per (batch size, graph mode), indexed by the
batch's integer context sum, and a run is a strided, read-only slice of
it (:meth:`ServingCostModel.decode_run`).  The tables hold at most
:data:`DECODE_TABLE_BUDGET` entries per cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel


#: The most decode-table entries one cost model keeps (16 MiB of
#: float64s).  A table that would pass it evicts the tables built or last
#: grown longest ago; one larger than the whole budget is sliced once and
#: not kept.
DECODE_TABLE_BUDGET = 1 << 21


def _maximum_in_place(memory: np.ndarray, compute: float) -> np.ndarray:
    return np.maximum(memory, compute, out=memory)


class DecodeTables:
    """One cost model's decode tables and the work spent building them.

    ``tables[(batch_size, use_graphs)][i]`` is the decode-step time of a
    ``batch_size``-sequence batch whose contexts sum to ``i``.  The dict
    keeps the tables in the order they were built or last grown, which
    is the eviction order.
    """

    __slots__ = ("tables", "entries", "built", "priced")

    def __init__(self) -> None:
        self.tables: Dict[Tuple[int, bool], np.ndarray] = {}
        #: Entries the kept tables hold, at most DECODE_TABLE_BUDGET.
        self.entries = 0
        #: Tables built: a first use, or a use after eviction.
        self.built = 0
        #: Entries priced by the decode formula, growth included.
        self.priced = 0


@dataclass(frozen=True)
class ServingCostModel:
    """Per-iteration serving times for one model under one cost model.

    Immutable: the padded-batch table, the hoisted decode and prefill
    constants and the decode tables below are derived from ``config`` and
    ``cost_model`` and would go stale if either changed.
    """

    config: ModelConfig
    cost_model: CostModel = field(default_factory=CostModel)
    #: ``_padded[b]`` is :meth:`padded_batch` of ``b`` for
    #: ``0 <= b <= max(capture_batch_sizes)``.
    _padded: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: ``decode_step_time``'s per-model constants, each the same
    #: expression the formula evaluates, so every result keeps its bits.
    _decode: Tuple = field(init=False, repr=False, compare=False)
    #: ``prefill_time``'s constants, as ``CostModel.eager_step_time``
    #: evaluates them for one sequence.
    _prefill: Tuple = field(init=False, repr=False, compare=False)
    #: :meth:`decode_run`'s memo, filled as runs ask for it.
    decode_tables: DecodeTables = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        config = self.config
        if isinstance(config, str):
            config = get_model_config(config)
            object.__setattr__(self, "config", config)
        sizes = config.capture_batch_sizes
        padded = tuple(min(b for b in sizes if b >= batch)
                       for batch in range(max(sizes) + 1))
        cm = self.cost_model
        gpu = cm.gpu
        eager_launch = config.nodes_for_batch(1) * cm.launch_gap
        decode = (2.0 * config.num_params, gpu.effective_flops,
                  config.param_bytes, config.hidden_size,
                  config.num_layers, gpu.effective_mem_bandwidth,
                  cm.graph_launch_overhead, eager_launch)
        prefill = (2.0 * (config.param_bytes / 2), gpu.effective_flops,
                   config.param_bytes / gpu.effective_mem_bandwidth,
                   eager_launch)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "_decode", decode)
        object.__setattr__(self, "_prefill", prefill)
        object.__setattr__(self, "decode_tables", DecodeTables())

    # -- components ---------------------------------------------------------

    def padded_batch(self, batch_size: int) -> int:
        """The smallest capture batch size >= ``batch_size``; the largest
        one when ``batch_size`` exceeds them all."""
        padded = self._padded
        return padded[min(batch_size, len(padded) - 1)]

    # -- iteration times ---------------------------------------------------------

    def prefill_time(self, prompt_tokens: int) -> float:
        """Eager prefill of one request (vLLM prefills outside graphs)."""
        two_params, flops, memory, launch = self._prefill
        return max(two_params * prompt_tokens / flops, memory) + launch

    def decode_step_time(self, batch_size: int, avg_context: float,
                         use_graphs: bool) -> float:
        """One decode iteration over ``batch_size`` running sequences."""
        return self._decode_time(batch_size, avg_context, use_graphs)

    def decode_step_at(self, batch_size: int, context_sum: int,
                       use_graphs: bool) -> float:
        """:meth:`decode_step_time` of a ``batch_size``-sequence batch
        whose contexts sum to ``context_sum``, read from its table.

        The mean context is the integer sum over the count: the same
        correctly rounded division as the mean over the per-sequence
        contexts.  Returns a Python float.
        """
        table = self.decode_tables.tables.get((batch_size, use_graphs))
        if table is None or len(table) <= context_sum:
            table = self._grow_decode_table(batch_size, use_graphs,
                                            context_sum + 1)
        return table.item(context_sum)

    def decode_run(self, batch_size: int, context_sum: int, steps: int,
                   use_graphs: bool) -> np.ndarray:
        """Times of ``steps`` consecutive pure-decode iterations.

        The batch stays ``batch_size`` sequences and admits nothing, so
        its integer context sum starts at ``context_sum`` and grows by
        ``batch_size`` per iteration.  Returns a read-only float64 view
        of the batch's decode table, every ``batch_size``-th entry from
        ``context_sum``; each element has the bits of
        :meth:`decode_step_time` at that iteration's mean context.
        """
        stop = context_sum + steps * batch_size
        table = self.decode_tables.tables.get((batch_size, use_graphs))
        if table is None or len(table) < stop:
            table = self._grow_decode_table(batch_size, use_graphs, stop)
        return table[context_sum:stop:batch_size]

    def _grow_decode_table(self, batch_size: int, use_graphs: bool,
                           stop: int) -> np.ndarray:
        """The batch's decode table, grown to at least ``stop`` entries.

        A new table has exactly ``stop`` entries; a table that grows at
        least doubles (up to the budget), so a batch whose context sums
        keep rising rebuilds its table a logarithmic number of times.
        Only the new entries are priced, in place, by the decode formula
        over their exact integer contexts divided by ``batch_size``:
        integer-valued float64s below 2**53 are exact, so each division
        is the correctly rounded ``int / int`` of the per-step formula,
        and each element goes through the same IEEE operations, in the
        same order, as :meth:`decode_step_time`.
        """
        memo = self.decode_tables
        key = (batch_size, use_graphs)
        table = memo.tables.pop(key, None)
        old = 0
        if table is None:
            memo.built += 1
        else:
            old = len(table)
            memo.entries -= old
        size = max(stop, min(2 * old, DECODE_TABLE_BUDGET))
        grown = np.empty(size)
        if old:
            grown[:old] = table
        contexts = np.divide(np.arange(old, size, dtype=np.float64),
                             batch_size, out=grown[old:])
        self._decode_time(batch_size, contexts, use_graphs,
                          _maximum_in_place)
        memo.priced += size - old
        grown.flags.writeable = False
        if size <= DECODE_TABLE_BUDGET:
            tables = memo.tables
            while memo.entries + size > DECODE_TABLE_BUDGET:
                memo.entries -= len(tables.pop(next(iter(tables))))
            tables[key] = grown
            memo.entries += size
        return grown

    def _decode_time(self, batch_size: int, avg_context, use_graphs: bool,
                     maximum=max):
        """The decode formula, on one mean context or on an array of them.

        A float (or int) is rebound by each augmented operation; a
        float64 array is updated in place, elementwise, by the same
        IEEE operation in the same order.  ``maximum`` picks the larger
        of the memory and compute terms (either one when they tie).
        """
        (two_params, flops, param_bytes, hidden, layers, bandwidth,
         graph_launch, eager_launch) = self._decode
        if use_graphs:
            compute = two_params * self.padded_batch(batch_size) / flops
            launch = graph_launch
        else:
            compute = two_params * batch_size / flops
            launch = eager_launch
        # Weights plus the batch's K+V read volume, evaluated as
        # ``(param_bytes + batch_size * avg_context * hidden * 2 * 2 *
        # layers) / bandwidth``.  Keep this order: re-associating the
        # product changes its bits (IEEE + and * commute, so swapping
        # operands does not).
        memory = avg_context
        memory *= batch_size
        memory *= hidden
        memory *= 2
        memory *= 2
        memory *= layers
        memory += param_bytes
        memory /= bandwidth
        time = maximum(memory, compute)
        time += launch
        return time

    def deferred_capture_penalty(self, batch_size: int) -> float:
        """One-off cost of lazily capturing a batch size while serving (§2.4):
        a warm-up forwarding, the capturing forwarding, and instantiation."""
        cm = self.cost_model
        padded = self.padded_batch(batch_size)
        kernels = self.config.nodes_for_batch(padded)
        warm_up = cm.eager_step_time(self.config.param_bytes, padded, kernels)
        return (warm_up + cm.capture_forward_time(kernels)
                + cm.instantiate_time(kernels))
