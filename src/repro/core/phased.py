"""Store-and-forward (phased) timing variant of the FAFNIR engine.

The default :class:`~repro.core.engine.FafnirEngine` timing is *dataflow*:
each message advances the moment its own operands are ready, which is the
optimistic end of how the hardware can behave ("FAFNIR flows data
corresponding to distinct queries through the tree in such a way that they
do not conflict", §IV-A).  The conservative end is *phased* operation: a PE
collects its entire input batch, processes it, then emits — what a simple
batch-synchronous implementation would do.

This engine computes identical functional outputs with phased timing:

* a PE starts when the **last** of its input messages is ready;
* its busy time is the compare workload spread over its compute units plus
  one reduce-path pipeline drain;
* outputs then emit one per cycle.

Real hardware lands between the two engines; reporting both brackets the
truth (see ``tests/core/test_phased.py`` and the timing-model docs).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.core.engine import FafnirEngine
from repro.core.header import Message
from repro.core.pe import PEWork, ProcessingElement


class PhasedFafnirEngine(FafnirEngine):
    """FAFNIR with batch-synchronous per-PE timing (upper-bound latency)."""

    def _run_tree(
        self, leaf_inputs: Dict[int, List[List[Message]]]
    ) -> tuple:
        outputs: Dict[int, List[Message]] = {}
        per_pe_work: Dict[int, PEWork] = {}
        units = self.config.compute_units
        latencies = self.config.latencies

        for pe_id in self.tree.bottom_up_ids():
            node = self.tree.pe(pe_id)
            pe = ProcessingElement(
                self.config,
                self.operator,
                name=f"PE{pe_id}",
                check_values=self._check_values,
                tracer=self.tracer,
                pe_id=pe_id,
                level=node.level,
            )
            if node.is_leaf:
                fold_work = PEWork()
                raw_a, raw_b = leaf_inputs[pe_id]
                input_a = pe.fold_stream(raw_a, fold_work)
                input_b = pe.fold_stream(raw_b, fold_work)
            else:
                fold_work = PEWork()
                left, right = node.children  # type: ignore[misc]
                input_a = outputs.get(left, [])
                input_b = outputs.get(right, [])

            result = pe.process(input_a, input_b)
            work = result.work.merged_with(fold_work)

            # Phased timing: wait for the whole input batch, grind through
            # the compare workload, drain the reduce pipeline, emit 1/cycle.
            arrivals = [m.ready_cycle for m in input_a] + [
                m.ready_cycle for m in input_b
            ]
            start = max(arrivals) if arrivals else 0
            busy = math.ceil(max(1, work.compares) / units) + latencies.reduce_path
            ordered = sorted(
                result.outputs, key=lambda m: (m.ready_cycle, sorted(m.indices))
            )
            for position, message in enumerate(ordered):
                message.ready_cycle = start + busy + position

            outputs[pe_id] = ordered
            per_pe_work[pe_id] = work
        return outputs[self.tree.root_id], per_pe_work
