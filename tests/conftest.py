"""Shared fixtures for the whole test tree."""

from collections import Counter
from typing import List

import numpy as np
import pytest

import repro.core.sweep as sweep_module
from repro.core.engine import FafnirEngine
from repro.obs.events import PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER
from tests import pe_oracle

#: The two tree implementations the differential tests compare: the
#: closed-form sweep every engine runs, leaf fold included, and the object
#: PE oracle (``tests/pe_oracle.py``) with its sequential leaf fold.
PE_PATHS = ("sweep", "oracle")

_PE_EVENTS = (PE_REDUCE, PE_FORWARD, PE_MERGE)


def pe_law_violations(pe, input_a, input_b, outputs) -> List[str]:
    """Breaches of the paper's per-PE laws (§IV-B) by one ``process`` call.

    A PE emits at most ``min(nm + n + m, B)`` messages, and a reduction
    moves the matched indices out of the header, so each query
    ``q = indices ∪ entry`` is carried by at most one output message.
    """
    problems = []
    bound = min(
        len(input_a) * len(input_b) + len(input_a) + len(input_b),
        pe.config.batch_size,
    )
    if len(outputs) > bound:
        problems.append(f"{pe.name}: {len(outputs)} outputs > bound {bound}")
    carrier = {}
    for message in outputs:
        for entry in message.entries:
            query = message.indices | entry
            other = carrier.setdefault(query, message.indices)
            if other != message.indices:
                problems.append(
                    f"{pe.name}: query {sorted(query)} rides on both "
                    f"{sorted(other)} and {sorted(message.indices)}"
                )
    return problems


def fold_law_violations(name, stream, outputs, queries) -> List[str]:
    """Breaches of the leaf fold's projection law by one FIFO's fold.

    ``stream`` and ``outputs`` are ``(indices, query ids, value, ready)``
    rows over ``queries``.  Every query ``q`` the stream serves leaves the
    fold on exactly one row: the one for ``S = q ∩ FIFO``, which carries
    the remainder ``q − S``.
    """
    fifo = frozenset().union(*(indices for indices, *_ in stream))
    expected = {(queries[q] & fifo, q) for _, ids, *_ in stream for q in ids}
    carried = {(indices, q) for indices, ids, *_ in outputs for q in ids}

    def pairs(found):
        for indices, q in sorted(found, key=str):
            yield sorted(indices), sorted(queries[q] - indices)

    return [
        f"{name}: fold carries {indices} -> {entry}, "
        f"not the projection of its query"
        for indices, entry in pairs(carried - expected)
    ] + [
        f"{name}: fold lost {indices} -> {entry}"
        for indices, entry in pairs(expected - carried)
    ]


def leaf_outputs(messages, fifo, stream, queries):
    """FIFO ``fifo``'s output rows as the sweep's leaf boundary names them.

    ``messages`` is a :class:`repro.core.sweep.LeafMessages` or a
    :class:`tests.pe_oracle.Boundary`, and ``fifo`` a FIFO key ``batch·fifos
    + fifo`` (the FIFO itself for one batch).  Each message on the FIFO
    carries the query ids its table column names; its indices are taken as
    the FIFO's part of its first query, which its recorded ``size`` must
    match (``ValueError`` otherwise).  A row's value is the message's, or
    ``None`` for leaf messages, whose values are rows of their combine
    program.
    """
    homed = frozenset().union(*(indices for indices, *_ in stream))
    fifos = messages.table.shape[1]
    column = messages.table[:, fifo % fifos]
    value = getattr(messages, "value", None)
    rows = []
    for message in np.unique(column[column >= 0]).tolist():
        if messages.fifo[message] // fifos != fifo // fifos:
            continue  # another batch's message
        ids = np.flatnonzero(column == message).tolist()
        indices = queries[ids[0]] & homed
        if (messages.size[message], messages.fifo[message]) != (len(indices), fifo):
            raise ValueError(
                f"FIFO{fifo}: message {message} has size "
                f"{messages.size[message]} on FIFO {messages.fifo[message]}, "
                f"but carries {sorted(indices)}"
            )
        rows.append((indices, ids, None if value is None else value[message],
                     messages.ready[message]))
    return rows


def leaf_kind(leaf) -> str:
    """Whether no FIFO (``"fold-free"``), every FIFO in use (``"folding"``)
    or some of them (``"mixed"``) can fold in the leaf columns ``leaf``: a
    FIFO can iff a (FIFO, query id) or a (FIFO, index) pair repeats on it."""
    seen, folds = set(), set()
    for index, fifo, ids in zip(leaf.index.tolist(), leaf.fifo.tolist(),
                                pe_oracle.id_tuples(leaf)):
        for key in [(fifo, "index", index), *((fifo, "query", q) for q in ids)]:
            if key in seen:
                folds.add(fifo)
            seen.add(key)
    if not folds:
        return "fold-free"
    return "folding" if folds == set(leaf.fifo.tolist()) else "mixed"


def tree_event_fingerprint(events):
    """An event stream as ``==``-comparable data for the differential tests.

    Every event off the tree keeps its place in the stream.  The PE events
    (``pe_reduce``/``pe_forward``/``pe_merge``) are compared as one
    multiset per PE: the sweep emits a level's events in a different order
    from the object PEs.
    """
    stream, per_pe = [], {}
    for event in events:
        if event.kind in _PE_EVENTS:
            key = (event.kind, event.cycle, event.level, repr(event.args))
            per_pe.setdefault(event.pe, Counter())[key] += 1
        else:
            stream.append(event)
    return stream, per_pe


def _checked_fold(fold):
    """``fold`` plus :func:`fold_law_violations` on every fold of a PE's
    FIFO (a fold given a ``pe_id``)."""

    def run(stream, queries, work, operator, reduce_path, tracer=NULL_TRACER,
            pe_id=None, level=None):
        outputs = fold(stream, queries, work, operator, reduce_path, tracer,
                       pe_id, level)
        if pe_id is not None:
            problems = fold_law_violations(f"PE{pe_id}", stream, outputs, queries)
            assert not problems, "\n".join(problems)
        return outputs

    return run


def _checked_boundary(boundary):
    """``boundary`` plus :func:`fold_law_violations` on every leaf FIFO of
    every batch, those it passes through without a fold included.
    ``boundary`` is ``repro.core.sweep.leaf_messages`` or, with the oracle
    fold's signature, :func:`tests.pe_oracle.fold_every_fifo`."""

    def run(queries, leaf, *args):
        messages = boundary(queries, leaf, *args)
        problems = []
        for fifo, stream in enumerate(pe_oracle.leaf_rows(leaf)):
            if stream:
                outputs = leaf_outputs(messages, fifo, stream, queries)
                problems += fold_law_violations(f"FIFO{fifo}", stream, outputs, queries)
        assert not problems, "\n".join(problems)
        return messages

    return run


@pytest.fixture
def on_pe_paths():
    """Run a thunk on the tree sweep and on the object oracle; assert ``==``.

    ``on_pe_paths(thunk)`` calls ``thunk()`` once per entry of
    :data:`PE_PATHS` and returns the common result.  On the ``oracle`` path
    every engine's tree stage (``FafnirEngine._run_trees``) is the object
    sweep of :func:`tests.pe_oracle.run_tree` on each batch, merge-unit
    value check on, and the leaf boundary under test,
    :func:`tests.pe_oracle.leaf_boundary`, is the oracle's sequential fold
    on every FIFO, :func:`tests.pe_oracle.fold_every_fifo`.  Thunks
    return plain comparable data — vector bytes, ready cycles, ``PEWork``
    counters, statuses, :func:`tree_event_fingerprint` of a trace — so the
    equality covers every observable they capture.

    On both paths every oracle fold of a PE's FIFO and every leaf FIFO of
    the sweep's boundary, those it passes through without a fold included,
    is checked against :func:`fold_law_violations`.  Every object PE
    invocation (a PE built with a ``pe_id``) is checked against
    :func:`pe_law_violations`.  Hand-built messages in unit tests need not
    describe a real batch, so folds and PEs without a ``pe_id`` are left
    unchecked.
    """
    process = pe_oracle.ProcessingElement.process
    sweep_boundary = _checked_boundary(sweep_module.leaf_messages)
    oracle_boundary = _checked_boundary(pe_oracle.fold_every_fifo)
    oracle_fold = _checked_fold(pe_oracle.fold_rows)

    def checked_process(self, input_a, input_b):
        result = process(self, input_a, input_b)
        if self.pe_id is not None:
            problems = pe_law_violations(self, input_a, input_b, result.outputs)
            assert not problems, "\n".join(problems)
        return result

    def oracle_trees(engine, plans, leaf, tracers):
        return [
            pe_oracle.run_tree(engine, plan, columns, check_values=True, tracer=tracer)
            for plan, columns, tracer in zip(
                plans, pe_oracle.batch_columns(leaf, plans), tracers)
        ]

    def run(thunk):
        results = {}
        for name in PE_PATHS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pe_oracle.ProcessingElement, "process", checked_process)
                patch.setattr(pe_oracle, "fold_rows", oracle_fold)
                if name == "sweep":
                    patch.setattr(sweep_module, "leaf_messages", sweep_boundary)
                else:
                    patch.setattr(pe_oracle, "leaf_boundary", oracle_boundary)
                    patch.setattr(FafnirEngine, "_run_trees", oracle_trees)
                results[name] = thunk()
        assert results["sweep"] == results["oracle"], "tree sweep diverged from the oracle"
        return results["sweep"]

    return run
