"""Shared fixtures for the whole test tree."""

import sys
from typing import List

import pytest

import repro.core.pe as pe_module
from repro.core.pe import ProcessingElement

#: The two PE code paths the differential tests compare, keyed by the value
#: both kernel cutovers are pinned to.  ``spec`` never leaves the
#: scalar executable specification; ``kernels`` runs the lookup kernels on
#: every invocation, however small.  Randomized small configs would
#: otherwise stay below the cutovers and compare the scalar code with
#: itself.
PE_PATHS = {"spec": sys.maxsize, "kernels": 0}


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


def fold_law_violations(pe, stream, outputs) -> List[str]:
    """Breaches of the leaf fold's projection law by one ``fold_stream`` call.

    Every query ``q`` the stream serves leaves the fold on exactly one
    message: the one for ``S = q ∩ FIFO``, carrying ``q − S``.
    """
    fifo = frozenset().union(*(message.indices for message in stream))
    expected = set()
    for message in stream:
        for entry in message.entries:
            query = message.indices | entry
            projection = query & fifo
            expected.add((projection, query - projection))
    carried = {
        (message.indices, entry) for message in outputs for entry in message.entries
    }
    return [
        f"{pe.name}: fold carries {sorted(indices)} -> {sorted(entry)}, "
        f"not the projection of its query"
        for indices, entry in sorted(carried - expected, key=str)
    ] + [
        f"{pe.name}: fold lost {sorted(indices)} -> {sorted(entry)}"
        for indices, entry in sorted(expected - carried, key=str)
    ]


@pytest.fixture
def on_pe_paths():
    """Run a thunk once per PE path; assert the results are ``==``-equal.

    ``on_pe_paths(thunk)`` calls ``thunk()`` under each entry of
    :data:`PE_PATHS` and returns the common result.  Thunks return plain
    comparable data — vector bytes, ``PEWork`` counters, statuses, event
    lists — so the equality covers every observable they capture.

    Every engine PE invocation inside the thunk (a PE built with a
    ``pe_id``) is also checked against :func:`pe_law_violations` and, for
    leaf folds, :func:`fold_law_violations`.  Hand-built messages in unit
    tests need not describe a real batch, so PEs built without a
    ``pe_id`` are left unchecked.
    """
    process = ProcessingElement.process
    fold_stream = ProcessingElement.fold_stream

    def checked_process(self, input_a, input_b):
        result = process(self, input_a, input_b)
        if self.pe_id is not None:
            problems = pe_law_violations(self, input_a, input_b, result.outputs)
            assert not problems, "\n".join(problems)
        return result

    def checked_fold(self, stream, work):
        outputs = fold_stream(self, stream, work)
        if self.pe_id is not None:
            problems = fold_law_violations(self, stream, outputs)
            assert not problems, "\n".join(problems)
        return outputs

    def run(thunk):
        results = {}
        for name, cutover in PE_PATHS.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pe_module, "_VECTOR_SCAN_CUTOVER", cutover)
                patch.setattr(pe_module, "_VECTOR_FOLD_CUTOVER", cutover)
                patch.setattr(ProcessingElement, "process", checked_process)
                patch.setattr(ProcessingElement, "fold_stream", checked_fold)
                results[name] = thunk()
        assert results["spec"] == results["kernels"], "PE paths diverged"
        return results["spec"]

    return run
