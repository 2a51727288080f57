"""Shared fixtures for the whole test tree."""

import sys

import pytest

import repro.core.pe as pe_module

#: The two PE code paths the differential tests compare, keyed by the value
#: both kernel cutovers are pinned to.  ``spec`` never leaves the
#: scalar executable specification; ``kernels`` runs the lookup kernels on
#: every invocation, however small.  Randomized small configs would
#: otherwise stay below the cutovers and compare the scalar code with
#: itself.
PE_PATHS = {"spec": sys.maxsize, "kernels": 0}


@pytest.fixture
def on_pe_paths():
    """Run a thunk once per PE path; assert the results are ``==``-equal.

    ``on_pe_paths(thunk)`` calls ``thunk()`` under each entry of
    :data:`PE_PATHS` and returns the common result.  Thunks return plain
    comparable data — vector bytes, ``PEWork`` counters, statuses, event
    lists — so the equality covers every observable they capture.
    """

    def run(thunk):
        results = {}
        for name, cutover in PE_PATHS.items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pe_module, "_VECTOR_SCAN_CUTOVER", cutover)
                patch.setattr(pe_module, "_VECTOR_FOLD_CUTOVER", cutover)
                results[name] = thunk()
        assert results["spec"] == results["kernels"], "PE paths diverged"
        return results["spec"]

    return run
