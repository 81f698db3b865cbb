"""Tests for the per-process OpenBLAS thread budget (``repro.utils.blas``)."""

import numpy as np
import pytest

from repro.utils import blas


class FakeBlas:
    """Stands in for the resolved OpenBLAS set/get pair."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def set(self, n):
        self.calls.append(("set", n))
        self.threads = n

    def get(self):
        return self.threads

    def shutdown(self):
        self.calls.append(("shutdown",))
        return 0


@pytest.fixture
def fake(monkeypatch):
    lib = FakeBlas(8)
    controls = blas._Controls(lib.set, lib.get, lib.shutdown)
    monkeypatch.setattr(blas, "_CONTROLS", controls)
    monkeypatch.setattr(blas, "usable_cpus", lambda: 8)
    return lib


def test_budget_splits_cores_between_workers(fake):
    assert blas.worker_budget(1) == 8
    assert blas.worker_budget(2) == 4
    assert blas.worker_budget(3) == 2
    assert blas.worker_budget(16) == 1  # never below one thread


def test_budget_never_raises_the_inherited_setting(fake):
    fake.threads = 2  # e.g. an operator's OPENBLAS_NUM_THREADS=2
    assert blas.worker_budget(2) == 2
    assert blas.worker_budget(8) == 1


def test_set_reads_back_and_none_changes_nothing(fake):
    assert blas.set_blas_threads(3) == 3
    assert blas.set_blas_threads(None) == 3
    assert fake.threads == 3
    # The pool the set rebuilt is shut down again: no idle spinner.
    assert fake.calls == [("set", 3), ("shutdown",)]


def test_without_controls_everything_is_a_noop(monkeypatch):
    monkeypatch.setattr(blas, "_CONTROLS", None)
    assert blas.blas_threads() is None
    assert blas.set_blas_threads(1) is None
    assert blas.worker_budget(2) is None


def numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy: no machine-readable build config
        return ""


def test_resolves_the_openblas_numpy_loaded():
    if "openblas" not in numpy_blas_name().lower():
        pytest.skip("numpy is not built against OpenBLAS")
    inherited = blas.blas_threads()
    assert inherited is not None and inherited >= 1
    try:
        assert blas.set_blas_threads(1) == 1
    finally:
        blas.set_blas_threads(inherited)
    assert blas.blas_threads() == inherited
