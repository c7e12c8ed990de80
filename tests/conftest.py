"""Fixtures shared by the test modules: the arithmetic dtype, set for one test."""

import numpy as np
import pytest

from fsnet import numerics


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def arithmetic_dtype(request, monkeypatch):
    """numerics.DTYPE set to each float dtype in turn; returns it."""
    monkeypatch.setattr(numerics, "DTYPE", request.param)
    return request.param


@pytest.fixture
def float64_arithmetic(monkeypatch):
    """numerics.DTYPE set to float64, the dtype of every array before float32."""
    monkeypatch.setattr(numerics, "DTYPE", np.float64)
