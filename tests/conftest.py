import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# subprocess tests run `python -m neuralfield.cli`; give them this tree's
# package even when pytest alone (pyproject's pythonpath) put it on sys.path
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from neuralfield import (
    FieldState,
    FiringRate,
    Grid,
    LearningKernel,
    ModelSpec,
    SynapticKernel,
    build_operator,
    make_quadrature,
)


def exponential_kernel(amplitude=0.5, decay=1.0):
    return SynapticKernel("exponential", {"amplitude": amplitude, "decay": decay})


def make_model(gamma=0.5, firing_kind="sigmoid", kernel_kind="exponential", mode="well-posed"):
    kernel = (exponential_kernel() if kernel_kind == "exponential"
              else SynapticKernel("mexican-hat", {"scale": 1.0}))
    firing = FiringRate(firing_kind)
    return ModelSpec(kernel, firing, LearningKernel(), gamma=gamma, mode=mode)


def zero_firing():
    """Firing rate whose image is {0}: slope-0 clamped ramp."""
    return FiringRate("piecewise-linear-clamped", {"slope": 0.0, "threshold": 0.0})


@pytest.fixture(scope="session")
def grid_201():
    return Grid(bounds=[(-10.0, 10.0)], npts=[201])


@pytest.fixture(scope="session")
def quad_201(grid_201):
    return make_quadrature(grid_201, "trapezoid")


@pytest.fixture(scope="session")
def op_201(grid_201, quad_201):
    return build_operator(exponential_kernel(), grid_201, quad_201)


@pytest.fixture(scope="session")
def bump_201(grid_201):
    x = grid_201.points[:, 0]
    return FieldState(np.exp(-x * x / 4.0))
