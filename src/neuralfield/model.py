"""Synaptic kernels, firing-rate maps, learning kernels, and their constants.

The dynamics evolved elsewhere in the package is

    u_t(x,t) + u(x,t) = integral over the domain of
        w(x,y) * [1 + gamma * g(u(x,t) - u(y,t))] * f(u(y,t)) dy

where w is the synaptic kernel, f the firing rate, g the learning kernel
and gamma >= 0 the plasticity coefficient.  Everything the bound checks
need (the kernel L1 norm, Lipschitz constants) lives here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # discretization imports this module
    from .discretization import DiscreteOperator

MODEL_MODES = ("well-posed", "gain-field")

# The default params of each kind, one table per component; the config
# fills its params sections from these same tables.
FIRING_DEFAULTS = {
    "sigmoid": {"slope": 1.0, "threshold": 0.0},
    "scaled-arctan": {"scale": 1.0},
    "linear": {},
    "piecewise-linear-clamped": {"slope": 1.0, "threshold": 0.0},
}

KERNEL_DEFAULTS = {
    "exponential": {"amplitude": 0.5, "decay": 1.0},
    "mexican-hat": {"scale": 1.0},
    "tabulated": {},
}

LEARNING_DEFAULTS = {"gaussian": {"width": 1.0}}


def _fill_params(kind, params, defaults, what):
    if kind not in defaults:
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of {sorted(defaults)}")
    known = defaults[kind]
    params = dict(params or {})
    extra = set(params) - set(known)
    if extra and kind != "tabulated":
        raise ValueError(f"{what} {kind!r} got unexpected params {sorted(extra)}")
    merged = dict(known)
    merged.update(params)
    if kind != "tabulated" and not all(isinstance(v, numbers.Real) for v in merged.values()):
        raise ValueError(f"{what} {kind!r} params must be numbers")
    return merged


@dataclass(frozen=True)
class FiringRate:
    """Membrane potential to firing probability map.

    Bounded kinds take values in [0, 1]; the linear kind is the identity
    and is only legal in gain-field mode.
    """

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", _fill_params(self.kind, self.params, FIRING_DEFAULTS, "firing rate"))

    @property
    def bounded(self) -> bool:
        return self.kind != "linear"

    @property
    def lipschitz(self) -> float:
        """Sup of |f'| in closed form for every built-in kind."""
        p = self.params
        if self.kind == "sigmoid":
            return abs(p["slope"]) / 4.0
        if self.kind == "scaled-arctan":
            return abs(p["scale"]) / math.pi
        if self.kind == "linear":
            return 1.0
        return abs(p["slope"])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        p = self.params
        if self.kind == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-p["slope"] * (s - p["threshold"])))
        elif self.kind == "scaled-arctan":
            out = 0.5 + np.arctan(p["scale"] * s) / math.pi
        elif self.kind == "linear":
            out = s
        else:
            out = np.clip(p["slope"] * (s - p["threshold"]), 0.0, 1.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class LearningKernel:
    """Gaussian similarity of pre- and post-synaptic potentials.

    g(d) = exp(-(d/width)^2), so g(0) = 1, g is even, and g decays to zero.
    """

    kind: str = "gaussian"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        merged = _fill_params(self.kind, self.params, LEARNING_DEFAULTS, "learning kernel")
        if merged["width"] <= 0:
            raise ValueError("learning kernel width must be positive")
        object.__setattr__(self, "params", merged)

    @property
    def lipschitz(self) -> float:
        # |g'| peaks at d = width/sqrt(2) with value sqrt(2/e)/width.
        return math.sqrt(2.0 / math.e) / self.params["width"]

    def __call__(self, d):
        out = self.in_place(np.array(d, dtype=float))
        return out if out.ndim else float(out)

    def in_place(self, d: np.ndarray) -> np.ndarray:
        """g(d) written over the float array d, which is returned."""
        np.divide(d, self.params["width"], out=d)
        np.multiply(d, d, out=d)
        return np.exp(np.negative(d, out=d), out=d)


@dataclass(frozen=True)
class SynapticKernel:
    """Connection strength w(x, y) between positions y (pre) and x (post).

    Built-in kinds are isotropic profiles of the distance |x - y|:

    * ``exponential``: amplitude * exp(-decay * d), purely excitatory.
    * ``mexican-hat``: (1 - d/scale) * exp(-d/scale), short-range excitation
      with long-range inhibition.
    * ``tabulated``: an explicit matrix sampled on a known set of nodes.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = _fill_params(self.kind, self.params, KERNEL_DEFAULTS, "synaptic kernel")
        if self.kind == "tabulated":
            matrix = np.asarray(merged.get("matrix"), dtype=float)
            nodes = np.asarray(merged.get("nodes"), dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("tabulated kernel needs a square matrix")
            if nodes.shape[0] != matrix.shape[0]:
                raise ValueError("tabulated kernel nodes must match matrix size")
            matrix.flags.writeable = False
            nodes.flags.writeable = False
            merged["matrix"] = matrix
            merged["nodes"] = nodes
        elif self.kind == "exponential":
            if merged["decay"] <= 0:
                raise ValueError("exponential kernel decay must be positive")
        elif self.kind == "mexican-hat":
            if merged["scale"] <= 0:
                raise ValueError("mexican-hat scale must be positive")
        object.__setattr__(self, "params", merged)

    @property
    def isotropic(self) -> bool:
        return self.kind in ("exponential", "mexican-hat")

    @property
    def positive(self) -> bool:
        """True when w > 0 everywhere (purely excitatory network)."""
        if self.kind == "exponential":
            return self.params["amplitude"] > 0
        if self.kind == "tabulated":
            return bool(np.all(self.params["matrix"] > 0))
        return False

    def profile(self, distance):
        """Kernel value as a function of |x - y| (isotropic kinds only)."""
        if not self.isotropic:
            raise ValueError("tabulated kernels have no radial profile")
        d = np.asarray(distance, dtype=float)
        p = self.params
        if self.kind == "exponential":
            out = p["amplitude"] * np.exp(-p["decay"] * d)
        else:
            z = d / p["scale"]
            out = (1.0 - z) * np.exp(-z)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelSpec:
    """Full problem definition: kernel, firing rate, learning kernel, gamma."""

    kernel: SynapticKernel
    firing: FiringRate
    learning: LearningKernel
    gamma: float = 0.0
    mode: str = "well-posed"

    def __post_init__(self):
        if self.mode not in MODEL_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODEL_MODES}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.mode == "well-posed" and not self.firing.bounded:
            raise ValueError(
                "linear firing rate is unbounded and only admitted in gain-field mode"
            )

    @classmethod
    def from_json(cls, doc: Mapping) -> "ModelSpec":
        return cls(
            kernel=SynapticKernel(doc["kernel"]["kind"], doc["kernel"].get("params", {})),
            firing=FiringRate(doc["firing"]["kind"], doc["firing"].get("params", {})),
            learning=LearningKernel(doc["learning"]["kind"], doc["learning"].get("params", {})),
            gamma=float(doc.get("gamma", 0.0)),
            mode=doc.get("mode", "well-posed"),
        )


@dataclass(frozen=True)
class TheoryConstants:
    """Constants controlling every estimate the solver monitors.

    kernel_l1_sup       Cw, sup over x of the L1 norm of w(x, .) on the domain
    firing_lipschitz    sup |f'|
    learning_lipschitz  sup |g'|
    method              'analytic' when Cw has a closed form, 'row-sum' when it
                        is the row-sum norm of the discrete operator
    """

    kernel_l1_sup: float
    firing_lipschitz: float
    learning_lipschitz: float
    method: str = "analytic"

    def __post_init__(self):
        for name in ("kernel_l1_sup", "firing_lipschitz", "learning_lipschitz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def _analytic_l1_sup(kernel: SynapticKernel, grid) -> float | None:
    """Closed-form sup_x integral of |w(x, .)| over the grid's domain, if known."""
    if kernel.kind != "exponential" or grid.dimension != 1:
        return None
    amp = abs(kernel.params["amplitude"])
    lam = kernel.params["decay"]
    a, b = grid.bounds[0]
    if grid.boundary == "periodic":
        # integral of the minimal-image profile around the ring
        return amp * (2.0 / lam) * (1.0 - math.exp(-lam * (b - a) / 2.0))
    # maximised at the midpoint of the interval
    return (amp / lam) * (2.0 - 2.0 * math.exp(-lam * (b - a) / 2.0))


def compute_constants(model: ModelSpec, op: DiscreteOperator) -> TheoryConstants:
    """Compute the estimate constants for a model and its discrete operator.

    The 1-D exponential kernel takes its closed-form Cw and reads only
    ``op.grid``.  Every other kernel takes the row-sum norm
    R = max_i sum_j |W_ij| of the operator the run integrates, the constant
    for which the sup bound max{||u0||, (1 + gamma) R} is a theorem of the
    semi-discrete system (Atkinson 1997, ch. 4): one FFT for isotropic
    kernels, the dense rows for tabulated ones.
    """
    kernel_l1_sup = _analytic_l1_sup(model.kernel, op.grid)
    method = "analytic"
    if kernel_l1_sup is None:
        kernel_l1_sup = float(op.abs_apply(np.ones(op.grid.n_total)).max())
        method = "row-sum"
    return TheoryConstants(
        kernel_l1_sup=kernel_l1_sup,
        firing_lipschitz=model.firing.lipschitz,
        learning_lipschitz=model.learning.lipschitz,
        method=method,
    )


def contraction_factor(constants: TheoryConstants, gamma: float, segment_length: float) -> float:
    """Contraction factor of the solution operator over a time segment.

    q = rho * [1 + L*Cw + gamma*(L + 2K)*Cw] where rho is the segment length,
    L and K the firing/learning Lipschitz constants and Cw the kernel L1 sup.
    The fixed-point argument needs q < 1.
    """
    if segment_length < 0:
        raise ValueError("segment length must be nonnegative")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    cw = constants.kernel_l1_sup
    lip_f = constants.firing_lipschitz
    lip_g = constants.learning_lipschitz
    return segment_length * (1.0 + lip_f * cw + gamma * (lip_f + 2.0 * lip_g) * cw)


def max_segment_length(constants: TheoryConstants, gamma: float) -> float:
    """Longest segment with contraction factor exactly 1/2."""
    return 0.5 / contraction_factor(constants, gamma, 1.0)
