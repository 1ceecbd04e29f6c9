"""Energy models: closed-form exponential-family oracles and MLP energies.

The oracles, ``GaussianMeanModel`` and ``BinaryCubeModel``, are exponential
families E(x) = -theta . T(x) whose log Z and its gradient are exact.

A model is E_theta(x) plus an optional base density d(x) and a declared
reference measure. Two conventions coexist and are made explicit per model:

* carrier base (``base_is_carrier = True``): the base is the model's
  reference measure. It scales importance weights (w = e^{-E} d / q) and the
  normalizer Z = integral e^{-E} d dx, but reported log-densities and
  log-likelihoods are relative to d(x) dx, so the data term is -E alone.
  ``GaussianMeanModel`` follows this convention.
* tilt (``base_is_carrier = False``): the base is part of the density and
  values are relative to Lebesgue measure; the data term is -E + log d.
  MLP energies with a Gaussian base follow this convention.

Either way a draw's log-weight is -E plus ``objectives.measure_term``,
log d - log q (-log q without a base), which ``sample_and_score`` stores in
the batch once; ``unnorm_log_density`` is what enters data terms and reports.
Conditional models (``regression``) follow the carrier convention, with a
carrier c(y) over the response and the same ``measure_term``.
"""

from __future__ import annotations

import numpy as np

from . import proposals, serialize
from .errors import UnsupportedExactFormError
from .nets import Mlp, NetGroup
from .proposals import StandardGaussian, cube_states
from .regression import ConditionalEnergyModel, NormalizerNet
from .rng import PortableRng

DENSITY_WIDTHS = [2, 200, 100, 50, 50, 1]


class EnergyModel:
    """Contract shared by all unconditional energy models."""

    dim: int
    base = None
    base_is_carrier = False

    def energy(self, x: np.ndarray) -> np.ndarray:
        return self.energy_vjp_prepared(x)[0]

    def energy_vjp_prepared(self, x: np.ndarray, workspace=None):
        """(energies, vjp): vjp(cotangent) is sum_i cotangent_i * dE(x_i)/dtheta
        as a flat vector. MLP energies share one forward pass between the two,
        made in ``workspace`` (a ``nets.Workspace``) when one is given."""
        raise NotImplementedError

    @property
    def theta(self) -> np.ndarray:
        raise NotImplementedError

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        raise NotImplementedError

    def bind(self, buffer: np.ndarray) -> None:
        """Move the parameters into ``buffer`` (flat, ``n_params`` long) and
        keep them there, so that in-place updates of it change the model."""
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        return self.theta.shape[0]

    def unnorm_log_density(self, x: np.ndarray) -> np.ndarray:
        u = -self.energy(x)
        if self.base is not None and not self.base_is_carrier:
            u = u + self.base.log_density(x)
        return u

    # closed forms; only the oracles implement these
    def exact_log_z(self) -> float:
        raise UnsupportedExactFormError(f"{type(self).__name__} has no closed-form normalizer")

    def exact_log_z_grad(self) -> np.ndarray:
        raise UnsupportedExactFormError(f"{type(self).__name__} has no closed-form normalizer")

    def exact_log_likelihood(self, data: np.ndarray) -> float:
        """mean_i -E(x_i) - log Z, relative to the model's reference measure."""
        return float(np.mean(-self.energy(data))) - self.exact_log_z()


class LinearOracle(EnergyModel):
    """E(x) = -theta . T(x), the shared form of the oracles, with the
    sufficient statistic T(x) = ``statistic(x)`` of shape (n, n_params)."""

    def __init__(self, theta):
        self._theta = np.array(theta, dtype=np.float64).ravel()

    @property
    def theta(self) -> np.ndarray:
        return self._theta.copy()

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self._theta[...] = np.asarray(value, dtype=np.float64).reshape(self._theta.shape)

    def bind(self, buffer: np.ndarray) -> None:
        buffer[...] = self._theta
        self._theta = buffer

    def energy_vjp_prepared(self, x: np.ndarray, workspace=None):
        t = self.statistic(x)
        return -(t @ self._theta), lambda cotangent: -(cotangent @ t)


class GaussianMeanModel(LinearOracle):
    """E(x) = -theta x against a standard-Gaussian carrier, with T(x) = x.

    Z = integral e^{theta x} phi(x) dx = e^{theta^2 / 2} (the Gaussian mgf),
    so the model is N(theta, 1) and the likelihood optimum is theta = x_bar
    with b = x_bar^2 / 2.
    """

    dim = 1
    base_is_carrier = True

    def __init__(self, theta: float = 0.0):
        super().__init__(float(theta))
        self.base = StandardGaussian(1)

    def statistic(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def exact_log_z(self) -> float:
        return 0.5 * float(self._theta[0] ** 2)

    def exact_log_z_grad(self) -> np.ndarray:
        return self._theta.copy()


class BinaryCubeModel(LinearOracle):
    """Fully visible Boltzmann machine on {0, 1}^dim under counting measure:
    T(x) = (x_i for each i; x_i x_j for i < j, row-major), dim(dim+1)/2
    parameters (``theta`` may be one value for all), Z summed over the 2^dim
    states. dim = 1 is the Bernoulli family, Z = 1 + e^theta."""

    def __init__(self, dim: int, theta=0.0):
        self.dim = int(dim)
        super().__init__(np.broadcast_to(np.asarray(theta, dtype=np.float64), (self.dim * (self.dim + 1) // 2,)))

    def statistic(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        i, j = np.triu_indices(self.dim, 1)
        return np.concatenate([x, x[:, i] * x[:, j]], axis=1)

    def exact_log_z(self) -> float:
        return float(np.logaddexp.reduce(self.statistic(cube_states(self.dim)) @ self._theta))

    def exact_log_z_grad(self) -> np.ndarray:
        t = self.statistic(cube_states(self.dim))
        u = t @ self._theta
        return np.exp(u - np.logaddexp.reduce(u)) @ t


class MlpEnergy(NetGroup, EnergyModel):
    """Fully-connected energy network, optionally tilted by a base density.

    ``widths`` runs from the input dimension to a scalar output (ReLU hidden
    layers, linear output); the 2-D density benchmarks use
    ``DENSITY_WIDTHS`` = [2, 200, 100, 50, 50, 1]. With all-zero weights the
    energy is the final bias, i.e. 0 at initialization; the normalizer offset
    b is a separate scalar owned by the training state, not a layer bias.
    """

    kind = "density"  # the checkpoint kind of ``descriptor``
    base_is_carrier = False

    def __init__(self, widths: list[int], base=None, rng: PortableRng | None = None):
        self.net = Mlp(widths, rng)
        self.nets = (self.net,)
        if self.net.widths[-1] != 1:
            raise ValueError("energy networks must end in a scalar output")
        self.dim = self.net.widths[0]
        self.base = base
        if base is not None and getattr(base, "dim", self.dim) != self.dim:
            raise ValueError("base distribution dimension does not match the model")

    def energy(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward(np.asarray(x, dtype=np.float64), keep_cache=False)
        return out[:, 0]

    def energy_vjp_prepared(self, x: np.ndarray, workspace=None):
        """One forward pass shared between the energy values and later vjp
        calls; with a ``workspace`` both stay valid until its next pass. The
        pass runs in the workspace's precision; energies and gradients come
        back as float64."""
        out, cache = self.net.forward(np.asarray(x, dtype=np.float64), workspace=workspace)

        def vjp(cotangent: np.ndarray) -> np.ndarray:
            return self.net.backward(cache, np.asarray(cotangent, dtype=np.float64).reshape(-1, 1),
                                     workspace=workspace)

        return out[:, 0].astype(np.float64, copy=False), vjp

    def descriptor(self, b: float) -> dict:
        """The checkpoint fields of the model with normalizer offset ``b``,
        which ``from_descriptor`` reads back."""
        return {"kind": self.kind, "widths": list(self.net.widths), "theta": serialize.fmt_vector(self.theta),
                "b": serialize.fmt(b), "base": self.base.descriptor() if self.base is not None else None}


def from_descriptor(desc: dict):
    """The one reader of model descriptors: (``MlpEnergy``, b) of kind density,
    (``ConditionalEnergyModel`` with its carrier, ``NormalizerNet`` or None) of
    kind regression. A missing key is a KeyError, any other fault a ValueError
    naming the key, among them a base or carrier of the wrong dimension."""
    kind = desc["kind"]
    if kind == MlpEnergy.kind:
        with serialize.named("widths"):
            model = MlpEnergy(desc["widths"])
        with serialize.named("base"):
            model.base = proposals.from_descriptor(desc["base"], model.dim) if desc["base"] is not None else None
        model.theta = serialize.parse(desc, "theta", (model.n_params,))
        return model, float(serialize.parse(desc, "b", ()))
    if kind == ConditionalEnergyModel.kind:
        model = ConditionalEnergyModel()
        for key, net in zip(model.NET_KEYS, model.nets):
            net.theta = serialize.parse(desc, key, (net.n_params,))
        with serialize.named("eval_proposal"):
            model.carrier = proposals.from_descriptor(desc["eval_proposal"], 1)
        normalizer = NormalizerNet() if desc["normalizer_phi"] is not None else None
        if normalizer is not None:
            normalizer.theta = serialize.parse(desc, "normalizer_phi", (normalizer.n_params,))
        return model, normalizer
    raise ValueError(f"unknown model kind {kind!r}")
