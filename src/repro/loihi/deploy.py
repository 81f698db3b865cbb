"""Deployment pipeline: trained SDP → quantize → verify → profile (Fig. 2).

``deploy()`` reproduces the paper's §II.D flow: rescale weights and
thresholds onto the chip grid (eq. (14)), place the network on cores,
and return a :class:`LoihiDeployment` whose ``act`` runs the integer
core simulator.  ``agreement`` quantifies float-vs-chip fidelity and
``profile`` produces the Loihi rows of Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..snn.network import SDPNetwork
from .core import ChipActivity, LoihiCoreSimulator
from .energy import EnergyReport, LoihiDeviceModel
from .quantize import LoihiSpec, PlacementReport, QuantizedNetwork, placement, quantize_network


@dataclass
class AgreementReport:
    """Fidelity of the quantized policy versus the float policy."""

    mean_l1_action_error: float
    max_l1_action_error: float
    argmax_agreement: float
    num_states: int


class LoihiDeployment:
    """A trained SDP policy running on the simulated chip."""

    def __init__(
        self,
        network: SDPNetwork,
        spec: Optional[LoihiSpec] = None,
        device: Optional[LoihiDeviceModel] = None,
    ):
        self.spec = spec if spec is not None else LoihiSpec()
        self.device = device if device is not None else LoihiDeviceModel()
        self.float_network = network
        self.quantized: QuantizedNetwork = quantize_network(network, self.spec)
        self.placement: PlacementReport = placement(self.quantized, self.spec)
        if not self.placement.fits():
            raise ValueError(
                f"network does not fit on one chip: {self.placement}"
            )
        self.simulator = LoihiCoreSimulator(self.quantized, network.encoder)

    # ------------------------------------------------------------------
    def act(self, state: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        """Chip-format inference for a single state."""
        return self.simulator.act(state, timesteps)

    def run(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[np.ndarray, ChipActivity]:
        return self.simulator.run(states, timesteps)

    # ------------------------------------------------------------------
    def agreement(self, states: np.ndarray) -> AgreementReport:
        """Compare chip actions against the float network on ``states``."""
        states = np.atleast_2d(states)
        chip_actions, _ = self.simulator.run(states)
        float_actions = self.float_network.forward_inference(states)
        l1 = np.abs(chip_actions - float_actions).sum(axis=1)
        agree = (
            np.argmax(chip_actions, axis=1) == np.argmax(float_actions, axis=1)
        ).mean()
        return AgreementReport(
            mean_l1_action_error=float(l1.mean()),
            max_l1_action_error=float(l1.max()),
            argmax_agreement=float(agree),
            num_states=states.shape[0],
        )

    def profile(
        self, states: np.ndarray, name: str = "Loihi", timesteps: Optional[int] = None
    ) -> EnergyReport:
        """Energy/latency report over a representative state batch."""
        _, activity = self.simulator.run(np.atleast_2d(states), timesteps)
        return self.device.report(activity.to_activity_record(), name=name)


def deploy(
    network: SDPNetwork,
    spec: Optional[LoihiSpec] = None,
    device: Optional[LoihiDeviceModel] = None,
) -> LoihiDeployment:
    """Quantize and place a trained SDP network on the simulated chip."""
    return LoihiDeployment(network, spec=spec, device=device)
