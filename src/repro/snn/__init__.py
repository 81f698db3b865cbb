"""Spiking neural-network substrate: population coding, LIF dynamics, STBP.

Implements §II.B–§II.C of the paper: the Gaussian population encoder
(eqs. (2)–(4)), two-state current-based LIF neurons (eqs. (5)–(7)), the
firing-rate population decoder (eqs. (8)–(10)), the rectangular
surrogate gradient (eq. (11)), and the full SDP network (Algorithm 1).
"""

from .decoding import PopulationDecoder
from .encoding import EncoderConfig, PopulationEncoder
from .layers import SpikingLinear, SpikingStack
from .network import (
    ActivityRecord,
    SDPConfig,
    SDPNetwork,
    SharedSDPConfig,
    SharedSDPNetwork,
)
from .neurons import (
    LIFParameters,
    LIFState,
    LIFTrainTape,
    lif_backward_step,
    lif_step,
    lif_step_train,
    spike_function,
)
from .surrogate import (
    SurrogateGradient,
    arctan,
    fast_sigmoid,
    get_surrogate,
    rectangular,
    triangular,
)

__all__ = [
    "ActivityRecord",
    "EncoderConfig",
    "LIFParameters",
    "LIFState",
    "LIFTrainTape",
    "PopulationDecoder",
    "PopulationEncoder",
    "SDPConfig",
    "SDPNetwork",
    "SharedSDPConfig",
    "SharedSDPNetwork",
    "SpikingLinear",
    "SpikingStack",
    "SurrogateGradient",
    "arctan",
    "fast_sigmoid",
    "get_surrogate",
    "lif_backward_step",
    "lif_step",
    "lif_step_train",
    "rectangular",
    "spike_function",
    "triangular",
]
