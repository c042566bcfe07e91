"""PatchGAN discriminator (Remark 1, item 3).

"The input to the discriminator is the concatenation of fake voltage levels
and program levels.  With the same naming convention as in the generator, we
express the discriminator as C64, C128, C1."

The discriminator outputs a spatial map of real/fake logits (a "patch"
decision per receptive field) rather than a single scalar.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ModelConfig
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    LeakyReLU,
    Module,
    ModuleList,
    Tensor,
)
from repro.nn.tensor import concatenate

__all__ = ["PatchGANDiscriminator"]


class PatchGANDiscriminator(Module):
    """Conditional PatchGAN operating on (PL, VL) channel pairs."""

    def __init__(self, config: ModelConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        self.features = ModuleList()
        in_channels = 2  # program levels + voltage levels
        for index, out_channels in enumerate(config.discriminator_channels):
            conv = Conv2d(in_channels, out_channels, 4, stride=2, padding=1,
                          rng=rng)
            # The BatchNorm applies the LeakyReLU itself; the first layer
            # has no normalisation, so it takes the bare activation.
            activation = BatchNorm2d(out_channels, activation=0.2) \
                if index > 0 else LeakyReLU(0.2)
            # Slots 3*i and 3*i+1 keep the parameter names of the former
            # (conv, norm, activation) triples, so older checkpoints load.
            self.features.add_module(str(3 * index), conv)
            self.features.add_module(str(3 * index + 1), activation)
            in_channels = out_channels
        # Final C1 layer producing one logit per patch (no normalisation).
        self.head = Conv2d(in_channels, 1, 4, stride=1, padding=1, rng=rng)

    def forward(self, program_levels: Tensor, voltages: Tensor) -> Tensor:
        """Return a map of real/fake logits for a (PL, VL) pair.

        Both inputs have shape ``(N, 1, H, W)`` in normalised units.
        """
        if program_levels.shape != voltages.shape:
            raise ValueError("program level and voltage arrays must have the "
                             "same shape")
        out = concatenate([program_levels, voltages], axis=1)
        for layer in self.features:
            out = layer(out)
        return self.head(out)
