"""Synthetic fleet generation for cluster experiments.

Real fleets are heavy-tailed: a few large database VMs, a body of
medium application servers, and a long tail of small utility VMs.
The generator draws sizes from a Zipf-skewed catalogue through the
platform's deterministic RNG, so fleets are reproducible from a seed.
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.host import VMSpec
from repro.util.errors import ConfigError
from repro.util.rng import DeterministicRNG
from repro.util.units import GIB


@dataclass(frozen=True)
class VMClass:
    """One entry in the size catalogue."""

    name: str
    cpu_demand: float
    memory_bytes: int
    interactive: bool = False


#: Default catalogue, ordered hot-to-cold for the Zipf draw: the small
#: utility class is the most common, the big database box the rarest.
DEFAULT_CATALOGUE: Tuple[VMClass, ...] = (
    VMClass("util", cpu_demand=0.5, memory_bytes=1 * GIB),
    VMClass("web", cpu_demand=1.0, memory_bytes=2 * GIB, interactive=True),
    VMClass("app", cpu_demand=1.5, memory_bytes=4 * GIB),
    VMClass("cache", cpu_demand=1.0, memory_bytes=8 * GIB),
    VMClass("db", cpu_demand=3.0, memory_bytes=16 * GIB, interactive=True),
)


#: Each VM's CPU demand is its class's, scaled uniformly in
#: ``[1-JITTER, 1+JITTER]`` so same-class VMs are not identical.
JITTER = 0.2


def generate_fleet(count: int, seed: int = 1) -> List[VMSpec]:
    """Generate ``count`` reproducible VM specs: classes drawn Zipf(1)
    over ``DEFAULT_CATALOGUE``'s order."""
    if count <= 0:
        raise ConfigError("count must be positive")
    catalogue = DEFAULT_CATALOGUE
    rng = DeterministicRNG(seed)
    fleet: List[VMSpec] = []
    for index in range(count):
        klass = catalogue[rng.sample_zipf(len(catalogue))]
        factor = 1.0 + (rng.random() * 2.0 - 1.0) * JITTER
        fleet.append(
            VMSpec(
                name=f"{klass.name}-{index:03d}",
                cpu_demand=round(klass.cpu_demand * factor, 3),
                memory_bytes=klass.memory_bytes,
                interactive=klass.interactive,
            )
        )
    return fleet
