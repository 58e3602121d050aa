"""Container resource limits (§V, Container Execution).

"... the Docker container is configured without network access, only 8GB
of memory, and a maximum lifetime of 1 hour.  These limits can be changed
using the RAI worker configuration file."
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = 1024 ** 3


@dataclass(frozen=True)
class ResourceLimits:
    """Enforceable per-container caps."""

    memory_bytes: int = 8 * GIB
    network_enabled: bool = False
    max_lifetime_seconds: float = 3600.0
    max_output_bytes: int = 64 * 1024 * 1024  # log-flood guard

    def __post_init__(self):
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.max_lifetime_seconds <= 0:
            raise ValueError("max_lifetime_seconds must be positive")
        if self.max_output_bytes <= 0:
            raise ValueError("max_output_bytes must be positive")
