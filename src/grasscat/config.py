"""Runtime configuration shared by the CLI subcommands."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ENV_TRUNCATION = "GRASSCAT_TRUNCATION"
ENV_OUT = "GRASSCAT_OUT"


@dataclass
class Config:
    """Working precision and output settings.

    The truncation defaults to 2n per ambient and must be at least n.
    """

    truncation: Optional[int] = None      # None: 2n per ambient
    output_dir: Path = Path("out")
    fmt: str = "table"                    # table / svg / tikz / dot

    @classmethod
    def from_env(cls) -> "Config":
        cfg = cls()
        env_trunc = os.environ.get(ENV_TRUNCATION)
        if env_trunc:
            cfg.truncation = int(env_trunc)
        env_out = os.environ.get(ENV_OUT)
        if env_out:
            cfg.output_dir = Path(env_out)
        return cfg

    def truncation_for(self, n: int) -> int:
        if self.truncation is None:
            return 2 * n
        if self.truncation < n:
            raise ValueError(f"truncation {self.truncation} below ambient size {n}")
        return self.truncation
