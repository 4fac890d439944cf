"""Run reports: deterministic check records with JSON/CSV emission.

Reports serialize without wall time so that byte-identical inputs and
seeds give byte-identical artifacts; the human rendering appends timing.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    residual: float | None = None
    detail: str = ""

    def __post_init__(self):
        # keep reports JSON-serializable even when numpy scalars leak in
        self.passed = bool(self.passed)
        if self.residual is not None:
            self.residual = float(self.residual)


def summarize(name: str, checks, detail: str = "") -> Check:
    """One check standing for ``checks``: it passes when all of them pass
    and carries their largest residual (0.0 for none)."""
    checks = list(checks)
    return Check(name, all(c.passed for c in checks),
                 max((c.residual for c in checks), default=0.0), detail)


@dataclass
class RunReport:
    command: str
    inputs: list = field(default_factory=list)   # (label, digest) pairs
    seed: int | None = None
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name: str, passed: bool, residual: float | None = None,
            detail: str = "") -> None:
        self.checks.append(Check(name, passed, residual, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": [[str(a), str(b)] for a, b in self.inputs],
            "seed": self.seed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "residual": c.residual, "detail": c.detail}
                       for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "status", "residual", "detail"])
        for c in self.checks:
            writer.writerow([c.name, "pass" if c.passed else "FAIL",
                             "" if c.residual is None else repr(c.residual),
                             c.detail])
        return buf.getvalue()

    def render(self) -> str:
        lines = [f"# {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for label, digest in self.inputs:
            lines.append(f"input {label}: {digest}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            res = "" if c.residual is None else f"  residual {c.residual:.3e}"
            det = f"  ({c.detail})" if c.detail else ""
            lines.append(f"{status}  {c.name}{res}{det}")
        n_fail = sum(1 for c in self.checks if not c.passed)
        lines.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks "
                     f"passed in {self.wall_time:.2f}s")
        return "\n".join(lines) + "\n"


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False
