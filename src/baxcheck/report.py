"""Structured pass/fail reports shared by the verification layers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerifyReport:
    """Outcome of one verification run.

    residuals holds one (label, size) pair per checked identity: size 0 means
    the residual was exactly zero, otherwise it is the largest nonzero term
    count seen in a symbolic residual, or the number of nonzero entries of an
    int residual (ybe_random, transfer_commute).  notes carries flags such as
    vacuous passes and pole resamples.  mode records how the check ran
    (symbolic, or randomized with seed/trials).
    """

    name: str
    status: str = "pass"  # pass | fail | error
    residuals: list[tuple[str, int]] = field(default_factory=list)
    mode: dict = field(default_factory=lambda: {"kind": "symbolic"})
    notes: list[str] = field(default_factory=list)

    def add_residual(self, label: str, size: int) -> None:
        self.residuals.append((label, size))
        if size and self.status == "pass":
            self.status = "fail"

    def error(self, note: str) -> "VerifyReport":
        """Mark the run as an error (a failed precondition or sampling) and return it."""
        self.status = "error"
        self.notes.append(note)
        return self

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "residuals": [[label, size] for label, size in self.residuals],
            "mode": self.mode,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        parts = [f"{self.name}: {self.status}"]
        for label, size in self.residuals:
            parts.append(f"  {label}: {'zero' if size == 0 else f'{size} terms'}")
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)
