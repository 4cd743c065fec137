"""Structured pass/fail reports shared by the verification layers."""

from __future__ import annotations


class VerifyReport:
    """Outcome of one verification run.

    residuals holds one (label, size) pair per checked identity.  Size 0 means
    the residual was exactly zero; a nonzero size measures it, by the check's
    own unit: the largest term count seen in a symbolic residual, the word
    count of the prop1 residual, the number of nonzero entries of an int
    residual (ybe_random, transfer_commute), or 1 for a failed yes/no check
    (baxterise, scalar-reps).  summary prints it as "nonzero (size N)".
    notes carries flags such as vacuous passes and pole resamples.  mode
    records how the check ran (symbolic, or randomized with seed/trials).
    """

    def __init__(
        self,
        name: str,
        status: str = "pass",  # pass | fail | error
        residuals: list[tuple[str, int]] | None = None,
        mode: dict | None = None,
        notes: list[str] | None = None,
    ):
        self.name = name
        self.status = status
        self.residuals = [] if residuals is None else residuals
        self.mode = {"kind": "symbolic"} if mode is None else mode
        self.notes = [] if notes is None else notes

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
            parts.append(f"  {label}: {'zero' if size == 0 else f'nonzero (size {size})'}")
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)
