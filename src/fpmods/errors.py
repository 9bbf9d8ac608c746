"""Shared error types."""


class ResourceBoundError(RuntimeError):
    """An exhaustive computation would exceed its configured size bound."""


class InvariantError(RuntimeError):
    """An internal invariant failed; the message names where.

    p and n are always named. Sampling failures also name seed and trial:
    (p, n, seed, trial) is enough to reproduce them with
    `sample_pair(p, n, RngSpec(seed), trial)`. Deterministic computations
    leave seed and trial as None and put any other input needed to rerun
    them in the detail, as the isotropic search does with its shape's
    torsion levels.
    """

    def __init__(
        self, detail: str, *, p: int, n: int,
        seed: int | None = None, trial: int | None = None,
    ):
        where = {"p": p, "n": n, "seed": seed, "trial": trial}
        named = ", ".join(f"{k}={v}" for k, v in where.items() if v is not None)
        super().__init__(f"{detail} ({named})")
        self.p = p
        self.n = n
        self.seed = seed
        self.trial = trial
