"""Shared error types."""


class ResourceBoundError(RuntimeError):
    """An exhaustive computation would exceed its configured size bound."""


class InvariantError(RuntimeError):
    """An internal invariant failed; the message names the failing trial.

    (p, n, seed, trial) is enough to reproduce the failure with
    `sample_pair(p, n, RngSpec(seed), trial)`.
    """

    def __init__(self, detail: str, *, p: int, n: int, seed: int, trial: int):
        super().__init__(f"{detail} (p={p}, n={n}, seed={seed}, trial={trial})")
        self.p = p
        self.n = n
        self.seed = seed
        self.trial = trial
