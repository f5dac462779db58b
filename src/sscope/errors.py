"""Exception taxonomy shared across the package.

UsageError, ConfigError and StoreError map to CLI exit code 1, everything
else to 2.
"""


class SscopeError(Exception):
    pass


class UsageError(SscopeError):
    """Caller violated a precondition (bad argument, empty input, ...)."""


class ConfigError(UsageError):
    """Malformed config file, unknown preset, or inconsistent settings."""


class DataError(SscopeError):
    """Dataset contents make the requested construction impossible."""


class NumericError(SscopeError):
    """Non-finite value produced during forward/backward."""

    def __init__(self, message, block_index=None):
        super().__init__(message)
        self.block_index = block_index


class TrainingDiverged(SscopeError):
    """Loss or gradient became non-finite during training, at training step
    `step` in block `block` (None where unknown)."""

    def __init__(self, message, step=None, block=None):
        super().__init__(message)
        self.step = step
        self.block = block


class StoreError(SscopeError):
    """Results store is missing, corrupt, or has a mismatched schema."""
