"""Exception types raised across the package.

Each derives from ValueError. The command line maps exactly these three to
exit 2 (bad input, with the message as the reason); any other exception
there is a fault of the program and exits 3 with its traceback.
"""


class DomainError(ValueError):
    """An argument the package refuses: outside a function's domain, a
    supported range, a valid region, or a usable basis or surface."""


class SingularSystemError(ValueError):
    """Linear system is singular or too ill-conditioned to solve reliably."""


class UsageError(ValueError):
    """Bad command-line arguments or configuration input."""
