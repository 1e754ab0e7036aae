"""The one exception type for input coneglow refuses.

Every refusal is a ``DomainError``: input off an operation's domain,
past the n <= 24 enumeration cap, or failing a construction's check.
Map arithmetic that overflows the float range stays the builtin
``OverflowError``: the input was accepted, and the floats ran out.
"""


class DomainError(ValueError):
    """Input coneglow refuses; the one class for every refusal.  The CLI
    prints it, like an ``OverflowError`` from map arithmetic, as one
    ``error:`` line with exit code 1."""
