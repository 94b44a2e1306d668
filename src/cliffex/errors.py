"""Exception types shared across the package.

Every error for a bad value is a ``ValueError``; the four subclasses of
``CliffexError`` name the fault.  ``SchemaError``: text or data is
malformed.  ``LengthMismatch``: operands differ in length (qubit count,
or records against values).  ``InvalidSize``: a size or count is out of
range.  Where none of these fits (a gate, angle or mask that breaks a
constructor's rule, an empty term list), a plain ``ValueError`` is
raised.  ``NotReducible`` is the one that is not a ``ValueError``: the
input is valid, but its Clifford cannot be absorbed into bitstrings.
README's "Errors" table lists the public names that raise each.
"""


class CliffexError(Exception):
    """Base class for package-specific errors."""


class SchemaError(CliffexError, ValueError):
    """Text or data violates the expected format: a Pauli word, QASM,
    a counts histogram, or an input, report, counts or values file."""


class LengthMismatch(CliffexError, ValueError):
    """Operands differ in length: qubit counts, or records against values."""


class InvalidSize(CliffexError, ValueError):
    """A size parameter is out of range (e.g. zero qubits)."""


class NotReducible(CliffexError):
    """Circuit has no single-Hadamard-layer-plus-CNOT-network form."""
