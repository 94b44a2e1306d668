"""Exception types shared across the package."""


class CliffexError(Exception):
    """Base class for package-specific errors."""


class InvalidLetter(CliffexError, ValueError):
    """Pauli text contains a character outside I/X/Y/Z or is empty."""


class LengthMismatch(CliffexError, ValueError):
    """Operands act on different numbers of qubits."""


class InvalidSize(CliffexError, ValueError):
    """A size parameter is out of range (e.g. zero qubits)."""


class MixedQubitCounts(CliffexError, ValueError):
    """A term list mixes Pauli strings of different lengths."""


class EmptyTree(CliffexError, ValueError):
    """CNOT-tree synthesis was invoked with no qubits."""


class NotReducible(CliffexError):
    """Circuit has no single-Hadamard-layer-plus-CNOT-network form."""


class BitstringLengthMismatch(CliffexError, ValueError):
    """A measured bitstring does not match the qubit count."""


class SchemaError(CliffexError, ValueError):
    """An input file violates the expected schema."""


class InfeasibleDegree(CliffexError, ValueError):
    """No simple regular graph exists for the requested parameters."""
