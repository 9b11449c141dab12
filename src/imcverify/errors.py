"""Exception types, and the base of the immutable types, shared across the
package."""


class Frozen:
    """Base of an immutable type: ``__init__`` sets the attributes through
    ``vars(self)``, and setting or deleting one afterwards raises
    AttributeError. Instances of one type compare and hash by their public
    attributes (the names without a leading underscore), in the order
    ``__init__`` set them."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(v for k, v in vars(self).items() if not k.startswith("_"))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())


class ParseError(ValueError):
    """Syntax error in a dynamics expression, with source position."""

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class StructureError(ValueError):
    """A declared noise-structure claim is violated syntactically."""


class EvaluationError(ArithmeticError):
    """Numeric evaluation failed (division by zero, sqrt of a negative, ...)."""


class InputError(ValueError):
    """Invalid configuration or input file content."""


class SpecificationError(ValueError):
    """Ill-formed verification specification (e.g. overlapping label sets)."""


class InvalidModelError(ValueError):
    """A transition row admits no valid adversary."""


class SoundnessError(RuntimeError):
    """Internal soundness violation; indicates a bug, never rescaled away."""
