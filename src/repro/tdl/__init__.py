"""TDL: the dynamic classing language (design principle P3).

A small interpreted CLOS subset.  ``defclass`` registers real bus types in
a :class:`~repro.objects.registry.TypeRegistry`; ``make-instance`` builds
:class:`~repro.objects.data_object.DataObject` values; generic functions
dispatch on the bus type hierarchy.
"""

from .errors import (TdlArityError, TdlDispatchError, TdlError, TdlNameError,
                     TdlSyntaxError)
from .reader import Keyword, Symbol, read_all, to_source
from .evaluator import (Environment, GenericFunction, Interpreter, Method,
                        TdlFunction)

__all__ = [
    "Environment", "GenericFunction", "Interpreter", "Keyword", "Method",
    "Symbol", "TdlArityError", "TdlDispatchError", "TdlError", "TdlFunction",
    "TdlNameError", "TdlSyntaxError", "read_all", "to_source",
]
