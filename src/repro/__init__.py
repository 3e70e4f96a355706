"""repro — an executable reproduction of Hyper Hoare Logic (PLDI 2024).

See the repository's README.md for a quickstart (the batch
:class:`~repro.api.Session` API, the ``python -m repro`` command line,
and the tier-1 test command).  Module docstrings carry the paper
cross-references (figure/definition numbers) for each subsystem.
"""

__version__ = "1.2.0"

from . import lang, semantics, assertions, checker  # noqa: F401
from . import logic, solver, symbolic, embeddings, hyperprops  # noqa: F401
from . import api, gen, conformance, codec  # noqa: F401
from .lang import parse_command, parse_expr, parse_bexpr, pretty  # noqa: F401
from .checker import (  # noqa: F401
    CheckerEngine,
    ImageCache,
    Universe,
    Witness,
    check_triple,
    small_universe,
    valid_triple,
)
from .codec import SCHEMA_VERSION, WireError, from_wire, to_wire  # noqa: F401
from .api import (  # noqa: F401
    Backend,
    Budget,
    ExhaustiveBackend,
    LoopBackend,
    Outcome,
    Proved,
    Refuted,
    Report,
    SampledBackend,
    Session,
    SymbolicBackend,
    SyntacticWPBackend,
    TaskResult,
    Undecided,
    VerificationTask,
    default_backends,
)
