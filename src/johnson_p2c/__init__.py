"""Paired 2-disjoint path covers of Johnson graphs and stacked Johnson graphs."""

from .covers import EndpointQuad, P2CSolution
from .graphs import (
    GenericGraph,
    JohnsonGraph,
    LevelSpec,
    QJGraph,
    fig1_counterexample,
    to_dot,
)
from .hamilton import (
    Path,
    hamilton_bruteforce,
    hamilton_complete,
    hamilton_johnson,
    hamilton_qj,
)
from .p2c_qj import clear_caches, p2c_complete, p2c_johnson, p2c_qj
from .subsets import (
    ElementSet,
    Relabeling,
    apply_relabeling,
    complement,
    k_subsets,
)
from .verify import (
    CheckReport,
    SweepSummary,
    check_hamilton,
    check_p2c,
    p2c_bruteforce,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ElementSet",
    "EndpointQuad",
    "GenericGraph",
    "JohnsonGraph",
    "LevelSpec",
    "P2CSolution",
    "Path",
    "QJGraph",
    "Relabeling",
    "SweepSummary",
    "apply_relabeling",
    "check_hamilton",
    "check_p2c",
    "clear_caches",
    "complement",
    "fig1_counterexample",
    "hamilton_bruteforce",
    "hamilton_complete",
    "hamilton_johnson",
    "hamilton_qj",
    "k_subsets",
    "p2c_bruteforce",
    "p2c_complete",
    "p2c_johnson",
    "p2c_qj",
    "sweep",
    "to_dot",
]
