"""qbailey: an exact q-series engine for Bailey-pair identity verification.

The package computes with truncated formal Laurent series over the integers
(module ``laurent``), builds q-Pochhammer products and the quintuple product
identity (``qproducts``), manipulates Bailey pairs through the six moves and
the base shift (``bailey``), expands lattice schedules into closed multisum
sum-sides and limiting alpha-sides (``lattice``), and ties everything to the
principal characters of the standard modules (``characters``).  The ``cli``
module exposes the verification harness as a command-line tool.
"""

from .laurent import LaurentSeries, from_text
from .qproducts import PochFactor, poch_finite, poch_inf, qtpi_product, qtpi_sum
from .bailey import (
    BaileyPair,
    Move,
    apply_move,
    base_shift,
    registry_pair,
    verify_pair,
)
from .lattice import (
    Schedule,
    alpha_side,
    build_multisum_spec,
    expand_schedule,
    sum_side,
    verify_limit_identity,
)
from .characters import (
    ModuleLabel,
    char_product,
    char_qtpi,
    schedule_module,
    verify_character_identity,
)

__all__ = [
    "LaurentSeries", "from_text",
    "PochFactor", "poch_finite", "poch_inf", "qtpi_product", "qtpi_sum",
    "BaileyPair", "Move", "apply_move", "base_shift", "registry_pair",
    "verify_pair",
    "Schedule", "alpha_side", "build_multisum_spec", "expand_schedule",
    "sum_side", "verify_limit_identity",
    "ModuleLabel", "char_product", "char_qtpi", "schedule_module",
    "verify_character_identity",
]

__version__ = "0.1.0"
