"""Integrable flows, brackets and reduction probes on doubles of SU(n)."""

from .decomp import (
    alcove_diagonalize,
    borel_of_posdef,
    chamber_diagonalize,
    dress,
    iwasawa_decompose,
    posdef_of_borel,
)
from .errors import AssumptionViolation
from .flows import (
    flow,
    torus_action,
)
from .liecore import (
    build_root_datum,
    pair,
    special_elements,
)
from .moduli import (
    IntervalFamily,
    hamiltonian_family,
    sphere_family,
)
from .spaces import (
    double_space,
    embed_shift,
    moduli_point,
    moduli_space,
    sphere_space,
)

__version__ = "0.1.0"
