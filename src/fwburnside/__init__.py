"""Exact Burnside-ring computations for small finite groups.

The package builds concrete groups from a small spec grammar, enumerates
their full subgroup lattices, and does all ring arithmetic over the exact
rationals. Its centerpiece is the mark-matching lift from the Burnside
ring of a cyclic group of the same order, together with mechanical checks
of when that lift commutes with induction, tensor induction, restriction,
inflation, deflation, and fixed points.
"""

from .burnside import (
    OPERATIONS,
    BurnsideElement,
    basis_element,
    deflate,
    element_from_json,
    element_from_marks,
    element_to_json,
    fixed_points,
    format_element,
    format_rational,
    idempotent,
    identity_element,
    induce,
    inflate,
    is_integral,
    multiply,
    operation,
    parse_rational,
    restrict,
    table_of_marks,
    tensor_induce,
    zero,
)
from .errors import (
    AlgebraError,
    CapExceededError,
    InvalidParameterError,
    PreconditionError,
    SpecParseError,
)
from .fw import (
    CommutativityReport,
    FwContext,
    check_commutes,
    check_m_equality,
    fw_apply,
    fw_context,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    GroupHom,
    Subgroup,
    construct_group,
    cyclic_group,
    direct_product,
    parse_group_spec,
    quotient_group,
    subgroup_embedding,
)
from .lattice import (
    SubgroupLattice,
    check_gcd_property,
    m_constant,
    m_cyclic,
    subgroup_lattice,
    totient,
)
from .survey import SURVEY_COLUMNS, SurveyConfig, full_catalog, survey_rows, write_survey_csv

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "BurnsideElement",
    "CapExceededError",
    "CommutativityReport",
    "DEFAULT_ORDER_CAP",
    "FwContext",
    "Group",
    "GroupHom",
    "InvalidParameterError",
    "OPERATIONS",
    "PreconditionError",
    "SURVEY_COLUMNS",
    "SpecParseError",
    "Subgroup",
    "SubgroupLattice",
    "SurveyConfig",
    "basis_element",
    "check_commutes",
    "check_gcd_property",
    "check_m_equality",
    "construct_group",
    "cyclic_group",
    "deflate",
    "direct_product",
    "element_from_json",
    "element_from_marks",
    "element_to_json",
    "fixed_points",
    "format_element",
    "format_rational",
    "full_catalog",
    "fw_apply",
    "fw_context",
    "idempotent",
    "identity_element",
    "induce",
    "inflate",
    "is_integral",
    "m_constant",
    "m_cyclic",
    "multiply",
    "operation",
    "parse_group_spec",
    "parse_rational",
    "quotient_group",
    "restrict",
    "subgroup_embedding",
    "subgroup_lattice",
    "survey_rows",
    "table_of_marks",
    "tensor_induce",
    "totient",
    "write_survey_csv",
    "zero",
]
