"""Exact hyperstructures on spectra of finite-dimensional Hopf algebras over F_p."""

from .algkernel import (
    IdealSubspace,
    PrimePoint,
    SCAlgebra,
    is_algebra_hom,
    maximal_spectrum,
    monogenic_algebra,
    nilradical,
    quotient_algebra,
    tensor_algebra,
)
from .gfarith import FpPoly, PrimeField, factor, is_irreducible, minimal_polynomial, parse_poly
from .galoisline import LinePoint, crosscheck, definitional_hyperop, galois_hyperop
from .hopfkernel import (
    HopfData,
    additive_etale_hopf,
    hopf_quotient,
    is_hopf_ideal,
    iterated_coproduct,
    mu_hopf,
    parse_builtin,
    verify_hopf,
)
from .hyperkernel import (
    HyperRingTable,
    HyperTable,
    LawReport,
    check_hypergroup,
    check_hyperring,
    check_hyperring_hom,
    extend_to_subsets,
    krasner_hyperfield,
    quotient_hyperring,
    sign_hyperfield,
)
from .specops import (
    ForcedValue,
    HyperopResult,
    antipode_point,
    classical_comparison,
    descend_and_compare,
    forced_value,
    hyperop,
    identity_point,
    kpoints,
    nonempty_check,
    orbit_cube,
    presentation_oracle,
    reversibility_check,
    weak_assoc_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
