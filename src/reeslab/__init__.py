"""reeslab: Sylvester-form generators of Rees ideals of monomial almost
complete intersections, with brute-force toric oracles for every claim."""

from .core import (
    AciSpec,
    Binomial,
    InputError,
    Monomial,
    MonomialIdeal,
)
from .toric import (
    MoveSet,
    binary_spec,
    binomial_in_binomial_ideal,
    binomials_in_binomial_ideal,
    bruteforce_min_gens,
    generates_up_to,
    monomial_in_mixed_ideal,
    ternary_spec,
)
from .binary import (
    EuclidData,
    SigmaSet,
    euclid_sequence,
    make_generator,
    pk_qk,
    reparametrize,
    sigma_set,
    sylvester_det,
    transport,
)
from .reduction import (
    is_monomial_reduction,
    red_search_general,
    red_uniform,
    verify_q_reduction,
)
from .lengths import hm_profile, st_formula, st_oracle
from .ternary import (
    TernaryGenSet,
    classify_type,
    enumerate_kernel_binomials,
    enumeration_check,
    ternary_generation_check,
    ternary_gens,
    verify_colon_claims,
)

__version__ = "0.1.0"
