"""Exact trace-polynomial certificates and exhaustive image checks for
two-generator word maps on PSL2 over finite fields."""

from .arith import (
    CongruenceError,
    ConditionReport,
    DensityReport,
    RamifiedPrimeError,
    check_nonsurjectivity_conditions,
    inertia_degree,
    is_prime,
    length_residues,
    necessary_congruence,
    scan_primes,
)
from .gf import (
    BudgetExceededError,
    FieldSpec,
    ImageReport,
    enumerate_image_pairs,
    field_tables,
    make_field,
    sl2_group,
    trace_scan,
)
from .tracepoly import (
    TracePolynomial,
    alternating_dickson_sum,
    cyclotomic_certificate,
    dickson,
    factorization_certificate,
    factorization_sum_form,
    render_poly,
    swap_certificate,
    tau,
)
from .words import (
    Shape,
    Word,
    WordSyntaxError,
    commutator,
    cyclic_reduce,
    family_word,
    is_proper_power,
    parse_family,
    parse_word,
    trace_equivalent,
    y1,
    yk,
)

__version__ = "0.1.0"
