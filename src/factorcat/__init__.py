"""Finite computations in the factorization category of a monoid.

Objects are tuples of elements of a commutative, cancellative, pre-ordered
monoid; morphisms are order-constrained index functions between tuple
positions.  The package enumerates and composes morphisms, classifies them
(epic, monic, iso, weak equivalence, weakly irreducible, weakly prime),
produces canonical decompositions and atomic chains, carries the
concatenation tensor with its symmetric braiding, and ships brute-force
verification suites for all of the above laws over bounded universes.
"""

from .errors import CapabilityError, FactorcatError, GuardError, InvalidMorphismError
from .monoids import (
    INTERVAL,
    NAT,
    PRIMALITY_BOUND,
    ZX,
    FreeCommutative,
    Monoid,
    free_monoid,
    monoid_by_name,
)
from .category import (
    FactorTuple,
    IndexFunction,
    Morphism,
    MonoidHom,
    compose,
    embed,
    empty_tuple,
    hom_index_tuples,
    hom_set,
    identity_morphism,
    inverse,
    is_epic,
    is_initial,
    is_isomorphism,
    is_monic,
    map_morphism,
    map_tuple,
    refute_terminal,
    underlying_function,
    validate_morphism,
)
from .monoidal import braiding, tensor_morphisms, tensor_objects
from .weq import (
    PROPER,
    WEAK_EQUIVALENCE,
    EIPDecomposition,
    QuotientWitness,
    classify_by_delta,
    decompose_eip,
    is_weak_equivalence,
    ore_square,
    quotient_witnesses,
    right_cancel_witness,
    total_witness,
)
from .divisibility import (
    AtomicChain,
    IrreducibleFactorizations,
    WeakDivDiagram,
    WedgeDiagram,
    atomic_chain,
    chain_stabilizes,
    divisor_class_representatives,
    enumerate_irreducible_factorizations,
    is_weakly_irreducible,
    is_weakly_irreducible_tuple,
    is_weakly_prime,
    is_weakly_prime_tuple,
    ufd_wedge,
    weak_div_diagram,
    weak_divisor_classes,
    weakly_associate,
    weakly_divides,
    zeta_elt,
    zeta_mor,
    zeta_obj,
)
from .encoding import decode_morphism, decode_tuple, encode_morphism, encode_tuple
from .oracle import (
    SUITES,
    SuiteReport,
    UniverseSpec,
    all_passed,
    recheck,
    run_suite,
    universe_morphisms,
    universe_objects,
)

__version__ = "0.1.0"
