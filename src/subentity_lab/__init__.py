"""Executable finite models for operational quantum structures.

The package verifies finite state property systems against the full
quantum axiom battery, reproduces the subentity problem (no state mapping
for entangled compounds under pure-state semantics) and its resolution by
partial-trace maps over density-operator states, and simulates the
laboratory semantics that constructs state property systems from device
tables.
"""

# assigned before the submodule imports: modelio reads it for its reports
__version__ = "0.1.0"

from .axioms import AxiomVerdict, run_battery
from .hilbert import (
    EPS,
    EPS_MATCH,
    EPS_RECON,
    DensityOperator,
    Projection,
    SchmidtForm,
    StateVector,
    born,
    decompositions_sample,
    eigendecomposition,
    is_entangled,
    partial_trace,
    range_preorder,
    reduced_evolution,
    schmidt,
    tensor,
)
from .lattice import (
    FiniteLattice,
    automorphisms,
    build_lattice,
    find_isomorphism,
    join,
    meet,
)
from .lecce import (
    LabObject,
    LabWorld,
    build_lecce_sps,
    certainly_domains,
    check_partition_property,
    partition_effects,
    partition_states,
    validate_world,
)
from .modelio import ModelDocument, Report, parse_model, serialize_model
from .sps import (
    StatePropertySystem,
    atomic_sps,
    build_sps,
    property_preorder,
    quantum_sps,
    state_preorder,
)
from .subentity import (
    CompletedQuantumModel,
    SubentityWitness,
    build_completed_model,
    canonical_witness_check,
    search_witness,
    verify_witness,
)
