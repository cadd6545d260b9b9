"""Maximal steered coherence and steering-ellipsoid geometry for small
bipartite quantum states.

When Alice measures her half of a shared state and communicates the
outcome, Bob's conditional state can acquire coherence in the eigenbasis
of his own marginal, where his unconditioned state has none. This package
computes the largest coherence obtainable that way, the two-qubit steering
ellipsoid behind its geometry, and the behavior of both under local
channels.
"""

from .channels import (
    KrausChannel,
    amplitude_damping,
    apply_on_a,
    apply_on_b,
    apply_on_b_pauli,
    bloch_affine,
    bloch_stack,
    damping_bloch,
    dephasing,
    kraus_channel,
    semi_classical,
    unital_pauli,
)
from .coherence import coherence_bloch, coherence_l1
from .errors import QsteerError, ValidationError
from .msc import (
    MscResult,
    msc_general,
    msc_oracle,
    msc_sweep,
    msc_two_qubit,
    sphere_sequence,
)
from .qcore import (
    Basis,
    DensityMatrix,
    PauliForm,
    bloch_vector,
    eigen_hermitian,
    fibonacci_sphere,
    partial_trace,
    pauli_compose,
    pauli_decompose,
    qubit_state,
    validate_density,
)
from .statefile import load_state, save_state
from .states import (
    StateFamilyResult,
    chord_state,
    classical_state,
    damped_classical_msc,
    dlc_state,
    maximally_obese,
    pure_schmidt,
    rho_c,
    rho_p,
    werner,
    x_state,
)
from .steering import (
    Ellipsoid,
    canonical_transform,
    qse,
    steer,
    steered_bloch,
    steered_surface,
    validate_povm_element,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "DensityMatrix",
    "Ellipsoid",
    "KrausChannel",
    "MscResult",
    "PauliForm",
    "QsteerError",
    "StateFamilyResult",
    "ValidationError",
    "amplitude_damping",
    "apply_on_a",
    "apply_on_b",
    "apply_on_b_pauli",
    "bloch_affine",
    "bloch_stack",
    "bloch_vector",
    "canonical_transform",
    "chord_state",
    "classical_state",
    "coherence_bloch",
    "coherence_l1",
    "damped_classical_msc",
    "damping_bloch",
    "dephasing",
    "dlc_state",
    "eigen_hermitian",
    "fibonacci_sphere",
    "kraus_channel",
    "load_state",
    "maximally_obese",
    "msc_general",
    "msc_oracle",
    "msc_sweep",
    "msc_two_qubit",
    "partial_trace",
    "pauli_compose",
    "pauli_decompose",
    "pure_schmidt",
    "qse",
    "qubit_state",
    "rho_c",
    "rho_p",
    "save_state",
    "semi_classical",
    "sphere_sequence",
    "steer",
    "steered_bloch",
    "steered_surface",
    "unital_pauli",
    "validate_density",
    "validate_povm_element",
    "werner",
    "x_state",
]
