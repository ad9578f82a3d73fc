"""Learning physically consistent Markovian generators for a two-spin
subsystem of an exactly simulated interacting spin chain."""

from .spin_algebra import (BasisSet, build_pauli_basis, basis_for_dimension,
                           rho_to_coherence, coherence_to_matrix,
                           ginibre_density_matrix)
from .lindblad_generator import (GeneratorParams, SpectralInfo,
                                 JumpDecomposition, kossakowski_from_factors,
                                 precompute_dissipator_tensors,
                                 assemble_generator,
                                 extract_hamiltonian,
                                 propagate, propagate_trajectory,
                                 stationary_state, jump_decomposition,
                                 save_model, load_model)
from .trainer import (TrainConfig, Dataset, AdamState, TrainResult,
                      build_dataset, loss, loss_and_gradient,
                      adam_step, train, save_loss_curves)
from .many_body_sim import (SpinChainModel, Trajectory, CapacityError,
                            model_hamiltonian, bath_sites,
                            build_bath_hamiltonian, bath_thermal_state,
                            random_initial_subsystem_state, evolve_and_reduce,
                            generate_trajectory, save_trajectory,
                            load_trajectory)
from .metrics import trace_norm, i_err, fvu, stationary_error

__version__ = "0.1.0"
