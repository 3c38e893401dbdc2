"""Heilbronn exponential sums as supercharacter values on Z/p^2 Z, with
exact Fermat-congruence counting and verification of the attendant
identities."""

from .modarith import (InvalidInput, PrimeContext, TruncatedLogTable,
                       build_context, is_odd_prime, log_level_sets,
                       odd_primes_upto, pow_mod, primitive_root_mod_p2,
                       primitive_roots_mod_p2, pth_power_table, truncated_log)
from .sctheory import (StructureTensor, SuperclassPartition, UnitAction,
                       build_T, build_U, structure_constants_enumerated,
                       structure_tensor_enumerated, superclasses,
                       supercharacter_value)
from .spectra import (Spectrum, heilbronn_partition, heilbronn_sum,
                      heilbronn_table, spectrum, subgroup_pth_powers,
                      verify_spectrum_identities)
from .fermat import (FermatResult, GoldenMismatch, StructureTensorP,
                     ciik_report, fermat_count_full_naive,
                     fermat_count_naive_reduced, fermat_F_spectral,
                     fermat_table, fourth_moment_check, golden_table,
                     quartic_power_check, structure_block_enumerated,
                     structure_constants_spectral_all, third_moment_check)
from .bench import (BenchReport, MethodDisagreement, bench_all_triples,
                    bench_single_F)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
