"""Central numerical tolerance table.

Every module reads its thresholds from here; no per-call tolerance knobs.
"""

# Claimed-Hermitian matrices: max entry of |M - M^dag|.
HERMITIAN_CLAIM = 1e-12

# Hermiticity check applied to eigendecomposition / best-response inputs.
HERMITIAN_INPUT = 1e-10

# Smallest admissible eigenvalue for a matrix declared PSD.
PSD_FLOOR = -1e-9

# |A^2 - I| for dichotomic (+1/-1 outcome) observables.
INVOLUTION = 1e-10

# Unit norm of pure states and Bloch vectors.
UNIT_NORM = 1e-12

# Trace-one check for density matrices.
TRACE_ONE = 1e-12

# Largest imaginary residue silently discarded from a real expectation.
IMAG_DISCARD = 1e-10

# Signed observable sums with state-norm below this are degenerate.
ZERO_NORM = 1e-12
