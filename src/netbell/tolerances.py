"""Named tolerances of the input checks, expectations, eigensolves and
certificate norms. A threshold that belongs to one computation stays next to
it, such as ``optimize._WEIGHT_CLAMP`` or the certificate pass thresholds
in ``cli.py``. No call takes a tolerance argument.
"""

# Claimed-Hermitian matrices: max entry of |M - M^dag|.
HERMITIAN_CLAIM = 1e-12

# Smallest admissible eigenvalue for a matrix declared PSD.
PSD_FLOOR = -1e-9

# |A^2 - I| for dichotomic (+1/-1 outcome) observables.
INVOLUTION = 1e-10

# Unit norm of pure states and Bloch vectors.
UNIT_NORM = 1e-12

# Trace-one check for density matrices.
TRACE_ONE = 1e-12

# Sum-to-one check for the weights of one hidden-variable source.
WEIGHT_SUM = 1e-12

# Largest imaginary residue silently discarded from a real expectation.
IMAG_DISCARD = 1e-10

# Ritz residual ||A y - theta y|| / max(1, |theta|) at which a Lanczos solve,
# the seesaw's top eigenvector or the certificate's minimum eigenvalue, stops.
LANCZOS_RESIDUAL = 1e-13

# Signed observable sums with state-norm below this are degenerate.
ZERO_NORM = 1e-12
