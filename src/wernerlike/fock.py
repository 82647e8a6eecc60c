"""Truncated Fock-space and spin-1/2 linear algebra primitives.

Conventions used throughout the package:

* Oscillator operators are (dim, dim) complex arrays over the number basis
  |0>, ..., |dim-1>.
* Spin-1/2 uses basis index 0 = down, 1 = up, so ``SIGMA3 = diag(-1, +1)``.
* Composite operators are ``np.kron(spin_part, oscillator_part)``.

Displacement matrix elements <m|D(beta)|n> come from the associated-Laguerre
closed form sqrt(k!/(k+d)!) |beta|^d e^(-|beta|^2/2) L_k^(d)(|beta|^2) with
k = min(m, n), d = |m - n|, times (-1)^d for m < n (Cahill and Glauber, PR
177, 1857, 1969).  Every displacement table comes from one of three entry
points:

* ``displacement_amplitudes_batch``, the one kernel, builds the real tables
  for a batch of |beta|.  L_k^(d) depends only on min(m, n) and |m - n|, so
  it runs the degree recurrence along rows only, on a (short, wide, batch)
  array, copies the lower triangle from the upper one, and multiplies in the
  log-factorial prefactor, one exp in (batch, rows, cols).
* ``displacement_matrix`` gives the complex block of one beta: the kernel's
  table times the phase factors e^{i(m-n) arg beta}.
* ``displaced_support`` finds the rows K that displaced number states m <=
  n_top need and returns the (n_top + 1, K) table it accepted, which the
  forward marginals, the inversion of a design and the trap readout, all
  phases at once, fold.

Against the closed form in mpmath, the real table's largest absolute error
is 1e-15 at |beta|^2 = 91 for 32 x 32 (the default Wigner grid's corner,
which evaluates D(2 gamma)), 6e-15 at 16 for 80 x 80 and 2e-14 at 1.44 for
163 x 163; beyond that it is unchecked.

The log-factorials ln k! behind every prefactor here and in the binomial
detection response come from one table of ``math.lgamma(k + 1)``, which
agrees with scipy's ``gammaln`` to 5.1e-16 relative for k < 6000; the
package imports only numpy.
"""

import math

import numpy as np

__all__ = [
    "SPIN_DOWN",
    "SPIN_UP",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "TruncationError",
    "coherent_state",
    "displacement_amplitudes_batch",
    "displacement_matrix",
    "displaced_support",
    "spin_rotation",
    "hermitian_eigenvalues",
]

SPIN_DOWN = 0
SPIN_UP = 1

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
SIGMA3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

HERMITIAN_TOL = 1e-8  # largest deviation from Hermitian ``hermitian_eigenvalues`` accepts
SUPPORT_TOL = 1e-13  # norm a displaced number state may lose past ``displaced_support``'s rows
NORM_LOSS_TOL = 1e-6  # norm a state may lose to its cutoff, built or pulsed, before it is refused


class TruncationError(ValueError):
    """A requested cutoff is too small to hold the state being built."""


def _log_factorials(n):
    """ln k! for k < n as a float array."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def coherent_state(alpha, dim):
    """Fock amplitudes c_n = exp(-|a|^2/2) a^n / sqrt(n!) for n < dim.

    Raises TruncationError when the truncated vector loses more than
    NORM_LOSS_TOL of its norm.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    alpha = complex(alpha)
    amp = np.zeros(dim, dtype=complex)
    if alpha == 0:
        amp[0] = 1.0
        return amp
    n = np.arange(dim)
    mag = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * _log_factorials(dim))
    amp = mag * (alpha / abs(alpha)) ** n
    norm = np.linalg.norm(amp)
    if norm < 1.0 - NORM_LOSS_TOL:
        raise TruncationError(
            f"cutoff {dim} too small for coherent amplitude |alpha|={abs(alpha):.4g}"
            f" (truncated norm {norm:.8f})"
        )
    return amp


def _laguerre_rows(y, short, wide):
    """L_k^(d)(y) for k = min(i, j), d = |i - j|, as a (short, wide, batch)
    array, the batch axis innermost.

    Row k+1 comes from the two rows before it at equal d, for j >= k+1 only;
    L depends on min(i, j) and |i - j| alone, so the lower triangle is then
    copied from the upper one.  The recurrence coefficients c = 2k+1+d and
    k+d are integers, exact in float, so each step reads c - y and k + d as
    slices of columns built once.
    """
    whole = np.arange(short + wide, dtype=float)[:, None]
    c_minus_y = whole - y
    lag = np.ones((short, wide, y.size))
    if short > 1:
        lag[1, 1:] = c_minus_y[1:wide]
    for k in range(1, short - 1):
        row = lag[k + 1, k + 1 :]
        np.multiply(c_minus_y[2 * k + 1 : k + wide], lag[k, k : wide - 1], out=row)
        row -= whole[k : wide - 1] * lag[k - 1, k - 1 : wide - 2]
        row /= k + 1.0
    for k in range(1, short):
        lag[k, :k] = lag[:k, k]
    return lag


def displacement_amplitudes_batch(xs, n_rows, n_cols):
    """<m|D(x)|n> for a batch of real displacements x >= 0.

    Returns a real array of shape (len(xs), n_rows, n_cols); rows index the
    Fock component m, columns the displaced number state label n.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ValueError("real displacement amplitudes need x >= 0")
    y = xs * xs
    # prefactor sqrt(k!/(k+d)!) x^d e^(-y/2), sign (-1)^d above the diagonal
    m = np.arange(n_rows)[:, None]
    n = np.arange(n_cols)[None, :]
    d = np.abs(m - n).astype(float)
    lg = _log_factorials(max(n_rows, n_cols))
    # the Laguerre rows are built before the output: in the other order a
    # standalone `wigner --source true` or `both` peaks 0.3-0.5 MB higher
    lag = _laguerre_rows(y, min(n_rows, n_cols), max(n_rows, n_cols))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = d * np.log(xs)[:, None, None]
        np.add(0.5 * (lg[np.minimum(m, n)] - lg[np.maximum(m, n)]), out, out=out)
        out -= 0.5 * y[:, None, None]
        np.exp(out, out=out)
    out *= np.where((n > m) & (d % 2 == 1), -1.0, 1.0)
    out *= lag.transpose(2, 0, 1) if n_rows <= n_cols else lag.transpose(2, 1, 0)
    out[xs == 0.0] = np.eye(n_rows, n_cols)
    return out


def displacement_matrix(beta, n_rows, n_cols):
    """Rectangular block of <m|D(beta)|n> for one complex beta.

    Phase convention: <m|D(x e^{i phi})|n> = <m|D(x)|n> e^{i(m-n) phi}.  A
    square block is the truncated operator, unitary up to leakage in its last
    rows and columns.  A beta that is not a scalar raises a ValueError.
    """
    if np.ndim(beta):
        raise ValueError(f"beta must be one complex number, got shape {np.shape(beta)}")
    beta = complex(beta)
    x = abs(beta)
    f = displacement_amplitudes_batch([x], n_rows, n_cols)[0].astype(complex)
    if beta != x:  # anything but a nonnegative real displacement
        f *= (beta / x) ** (np.arange(n_rows)[:, None] - np.arange(n_cols))
    return f


def displaced_support(n_top, beta_abs):
    """The real (n_top + 1, K) table <m|D(|beta|)|k>, with K the row count
    so that D(beta)|m> for m <= n_top keeps all but SUPPORT_TOL of its norm
    on Fock components below K.

    Probes grow K by 16 rows.  Once a probe no longer reduces the largest
    deficit, the deficit is the kernel's rounding floor and the rows before
    that probe are accepted.
    """
    x = float(abs(beta_abs))
    k = int(np.ceil((np.sqrt(n_top + 1.0) + x) ** 2 + 8.0 * (x + 1.0) + 8.0))
    limit = n_top + 4096
    last = None
    while k < limit:
        f = displacement_amplitudes_batch([x], n_top + 1, k)[0]
        deficit = float(np.max(1.0 - np.sum(f * f, axis=1)))
        if deficit < SUPPORT_TOL:
            break
        if last is not None and deficit >= last[0]:
            _, k, f = last
            break
        last = (deficit, k, f)
        k += 16
    else:
        raise TruncationError("displaced support search did not converge")
    return f


def spin_rotation(theta, phi):
    """U = cos(theta) I - i sin(theta) (sigma1 cos(phi) + sigma2 sin(phi))."""
    axis = SIGMA1 * np.cos(phi) + SIGMA2 * np.sin(phi)
    return np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * axis


def hermitian_eigenvalues(op):
    """Real eigenvalues in descending order.

    The input must be Hermitian within HERMITIAN_TOL (max elementwise
    deviation); it is symmetrized before the decomposition.
    """
    a = np.asarray(op, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    deviation = float(np.max(np.abs(a - a.conj().T)))
    if deviation > HERMITIAN_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {deviation:.3e} (tol {HERMITIAN_TOL})")
    vals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return vals[::-1]
