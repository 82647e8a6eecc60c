"""Truncated Fock-space and spin-1/2 linear algebra primitives.

Conventions used throughout the package:

* Oscillator operators are (dim, dim) complex arrays over the number basis
  |0>, ..., |dim-1>.
* Spin-1/2 uses basis index 0 = down, 1 = up, so ``SIGMA3 = diag(-1, +1)``.
* Composite operators are ``np.kron(spin_part, oscillator_part)``.

Displacement matrix elements <m|D(beta)|n> come from the associated-Laguerre
closed form with log-factorial prefactors; Laguerre values are generated by
the three-term recurrence in the degree.  Against the closed form in mpmath,
the real table's largest absolute error is 1e-15 at |beta|^2 = 91 for 32 x 32
(the default Wigner grid's corner, which evaluates D(2 gamma)), 6e-15 at 16
for 80 x 80 and 2e-14 at 1.44 for 163 x 163; beyond that it is unchecked.
"""

import numpy as np
from scipy.special import gammaln

__all__ = [
    "SPIN_DOWN",
    "SPIN_UP",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "TruncationError",
    "coherent_state",
    "displacement_element",
    "displacement_amplitudes",
    "displacement_amplitudes_batch",
    "displacement_matrix",
    "displacement_operator",
    "displaced_support",
    "spin_rotation",
    "hermitian_eigenvalues",
]

SPIN_DOWN = 0
SPIN_UP = 1

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex)
SIGMA3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


class TruncationError(ValueError):
    """A requested cutoff is too small to hold the state being built."""


def coherent_state(alpha, dim):
    """Fock amplitudes c_n = exp(-|a|^2/2) a^n / sqrt(n!) for n < dim.

    Raises TruncationError when the truncated vector loses more than 1e-6
    of its norm.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    alpha = complex(alpha)
    amp = np.zeros(dim, dtype=complex)
    if alpha == 0:
        amp[0] = 1.0
        return amp
    n = np.arange(dim)
    mag = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0))
    amp = mag * (alpha / abs(alpha)) ** n
    norm = np.linalg.norm(amp)
    if norm < 1.0 - 1e-6:
        raise TruncationError(
            f"cutoff {dim} too small for coherent amplitude |alpha|={abs(alpha):.4g}"
            f" (truncated norm {norm:.8f})"
        )
    return amp


def _laguerre_diag(count, offset, y):
    """L_k^(offset)(y) for k = 0..count-1 via the degree recurrence.

    ``y`` may be a scalar or an array; the recurrence runs along the degree.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty((count,) + y.shape, dtype=float)
    out[0] = 1.0
    if count > 1:
        out[1] = 1.0 + offset - y
    for k in range(1, count - 1):
        out[k + 1] = ((2.0 * k + 1.0 + offset - y) * out[k] - (k + offset) * out[k - 1]) / (k + 1.0)
    return out


def displacement_amplitudes_batch(xs, n_rows, n_cols):
    """<m|D(x)|n> for a batch of real displacements x >= 0.

    Returns a real array of shape (len(xs), n_rows, n_cols); rows index the
    Fock component m, columns the displaced number state label n.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs < 0):
        raise ValueError("real displacement amplitudes need x >= 0")
    n_batch = xs.shape[0]
    out = np.zeros((n_batch, n_rows, n_cols))
    zero = xs == 0.0
    for p in np.where(zero)[0]:
        np.fill_diagonal(out[p], 1.0)
    idx = np.where(~zero)[0]
    if idx.size == 0:
        return out
    x = xs[idx]
    y = x * x
    logx = np.log(x)
    lg = gammaln(np.arange(max(n_rows, n_cols), dtype=float) + 1.0)
    block = np.zeros((idx.size, n_rows, n_cols))
    # lower triangle including the main diagonal: m = n + d
    for d in range(n_rows):
        count = min(n_cols, n_rows - d)
        if count <= 0:
            break
        lag = _laguerre_diag(count, d, y)  # (count, batch)
        n_idx = np.arange(count)
        pref = np.exp(
            0.5 * (lg[n_idx][:, None] - lg[n_idx + d][:, None])
            + d * logx[None, :]
            - 0.5 * y[None, :]
        )
        block[:, n_idx + d, n_idx] = (pref * lag).T
    # strict upper triangle: n = m + d, sign (-1)^d
    for d in range(1, n_cols):
        count = min(n_rows, n_cols - d)
        if count <= 0:
            break
        lag = _laguerre_diag(count, d, y)
        m_idx = np.arange(count)
        pref = np.exp(
            0.5 * (lg[m_idx][:, None] - lg[m_idx + d][:, None])
            + d * logx[None, :]
            - 0.5 * y[None, :]
        )
        block[:, m_idx, m_idx + d] = ((-1.0) ** d * pref * lag).T
    out[idx] = block
    return out


def displacement_amplitudes(x, n_rows, n_cols):
    """<m|D(x)|n> for a single real x >= 0; shape (n_rows, n_cols), real."""
    return displacement_amplitudes_batch([x], n_rows, n_cols)[0]


def displacement_matrix(beta, n_rows, n_cols):
    """Rectangular block of <m|D(beta)|n> for complex beta.

    Phase convention: <m|D(x e^{i phi})|n> = <m|D(x)|n> e^{i(m-n) phi}.
    """
    beta = complex(beta)
    x = abs(beta)
    f = displacement_amplitudes(x, n_rows, n_cols).astype(complex)
    if beta != x:  # anything but a nonnegative real displacement
        phase = beta / x
        f *= phase ** (np.arange(n_rows)[:, None] - np.arange(n_cols)[None, :])
    return f


def displacement_operator(beta, dim):
    """Square displacement operator on the truncated space (unitary up to
    truncation leakage in the last rows/columns)."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return displacement_matrix(beta, dim, dim)


def displacement_element(m, n, beta):
    """Single matrix element <m|D(beta)|n>.

    Uses sqrt(n!/m!) beta^(m-n) e^(-|beta|^2/2) L_n^(m-n)(|beta|^2) for
    m >= n and the conjugation symmetry for m < n, with log-factorial
    prefactors so large indices do not overflow.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be nonnegative")
    beta = complex(beta)
    if beta == 0:
        return 1.0 + 0.0j if m == n else 0.0 + 0.0j
    y = abs(beta) ** 2
    k, d = (n, m - n) if m >= n else (m, n - m)
    lag = _laguerre_diag(k + 1, d, y)[k]
    mag = np.exp(0.5 * (gammaln(k + 1.0) - gammaln(k + d + 1.0)) + d * np.log(abs(beta)) - 0.5 * y)
    unit = beta / abs(beta)
    phase = unit**d if m >= n else (-np.conj(unit)) ** d
    return complex(phase * mag * lag)


def displaced_support(n_top, beta_abs, tol=1e-13):
    """Row count K so that D(beta)|n> for n <= n_top keeps all but ``tol``
    of its norm on Fock components below K."""
    x = float(abs(beta_abs))
    k = int(np.ceil((np.sqrt(n_top + 1.0) + x) ** 2 + 8.0 * (x + 1.0) + 8.0))
    limit = n_top + 4096
    while k < limit:
        f = displacement_amplitudes(x, k, n_top + 1)
        deficit = 1.0 - np.sum(f * f, axis=0)
        if float(np.max(deficit)) < tol:
            return k
        k += 16
    raise TruncationError("displaced support search did not converge")


def spin_rotation(theta, phi):
    """U = cos(theta) I - i sin(theta) (sigma1 cos(phi) + sigma2 sin(phi))."""
    axis = SIGMA1 * np.cos(phi) + SIGMA2 * np.sin(phi)
    return np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * axis


def hermitian_eigenvalues(op, tol=1e-8):
    """Real eigenvalues in descending order.

    The input must be Hermitian within ``tol`` (max elementwise deviation);
    it is symmetrized before the decomposition.
    """
    a = np.asarray(op, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    deviation = float(np.max(np.abs(a - a.conj().T)))
    if deviation > tol:
        raise ValueError(f"matrix deviates from Hermitian by {deviation:.3e} (tol {tol:.1e})")
    vals = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return vals[::-1]
