"""Tight 2x2 complex linear algebra over the Pauli basis.

Conventions used throughout the package: hbar = 1, all times and energies
dimensionless, matrices are plain (2, 2) complex numpy arrays (or (..., 2, 2)
stacks where a kernel says so). Each 2x2 rule the package applies
(product, determinant, conjugate transpose, Hermitian part, Frobenius
norm, Hermiticity residual, Hermitian positive-definite check, Pauli split
``pauli_decompose(m) -> (a0, ax, ay, az)`` and Pauli sum
``pauli_compose(a0, ax, ay, az)``, Hermitian square root and its
derivative) is coded here once.

Every stack the package builds is stored entry-major: a (..., 2, k) stack
has the memory layout of a C-ordered (2, k, ...) array, so each entry
m[..., i, j] is one contiguous array over the stack, the time axis of a
series (one matrix alone is C-contiguous). The kernels here work entry by
entry, so their elementwise loops run on contiguous data, and numpy's
elementwise ops, which keep their inputs' layout, carry it downstream. A
stack in any other layout is accepted and gives the same bits.

The product ``mul`` works entry by entry over the stack: numpy's ``@`` on
an (n, 2, 2) complex stack calls BLAS zgemm once per matrix, which is
slower and rounds as the OpenBLAS kernel numpy loads does (its SkylakeX
and Haswell kernels differ). On a 2-CPU Xeon (numpy 2.4.6, pinned to one
CPU) ``@`` takes 7.1 ms for 14,501 matrices; ``mul`` takes 0.18 ms on
entry-major operands and 0.23 ms on C-ordered ones, whose entries are
64-byte-strided views. No series the package computes goes through ``@``,
so its bits do not depend on the BLAS kernel.
"""

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Absolute Frobenius tolerance of require_hpd; every matrix handled here is O(1).
HERMITICITY_TOL = 1e-10


def _entry_major(lead, entry=(2, 2), dtype=complex) -> np.ndarray:
    """An empty (*lead, rows, cols) stack laid out in memory as (rows, cols, *lead).

    Each entry [..., i, j] is then one C-contiguous array of shape ``lead``;
    with no leading axes the matrix itself is C-contiguous. The array owns
    its memory, unlike a transposed view of one, so numpy still reuses it
    in place when it is the temporary operand of an arithmetic expression.
    """
    memory = (*entry, *lead)
    strides = [np.dtype(dtype).itemsize]
    for size in memory[:0:-1]:
        strides.insert(0, strides[0] * size)
    return np.ndarray((*lead, *entry), dtype, strides=(*strides[2:], *strides[:2]))


def _entrywise(lead, entry) -> np.ndarray:
    """The entry-major complex (*lead, 2, 2) stack whose entry [..., i, j] is entry(i, j).

    ``entry`` should multiply through ufuncs with an array operand (0-d for
    one matrix): numpy's product of two complex scalars skips the array
    loop and rounds differently from it.
    """
    out = _entry_major(lead)
    for i in range(2):
        for j in range(2):
            out[..., i, j] = entry(i, j)
    return out


def complex2x2(m) -> np.ndarray:
    """Validate and return ``m`` as a (2, 2) complex array with finite entries."""
    out = np.asarray(m, dtype=complex)
    if out.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def complex2x2_stack(m) -> np.ndarray:
    """Validate and return ``m`` as a (..., 2, 2) complex array with finite entries."""
    out = np.asarray(m, dtype=complex)
    if out.ndim < 2 or out.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def pauli_decompose(m):
    """Pauli coefficients (a0, ax, ay, az) of m: a0 = tr(m)/2, a_j = tr(sigma_j m)/2.

    Scalars for one (2, 2) matrix, arrays of the stack's shape for a
    (..., 2, 2) stack.
    """
    m = complex2x2_stack(m)
    a0 = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    ax = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    ay = 0.5j * (m[..., 0, 1] - m[..., 1, 0])
    az = 0.5 * (m[..., 0, 0] - m[..., 1, 1])
    return a0, ax, ay, az


def pauli_compose(a0, ax, ay, az) -> np.ndarray:
    """The sum a0*I + ax*sigma_x + ay*sigma_y + az*sigma_z, added in that order.

    Coefficients of shapes that broadcast to (...) give the (..., 2, 2)
    stack, built entry by entry.
    """
    coeffs = [np.asarray(x) for x in (a0, ax, ay, az)]

    def entry(i, j):
        out = coeffs[0] * IDENTITY[i, j]
        for x, sigma in zip(coeffs[1:], PAULIS):
            out = out + x * sigma[i, j]
        return out

    return _entrywise(np.broadcast_shapes(*(x.shape for x in coeffs)), entry)


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_part(m) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix or of each of a stack, entry-major; exactly Hermitian."""
    out = np.add(m, dagger(m), out=_entry_major(np.shape(m)[:-2]))
    out *= 0.5
    return out


def mul(a, b) -> np.ndarray:
    """Matrix product a @ b of 2x2 matrices, entry by entry over the stack.

    ``a`` is one (2, 2) matrix or a (..., 2, 2) stack, ``b`` one (2, k)
    matrix or a (..., 2, k) stack (k = 1 for column vectors); the leading
    axes broadcast. Entry (i, j) is a_i0 b_0j + a_i1 b_1j, formed by
    numpy's elementwise multiply and add on the operands' entries, so a
    matrix rounds the same alone as inside any stack and in any layout,
    and the only temporary is one entry of every matrix. The result is an
    entry-major (..., 2, k) stack: each entry is contiguous over the
    stack, and one matrix is C-contiguous.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-2:] != (2, 2) or b.ndim < 2 or b.shape[-2] != 2:
        raise ValueError(f"expected (..., 2, 2) @ (..., 2, k), got shapes {a.shape} and {b.shape}")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    dtype = np.result_type(a, b)
    out = _entry_major(lead, (2, b.shape[-1]), dtype)
    term = np.empty(lead, dtype=dtype)
    for i in range(2):
        for j in range(b.shape[-1]):
            entry = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=entry)
            np.multiply(a[..., i, 1], b[..., 1, j], out=term)
            entry += term
    return out


def det(m):
    """Complex determinant m00 m11 - m01 m10 of one 2x2 matrix or of each of a stack."""
    m = np.asarray(m)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def hermiticity_residual(m):
    """Frobenius norm of m - m^dagger; zero exactly when m is Hermitian.

    A float for one 2x2 matrix, an array of residuals for a stack. Formed
    entry by entry: m - m^dagger has the diagonal 2i Im m_ii and the
    off-diagonal pair off = m01 - conj(m10) and -conj(off), so its squares
    are summed in the order of frobenius_norm(m - dagger(m)) and give its
    bits, without the four-entry difference.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {m.shape}")
    off = m[..., 0, 1] - np.conj(m[..., 1, 0])
    re = off.real**2
    im = off.imag**2
    d0 = 2.0 * m[..., 0, 0].imag
    d1 = 2.0 * m[..., 1, 1].imag
    return np.sqrt((re + re) + ((d0 * d0 + im) + (im + d1 * d1)))[()]


def frobenius_norm(m) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., 2, 2) stack (a 0-d array for one).

    The squares are summed in one fixed order, column-wise pairs of the real
    parts and then of the imaginary parts: the order in which numpy's
    OpenBLAS build sums np.linalg.norm of a single 2x2 matrix. A stack thus
    gives that per-matrix norm bit for bit, whatever its size. Any other
    shape raises ValueError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {m.shape}")

    def squares(x):
        return (x[..., 0, 0] ** 2 + x[..., 1, 0] ** 2) + (x[..., 0, 1] ** 2 + x[..., 1, 1] ** 2)

    return np.sqrt(squares(m.real) + squares(m.imag))


def _first_invalid(bad: np.ndarray):
    """Index and message prefix of the first True of a mask over a stack.

    The index is None for a single matrix, an int for a 1-D stack and a
    tuple for deeper ones.
    """
    if bad.ndim == 0:
        return None, ""
    i = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
    if len(i) == 1:
        i = i[0]
    return i, f"matrix {i} of the stack: "


def require_hpd(m):
    """Check that m is Hermitian positive definite; return its Hermitian part, trace, det.

    Accepts one (2, 2) matrix or a (..., 2, 2) stack. The first matrix that
    is not Hermitian within HERMITICITY_TOL (Frobenius) raises
    NotHermitian; the first whose Hermitian part has a trace or determinant
    <= 0 raises NotPositiveDefinite. Its position is in the message and in
    the error's ``index`` (None for a single matrix). The trace and the
    determinant are real, of the stack's shape.
    """
    m = complex2x2_stack(m)
    residual = hermiticity_residual(m)
    bad = residual > HERMITICITY_TOL
    if np.any(bad):
        i, where = _first_invalid(bad)
        raise NotHermitian(
            f"{where}hermiticity residual {residual[bad][0]:.3e} exceeds {HERMITICITY_TOL:.1e}",
            index=i,
        )
    sym = hermitian_part(m)
    tr = (sym[..., 0, 0] + sym[..., 1, 1]).real
    d = det(sym).real
    bad = (d <= 0.0) | (tr <= 0.0)
    if np.any(bad):
        i, where = _first_invalid(bad)
        raise NotPositiveDefinite(
            f"{where}not positive definite: tr = {tr[bad][0]:.6g}, det = {d[bad][0]:.6g}",
            index=i,
        )
    return sym, tr, d


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of Hermitian positive-definite 2x2 matrices.

    Accepts one (2, 2) matrix or a (..., 2, 2) stack and returns the same
    shape. Each root is the closed form (B. W. Levinger, Math. Mag. 53, 1980)

        sqrt(m) = (m + s I) / sqrt(tr m + 2 s),    s = sqrt(det m),

    taken of the Hermitian part of m, so the result is Hermitian positive
    definite and c I maps to sqrt(c) I. Invalid matrices raise as in
    require_hpd.
    """
    sym, tr, d = require_hpd(m)
    s = np.asarray(np.sqrt(d))
    scale = np.sqrt(tr + 2.0 * s)
    return _entrywise(s.shape, lambda i, j: np.divide(sym[..., i, j] + s * IDENTITY[i, j], scale))


def hermitian_sqrt_derivative(eta, rho_dot) -> np.ndarray:
    """Time derivative of eta = sqrt(rho): the X solving eta X + X eta = rho_dot.

    This Sylvester equation defines the Frechet derivative of the principal
    square root (N. J. Higham, Functions of Matrices, SIAM 2008, ch. 6).
    For 2x2 eta, Cayley-Hamilton gives its solution in closed form,

        X = (adj(eta) rho_dot adj(eta) + det(eta) rho_dot) / (2 tr(eta) det(eta)),

    with adj(eta) = tr(eta) I - eta. Batched over (..., 2, 2) stacks; eta
    must be a root returned by hermitian_sqrt, whose trace and determinant
    are positive.
    """
    eta = complex2x2_stack(eta)
    rho_dot = complex2x2_stack(rho_dot)
    tr = np.asarray(eta[..., 0, 0] + eta[..., 1, 1])
    d = np.asarray(det(eta))
    adj = _entrywise(tr.shape, lambda i, j: tr * IDENTITY[i, j] - eta[..., i, j])
    out = mul(mul(adj, rho_dot), adj)  # entry-major, and the in-place steps keep its layout
    out += d[..., None, None] * rho_dot
    out /= (2.0 * tr * d)[..., None, None]
    return out
