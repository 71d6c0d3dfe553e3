"""Tight 2x2 complex linear algebra over the Pauli basis.

Conventions used throughout the package: hbar = 1, all times and energies
dimensionless, matrices are plain (2, 2) complex numpy arrays (or (..., 2, 2)
stacks where a kernel says so). Each 2x2 rule the package applies
(product, determinant, conjugate transpose, Frobenius norm, Hermiticity
residual, Hermitian positive-definite check, Pauli split
``pauli_decompose(m) -> (a0, ax, ay, az)`` and Pauli sum
``pauli_compose(a0, ax, ay, az)``, Hermitian square root and its
derivative) is coded here once. So is the real Pauli kernel of the
Hermitian chain: a Hermitian a0 I + a.sigma is its real Pauli form, the
float (4, ...) array (a0, ax, ay, az) of ``pauli_form``, which the
positivity check (``require_pd_form``), the root (``pauli_sqrt``), its
derivative (``pauli_sqrt_derivative``), the product (``pauli_product``)
and the determinant (``pauli_det``) take and give in real arithmetic; the
matrix root and its derivative are a decompose, that kernel and a compose.

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

import math

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
    stack, built entry by entry. Real finite coefficients build each entry
    from its two nonzero terms, with the bits of the complex sum, signed
    zeros included: the imaginary parts are 0, -ay + 0 and ay + 0, and a
    real part that is zero takes the sign of the sum's zero terms too, the
    products x * 0 of the other coefficients by zero Pauli entries.
    Complex coefficients, and real ones with an inf or NaN, take the
    complex sum itself, with its bits.
    """
    coeffs = [np.asarray(x) for x in (a0, ax, ay, az)]
    lead = np.broadcast_shapes(*(x.shape for x in coeffs))
    if not any(np.iscomplexobj(x) for x in coeffs) and all(np.isfinite(x).all() for x in coeffs):
        a0, ax, ay, az = (x.astype(float, copy=False) for x in coeffs)
        out = _entry_major(lead)
        re = [[out[..., i, j].real for j in range(2)] for i in range(2)]
        np.add(a0, az, out=re[0][0])
        np.subtract(a0, az, out=re[1][1])
        np.add(ax, 0.0, out=re[0][1])
        # the zero terms decide a zero's sign only where ax is -0, or a0 and az both zero
        np.add(ax, 0.0 if np.all(ax) or not np.signbit(ax).any() else (a0 * 0.0 + ay * 0.0) + az * 0.0, out=re[1][0])
        np.subtract(0.0, ay, out=out[..., 0, 1].imag)
        np.add(ay, 0.0, out=out[..., 1, 0].imag)
        out[..., 0, 0].imag[...] = out[..., 1, 1].imag[...] = 0.0
        if not (np.all(a0) or np.all(az)):
            zxy = ax * 0.0 + ay * 0.0
            re[0][0] += zxy
            re[1][1] += zxy
        return out

    def entry(i, j):
        out = coeffs[0] * IDENTITY[i, j]
        for x, sigma in zip(coeffs[1:], PAULIS):
            out = out + x * sigma[i, j]
        return out

    return _entrywise(lead, entry)


def pauli_form(m) -> np.ndarray:
    """The real Pauli form (a0, ax, ay, az) of the Hermitian part of m, a float (4, ...) array.

    Each row is contiguous over the stack. The form drops m's anti-Hermitian
    part, so a check of that part reads the matrix (require_hpd).
    """
    re, im = np.real(m), np.imag(m)
    form = np.empty((4, *np.shape(m)[:-2]))
    np.add(re[..., 0, 0], re[..., 1, 1], out=form[0, ...])
    np.add(re[..., 0, 1], re[..., 1, 0], out=form[1, ...])
    np.subtract(im[..., 1, 0], im[..., 0, 1], out=form[2, ...])
    np.subtract(re[..., 0, 0], re[..., 1, 1], out=form[3, ...])
    form *= 0.5
    return form


def _dot(a, b):
    """a.b of two 3-vectors given as their components (arrays or scalars), summed in index order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    """The components of the cross product a x b of two real 3-vectors, each formed as np.cross forms it."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def pauli_product(a, b):
    """(a0 + a.sigma)(b0 + b.sigma) = a0 b0 + a.b + (a0 b + b0 a + i a x b).sigma of real Pauli forms.

    Returns the product's real part, the form (a0 b0 + a.b, a0 b + b0 a),
    and its imaginary part, the (3, ...) vector a x b on sigma: the
    product is Hermitian exactly when a x b = 0, as for a form times
    itself.
    """
    a0, a, b0, b = a[0], a[1:], b[0], b[1:]
    return np.concatenate(([a0 * b0 + _dot(a, b)], a0 * b + b0 * a)), np.stack(_cross3(a, b))


def pauli_det(p):
    """det (a0 I + a.sigma) = a0^2 - a.a of a real Pauli form."""
    return p[0] * p[0] - _dot(p[1:], p[1:])


def pauli_norm(p):
    """Frobenius norm sqrt(2 (a0^2 + a.a)) of the Hermitian matrix whose real Pauli form is p."""
    squares = p[1] * p[1]  # summed as 2 (a0^2 + a.a) with a.a in index order, each step in place
    squares += p[2] * p[2]
    squares += p[3] * p[3]
    squares += p[0] * p[0]
    squares *= 2.0
    return np.sqrt(squares)


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


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
    """Check that m is Hermitian positive definite; return its real Pauli form and sqrt(det).

    Accepts one (2, 2) matrix or a (..., 2, 2) stack. The first matrix that
    is not Hermitian within HERMITICITY_TOL (Frobenius, on the matrix,
    before pauli_form drops the anti-Hermitian part) raises NotHermitian;
    the form of the Hermitian parts then goes through require_pd_form,
    which raises NotPositiveDefinite and returns the form and sqrt(det).
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
    return require_pd_form(pauli_form(m))


def require_pd_form(rho):
    """Check that the real Pauli form rho = alpha I + beta.sigma is positive definite; return it and sqrt(det).

    ``rho`` is one form (4,) or a (4, ...) stack of them, Hermitian by
    construction, so this is require_hpd's positivity half alone. The first
    form that is not positive definite raises NotPositiveDefinite: that
    needs alpha > 0 and the determinant scaled by alpha^2,
    q = 1 - |beta/alpha|^2, > 0, which does not overflow where alpha^2
    would; a NaN fails both. Its position is in the message and in the
    error's ``index`` (None for a single form). Returns rho and
    s = sqrt(det) = alpha sqrt(q) of the stack's shape, the arguments of
    pauli_sqrt.
    """
    alpha, beta = rho[0], rho[1:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # each such sample is refused below
        w = beta / alpha
        q = 1.0 - _dot(w, w)
    bad = ~((alpha > 0.0) & (q > 0.0))
    if np.any(bad):
        i, where = _first_invalid(bad)
        a, *b = (float(x) for x in rho[:, bad][:, 0])
        norm = math.hypot(*b)
        raise NotPositiveDefinite(
            f"{where}not positive definite: tr = {2.0 * a:.6g}, det = {(a - norm) * (a + norm):.6g}",
            index=i,
        )
    return rho, alpha * np.sqrt(q)


def pauli_sqrt(rho, s) -> np.ndarray:
    """Real Pauli form of the principal square root of a Hermitian positive-definite form.

    ``rho`` = alpha I + beta.sigma and s = sqrt(det rho) are what
    require_hpd returns. The root is the closed form (B. W. Levinger,
    Math. Mag. 53, 1980)

        eta = ((alpha + s) I + beta.sigma) / r,    r = sqrt(2 (alpha + s)),

    so e0 = (alpha + s) / r = r / 2 and e = beta / r: Hermitian positive
    definite, and c I maps to sqrt(c) I.
    """
    r = np.sqrt(2.0 * (rho[0] + s))
    eta = rho / r
    eta[0] = 0.5 * r
    return eta


def pauli_sqrt_derivative(eta, rho_dot) -> np.ndarray:
    """Real Pauli form of the X solving eta X + X eta = rho_dot, for real Pauli forms eta and rho_dot.

    This Sylvester equation defines the Frechet derivative of the principal
    square root (N. J. Higham, Functions of Matrices, SIAM 2008, ch. 6). By
    the product rule eta X + X eta = 2 (e0 x0 + e.x) + 2 (e0 x + x0 e).sigma,
    so for rho_dot = r0 + r.sigma

        x0 = (e0 r0 - e.r) / (2 det eta),    x = (r/2 - x0 e) / e0,

    with det eta = e0^2 - e.e. eta must be a root from pauli_sqrt, whose e0
    and determinant are positive.
    """
    e0, e, r0, r = eta[0], eta[1:], rho_dot[0], rho_dot[1:]
    x = np.empty(np.broadcast_shapes(eta.shape, rho_dot.shape))
    x[0] = (e0 * r0 - _dot(e, r)) / (2.0 * pauli_det(eta))
    np.multiply(0.5, r, out=x[1:])
    x[1:] -= x[0] * e
    x[1:] /= e0
    return x


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of Hermitian positive-definite 2x2 matrices.

    Accepts one (2, 2) matrix or a (..., 2, 2) stack and returns the same
    shape: require_hpd checks and decomposes m, pauli_sqrt roots the form
    of its Hermitian part and pauli_compose builds the matrices, which are
    Hermitian positive definite. Invalid matrices raise as in require_hpd.
    """
    return pauli_compose(*pauli_sqrt(*require_hpd(m)))


def hermitian_sqrt_derivative(eta, rho_dot) -> np.ndarray:
    """Time derivative of eta = sqrt(rho): the X solving eta X + X eta = rho_dot.

    pauli_sqrt_derivative on the real Pauli forms of eta and rho_dot (both
    taken as Hermitian: pauli_form drops any anti-Hermitian part), composed.
    Batched over (..., 2, 2) stacks; eta must be a root returned by
    hermitian_sqrt, whose trace and determinant are positive.
    """
    eta = complex2x2_stack(eta)
    rho_dot = complex2x2_stack(rho_dot)
    return pauli_compose(*pauli_sqrt_derivative(pauli_form(eta), pauli_form(rho_dot)))
