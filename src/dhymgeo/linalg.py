"""Small dense linear-algebra kernels and the Hermitian/J-invariant dictionary.

A Hermitian matrix H = A1 + i*A2 (A1 real symmetric, A2 real skew) is
identified with the real symmetric 2n x 2n block matrix

    iota(H) = [[ A1, A2],
               [-A2, A1]]

which commutes with the standard complex structure J = [[0, -I], [I, 0]]
in coordinates ordered (x_1..x_n, y_1..y_n).  Matrices in the image of
``iota`` have each eigenvalue of H doubled, with eigenvector pairs
(v, Jv).  ``jproject`` is the orthogonal projection of a symmetric matrix
onto the J-invariant subspace and ``hermitian_of`` inverts ``iota`` on
its image.

Everything here is desk scale: dimensions are capped (spatial n <= 8,
bordered space-time n+1 <= 9) and all tolerances are relative to the
matrix norm with an absolute floor of 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

HERM_TOL = 1e-12
SPATIAL_DIM_CAP = 8
SPACETIME_DIM_CAP = SPATIAL_DIM_CAP + 1


def _as_square(M, name="matrix", cap=SPACETIME_DIM_CAP):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if M.shape[0] > cap:
        raise ValueError(
            f"{name} dimension {M.shape[0]} exceeds small-dense cap {cap}"
        )
    return M


def _norm(M):
    """||M||_F from one BLAS dot, which raises no numpy floating-point warning:
    an overflow shows as a non-finite result."""
    return math.sqrt(np.vdot(M, M).real)


def _finite_norm(M, name):
    """||M||_F; ValueError when it is not finite (a nan or inf entry, or overflow),
    since every relative tolerance here is measured against it."""
    norm = _norm(M)
    if not math.isfinite(norm):
        raise ValueError(f"{name} has a non-finite entry or norm")
    return norm


def check_hermitian(H, tol=HERM_TOL, name="H", cap=SPACETIME_DIM_CAP):
    """Validate finiteness and self-adjointness to ``tol * max(1, ||H||_F)``;
    return H as complex."""
    H = _as_square(H, name, cap).astype(complex)
    adjoint = H.conj().T
    scale = max(1.0, _finite_norm(H, name))
    defect = _norm(H - adjoint)
    if defect > tol * scale:
        raise ValueError(
            f"{name} is not self-adjoint: defect {defect:.3e} exceeds {tol * scale:.3e}"
        )
    return 0.5 * (H + adjoint)


def check_symmetric(N, tol=HERM_TOL, name="N"):
    """Validate a finite real symmetric matrix of even dimension 2n."""
    N = _as_square(N, name, 2 * SPACETIME_DIM_CAP)
    norm = _finite_norm(N, name)
    if np.iscomplexobj(N) and float(np.linalg.norm(N.imag)) > tol * max(1.0, norm):
        raise ValueError(f"{name} must be real")
    N = N.real.astype(float)
    if N.shape[0] % 2 != 0:
        raise ValueError(f"{name} must have even dimension, got {N.shape[0]}")
    scale = max(1.0, float(np.linalg.norm(N)))
    if float(np.linalg.norm(N - N.T)) > tol * scale:
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (N + N.T)


def jmatrix(n):
    """The complex structure J = [[0, -I], [I, 0]] on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def iota(H, tol=HERM_TOL):
    """Embed Hermitian H = A1 + i*A2 as [[A1, A2], [-A2, A1]]."""
    H = check_hermitian(H, tol)
    A1, A2 = H.real, H.imag
    return np.block([[A1, A2], [-A2, A1]])


def jproject(N, tol=HERM_TOL):
    """Project a symmetric 2n x 2n matrix onto its J-invariant part, (N + J^T N J)/2."""
    N = check_symmetric(N, tol)
    J = jmatrix(N.shape[0] // 2)
    return 0.5 * (N + J.T @ N @ J)


def hermitian_of(N, tol=1e-10):
    """Invert ``iota`` on its image: the Hermitian A1 + i*A2 with iota = given N.

    Rejects input whose J-invariance defect exceeds ``tol`` relative to the norm.
    """
    N = check_symmetric(N, max(tol, HERM_TOL))
    n = N.shape[0] // 2
    J = jmatrix(n)
    scale = max(1.0, float(np.linalg.norm(N)))
    if float(np.linalg.norm(J.T @ N @ J - N)) > tol * scale:
        raise ValueError("input is not J-invariant within tolerance")
    A1 = 0.5 * (N[:n, :n] + N[n:, n:])
    A2 = 0.5 * (N[:n, n:] - N[n:, :n])
    H = A1 + 1j * A2
    return 0.5 * (H + H.conj().T)


def eig_hermitian(H, tol=HERM_TOL):
    """Real eigenvalues of a Hermitian matrix, ascending."""
    H = check_hermitian(H, tol)
    return np.linalg.eigvalsh(H)


def eig_complex(B, cap=2 * SPACETIME_DIM_CAP):
    """Eigenvalues of a general small dense complex matrix (unordered)."""
    B = _as_square(B, "B", cap).astype(complex)
    return np.linalg.eigvals(B)


def bordered_matrix(B_plus, a11, a1, eta):
    """Assemble [[eta + i*a11, i*conj(a1)^T], [i*a1, B_plus]]."""
    B_plus = _as_square(B_plus, "B_plus").astype(complex)
    a1 = np.asarray(a1, dtype=complex).reshape(-1)
    if a1.shape[0] != B_plus.shape[0]:
        raise ValueError("a1 length must match B_plus dimension")
    m = B_plus.shape[0] + 1
    B = np.zeros((m, m), dtype=complex)
    B[0, 0] = eta + 1j * a11
    B[0, 1:] = 1j * np.conj(a1)
    B[1:, 0] = 1j * a1
    B[1:, 1:] = B_plus
    return B


def bordered_det(B_plus, a11, a1, eta):
    """det of the bordered matrix via det(B_plus) * (eta + i*a11 + a1^* B_plus^{-1} a1).

    ``a1`` is the first-column tail below the corner; the quadratic form is
    conj(a1) . B_plus^{-1} a1, which is exactly the Schur complement of the
    corner entry.  Raises on singular B_plus.
    """
    B_plus = _as_square(B_plus, "B_plus").astype(complex)
    a1 = np.asarray(a1, dtype=complex).reshape(-1)
    if a1.shape[0] != B_plus.shape[0]:
        raise ValueError("a1 length must match B_plus dimension")
    det_plus = np.linalg.det(B_plus)
    if abs(det_plus) < 1e-300:
        raise ValueError("B_plus is singular")
    try:
        q = np.conj(a1) @ np.linalg.solve(B_plus, a1)
    except np.linalg.LinAlgError as exc:
        raise ValueError("B_plus is singular") from exc
    return det_plus * (eta + 1j * a11 + q)


# Matrix literal text format: one row per line, complex entries written as
# "a+bi" with whitespace-separated columns.  Bare reals and bare imaginary
# parts ("2", "-1.5i") are accepted; the formatter emits whatever is shortest
# and round-trips exactly through repr precision.


def _float_of(body, default):
    if body in ("", "+"):
        return default
    if body == "-":
        return -default
    return float(body)


def parse_complex_entry(text):
    """Parse one "a+bi" style entry to a Python complex."""
    s = text.strip().replace("−", "-")
    if not s:
        raise ValueError("empty matrix entry")
    try:
        if not s.endswith("i"):
            return complex(float(s), 0.0)
        body = s[:-1]
        # split before the sign of the imaginary part, skipping exponent signs
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split <= 0:
            return complex(0.0, _float_of(body, 1.0))
        return complex(float(body[:split]), _float_of(body[split:], 1.0))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex entry {text!r}") from exc


def format_complex_entry(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_matrix_literal(text):
    """Parse a whitespace matrix block (rows as lines) to a complex ndarray."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_complex_entry(tok) for tok in line.split()])
    if not rows:
        raise ValueError("matrix literal contains no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix literal rows have unequal length")
    return np.array(rows, dtype=complex)


def format_matrix_literal(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("matrix literal formatter expects a 2-d array")
    return "\n".join(
        " ".join(format_complex_entry(z) for z in row) for row in M
    )
