"""Flat unit-volume torus geometry and exact Fourier calculus.

Fields live on a uniform periodic grid over [0, 1)^d with d in {1, 2}
effective coordinates; Sobolev exponents come from the ambient dimension
n >= 5 (the remaining n - d coordinates are dummy directions of the
unit-volume torus and integrate away).  A field is stored as the Fourier
coefficients of its trigonometric interpolant

    u(x) = sum_m  c_m exp(2 pi i m.x),      |m_i| <= M/2 - 1,

so differential operators are exact diagonal multipliers.  The Nyquist
plane of the even-size FFT is projected out at construction; this makes
the retained mode set conjugation-symmetric, turns spectral truncation
into an exact L2-orthogonal projection, and lets the 2x-refined grid
integrate triple products of band-limited fields without aliasing.

Grid samples and refined-grid values are transformed from the
coefficients on first read and cached (idempotent, read-only caches).
``scale``, ``add`` and ``combination`` carry the cached refined-grid
values of their inputs, which they are linear in, and ``inner`` and
``l2_norm`` use Parseval on the coefficients, so linear arithmetic makes
no transform.  Every transform of the package is made here, through
``TorusGeometry.forward`` and ``inverse``, as one call of numpy's
pocketfft kernel per field axis (see the transforms section of
``TorusGeometry``).

A field may hold a stack of fields along one leading axis (``stack``;
``u[i]`` takes one out).  Transforms, padding, truncation, the
divergence helper and the refined-grid quadrature act on the last
``d_eff`` axes only, so each field of a stack gets the same arithmetic,
bit for bit, as it would alone, and one transform call serves the whole
stack.  ``scale`` and ``add`` take one weight per field of a stack;
``lp_mass`` and ``bilap_energy`` return one value per field.
``inner``, ``l2_norm``, ``lp_norm`` and the other scalar functionals are
for single fields.  ``TorusGeometry.from_band``/``to_band`` map the
band's real fields to their real coordinates in one orthonormal basis.

Multiplier table (angular frequency w = 2 pi m, sign convention
Delta = -div grad):

    component derivative d_i   ->   i w_i
    laplacian                  ->  +|w|^2
    bilaplacian                ->  +|w|^4
    div(a grad u),  a const    ->  -a |w|^2

All integrals use uniform quadrature weight 1/M^d (total volume one).
Products of two band-limited fields are exact after refinement and
truncation; non-polynomial powers |u|^q are evaluated pointwise on the
refined grid and carry a quadrature error that vanishes spectrally under
grid refinement.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

from .errors import GeometryMismatch

TWO_PI = 2.0 * math.pi

_FINE_FACTOR = 2  # refinement used for products, powers and quadrature
_UNSCALED = np.array(1.0)  # the kernel's scale argument for an unscaled pass


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


class TorusGeometry:
    """Grid, frequency lattice and quadrature of a unit-volume flat torus.

    Parameters
    ----------
    n_ambient : int
        Manifold dimension n >= 5; sets the critical exponent
        N = 2n/(n-4).
    d_eff : int
        Number of coordinates the fields actually vary along (1 or 2).
    grid_size : int
        Samples per effective axis; a power of two.
    """

    def __init__(self, n_ambient: int, d_eff: int, grid_size: int):
        if n_ambient < 5:
            raise ValueError(f"n_ambient must be >= 5, got {n_ambient}")
        if d_eff not in (1, 2):
            raise ValueError(f"d_eff must be 1 or 2, got {d_eff}")
        if not _is_power_of_two(grid_size):
            raise ValueError(f"grid_size must be a power of two, got {grid_size}")
        self.n_ambient = int(n_ambient)
        self.d_eff = int(d_eff)
        self.grid_size = int(grid_size)

        M = self.grid_size
        d = self.d_eff
        self.shape = (M,) * d
        self.size = M**d
        self.weight = 1.0 / self.size

        self.fine_size = _FINE_FACTOR * M
        self.fine_shape = (self.fine_size,) * d
        self.fine_weight = 1.0 / (self.fine_size**d)

        # integer mode numbers per axis, numpy FFT ordering
        m_axis = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)
        # retained band: |m| <= M/2 - 1 on every axis (Nyquist projected out)
        keep_axis = np.abs(m_axis) <= M // 2 - 1
        grids = np.meshgrid(*([m_axis] * d), indexing="ij")
        self.mode_numbers = grids
        keeps = np.meshgrid(*([keep_axis] * d), indexing="ij")
        self.band_mask = np.logical_and.reduce(keeps)

        m_sq = sum(g.astype(np.float64) ** 2 for g in grids)
        self.lam = (TWO_PI**2) * m_sq          # multiplier of the laplacian
        self.lam_sq = self.lam**2              # multiplier of the bilaplacian
        self.deriv_mult = [1j * TWO_PI * g.astype(np.float64) for g in grids]

        # flat indices of the band's self-conjugate modes and of its pairs m, -m
        idx = np.flatnonzero(self.band_mask)
        mirror = np.ravel_multi_index([-m.ravel()[idx] % M for m in grids], self.shape)
        self._band_modes = (idx[idx == mirror], idx[idx < mirror], mirror[idx < mirror])
        self.band_size = idx.size  # (M - 1)^d

        # position of coarse mode m inside the refined spectrum
        self._fine_index = np.ix_(*([m_axis % self.fine_size] * d))
        self._off_band = ~self.band_mask
        # the field axes, last first; leading (stack) axes are left alone
        self._axes = tuple(range(-1, -d - 1, -1))
        # the kernel's core-axis argument for each pass after the first
        self._later_passes = [[(a,), (), (a,)] for a in self._axes[1:]]
        # ``forward``'s scale 1/N per grid (native, refined), keyed by points per axis
        self._scale = {n: np.array(1.0 / n**d) for n in (M, self.fine_size)}

    # ------------------------------------------------------------------
    # basic descriptors

    @property
    def critical_exponent(self) -> float:
        """N = 2n/(n-4), the largest q with H2 embedded in L^q."""
        n = self.n_ambient
        return 2.0 * n / (n - 4.0)

    def coordinates(self):
        """Node coordinates, one array per effective axis (meshgrid)."""
        M = self.grid_size
        x = np.arange(M, dtype=np.float64) / M
        return np.meshgrid(*([x] * self.d_eff), indexing="ij")

    def compatible(self, other: "TorusGeometry") -> bool:
        return (
            self.n_ambient == other.n_ambient
            and self.d_eff == other.d_eff
            and self.grid_size == other.grid_size
        )

    def check_same(self, other: "TorusGeometry"):
        if self is not other and not self.compatible(other):
            raise GeometryMismatch(
                f"incompatible geometries: {self.shape} vs {other.shape}"
            )

    # ------------------------------------------------------------------
    # transforms (the only FFT calls of the package)
    #
    # Complex input, one 1-D complex transform per field axis, last axis
    # first: the sequence numpy.fft.fftn/ifftn and scipy.fft.fftn/ifftn
    # run.  Only the last d_eff axes are transformed: a stack is
    # transformed field by field in one call per axis.
    #
    # Both call numpy's pocketfft gufuncs directly (numpy >= 2.0): the
    # kernel that scipy.fft wraps too, so the values are those of
    # scipy.fft.fftn/ifftn(..., norm="forward"), bit for bit
    # (tests/test_geometry.py pins this), and no command has to import
    # scipy for its transforms.  The grids are small (64 to 1024 points
    # per field in the shipped configs), so the wrappers' per-call
    # dispatch would cost more than the transform itself.  The second
    # argument scales the output of its pass: ``forward`` divides by the
    # number of transformed points on the first pass only, as pocketfft
    # applies an n-D scale, and ``inverse`` leaves the sum as it is
    # (norm="forward"); the power-of-two scale is exact.  The kernel
    # takes complex input only, so each transform runs in place on a
    # complex copy of its input (real samples are cast); scales are
    # passed as 0-d arrays, which spares the kernel a conversion per call.

    def _transform(self, kernel, values: np.ndarray, scale: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=np.complex128)
        kernel(out, scale, out)
        for axes in self._later_passes:
            kernel(out, _UNSCALED, out, axes=axes)
        return out

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients DFT(values) / N of values on a grid of N points (native or refined)."""
        return self._transform(_fft, values, self._scale[values.shape[-1]])

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Real part of the grid values of a coefficient array (inverse of ``forward``).

        A contiguous copy: it frees the complex buffer and keeps later
        pointwise arithmetic on unit strides.
        """
        return self._transform(_ifft, coeffs, _UNSCALED).real.copy()

    # ------------------------------------------------------------------
    # real band coordinates

    def from_band(self, x) -> np.ndarray:
        """Coefficients of the real band field(s) with coordinates x on the last axis.

        The L2-orthonormal basis: the constant, then sqrt2 cos and sqrt2 sin
        of 2 pi m.x for each pair {m, -m}; c[-m] = conj(c[m]) exactly.
        """
        own, pair, partner = self._band_modes
        k, p = own.size, own.size + pair.size
        coeffs = np.zeros(x.shape[:-1] + (self.size,), dtype=np.complex128)
        coeffs[..., own] = x[..., :k]
        z = math.sqrt(0.5) * (x[..., k:p] + 1j * x[..., p:])
        coeffs[..., pair], coeffs[..., partner] = z, z.conj()
        return coeffs.reshape(x.shape[:-1] + self.shape)

    def to_band(self, coeffs) -> np.ndarray:
        """The real adjoint of ``from_band``: anti-Hermitian parts and off-band entries drop out."""
        own, pair, partner = self._band_modes
        c = coeffs.reshape(coeffs.shape[: coeffs.ndim - self.d_eff] + (self.size,))
        a, b, s = c[..., pair], c[..., partner], math.sqrt(0.5)
        return np.concatenate([c[..., own].real, s * (a + b).real, s * (a - b).imag], axis=-1)

    # ------------------------------------------------------------------
    # field constructors

    def _check_field_shape(self, array: np.ndarray, what: str):
        """Raise unless the array holds one field or a stack of fields on this grid."""
        if array.shape[array.ndim - self.d_eff:] != self.shape or array.ndim > self.d_eff + 1:
            raise GeometryMismatch(
                f"{what} shape {array.shape} does not match grid {self.shape}"
            )

    def field(self, samples) -> "SpectralField":
        """Field (or stack of fields) from grid samples, projected onto the band."""
        samples = np.asarray(samples, dtype=np.float64)
        self._check_field_shape(samples, "sample")
        coeffs = self.forward(samples)
        coeffs[..., self._off_band] = 0.0
        return SpectralField(self, coeffs)

    def field_from_coeffs(self, coeffs) -> "SpectralField":
        """Field (or stack of fields) from coefficients, projected onto the band."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        self._check_field_shape(coeffs, "coefficient")
        return SpectralField(self, np.where(self.band_mask, coeffs, 0.0 + 0.0j))

    def constant(self, value: float) -> "SpectralField":
        coeffs = np.zeros(self.shape, dtype=np.complex128)
        coeffs[(0,) * self.d_eff] = value
        return SpectralField(self, coeffs)

    def mode(self, m) -> "SpectralField":
        """Real single-mode field  cos(2 pi m.x)."""
        m = tuple(int(v) for v in np.atleast_1d(m))
        if len(m) != self.d_eff:
            raise ValueError("mode index must have one entry per effective axis")
        x = self.coordinates()
        return self.field(np.cos(sum(TWO_PI * mi * xi for mi, xi in zip(m, x))))

    def random_smooth(self, rng: np.random.Generator, decay: float = 2.0) -> "SpectralField":
        """Random band-limited field of unit L2 norm with power-law spectral decay.

        Deterministic given the generator state.
        """
        white = rng.standard_normal(self.shape)
        m_sq = self.lam / (TWO_PI**2)
        coeffs = self.forward(white) / (1.0 + m_sq) ** (decay / 2.0)
        coeffs[self._off_band] = 0.0
        u = SpectralField(self, coeffs)
        nrm = l2_norm(u)
        if nrm == 0.0:
            return u
        return scale(u, 1.0 / nrm)

    def bump(self, center, width: float) -> "SpectralField":
        """Smooth periodic bump of the given width, band-projected."""
        center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if center.size != self.d_eff:
            raise ValueError("center must have one entry per effective axis")
        x = self.coordinates()
        dist_sq = sum(
            np.sin(math.pi * (xi - ci)) ** 2 / math.pi**2
            for xi, ci in zip(x, center)
        )
        return self.field(np.exp(-dist_sq / (2.0 * width**2)))

    # ------------------------------------------------------------------
    # refinement / truncation between the native and quadrature grids

    def pad_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Embed native-band coefficients into the refined spectrum."""
        lead = coeffs.shape[: coeffs.ndim - self.d_eff]
        fine = np.zeros(lead + self.fine_shape, dtype=np.complex128)
        fine[(...,) + self._fine_index] = coeffs
        return fine

    def truncate_coeffs(self, fine_coeffs: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a refined spectrum onto the native band."""
        coeffs = fine_coeffs[(...,) + self._fine_index]     # advanced indexing: a copy
        coeffs[..., self._off_band] = 0.0
        return coeffs

    def fine_samples(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the interpolant of native-band coefficients on the fine grid."""
        return self.inverse(self.pad_coeffs(coeffs))

    def fine_to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Native-band coefficients of the L2 projection of fine-grid values."""
        return self.truncate_coeffs(self.forward(values))

    def fine_to_field(self, values: np.ndarray) -> "SpectralField":
        """Project fine-grid point values back onto the native band."""
        return SpectralField(self, self.fine_to_coeffs(values))

    def grad_fine_samples(self, coeffs: np.ndarray) -> np.ndarray:
        """Refined-grid samples of every d_i u for native-band coefficients of u.

        Axis 0 is the component i; the rest is the refined shape of
        ``coeffs`` (a stack included).  One transform serves every
        component.
        """
        return self.fine_samples(np.stack([d * coeffs for d in self.deriv_mult]))

    def div_from_grad_samples(self, a_fine: np.ndarray, du: np.ndarray) -> np.ndarray:
        """Native-band coefficients of sum_i d_i P(a d_i u) from the samples of d_i u.

        ``a_fine`` holds the values of a on the refined grid and ``du``
        the output of ``grad_fine_samples``.  Each product a * d_i(u) is
        formed pointwise there and projected back onto the band; this is
        the one place the divergence term is assembled.
        """
        proj = self.fine_to_coeffs(a_fine * du)
        out = np.zeros(proj.shape[1:], dtype=np.complex128)
        for i in range(self.d_eff):
            out += self.deriv_mult[i] * proj[i]
        return out

    def div_a_grad_coeffs(self, a_fine: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Native-band coefficients of sum_i d_i P(a d_i u) for coefficients of u."""
        return self.div_from_grad_samples(a_fine, self.grad_fine_samples(coeffs))

    def integrate_fine(self, values: np.ndarray):
        """Uniform-weight quadrature on the refined grid.

        A float for the values of one field; for a stack, an array with
        one value per field.  ``np.add.reduce`` is the reduction
        ``np.sum`` makes, without its Python-level dispatch, which costs
        more than the sum itself at a few thousand points; the moment
        retraction integrates twice per root step.
        """
        total = np.add.reduce(values, axis=self._axes) * self.fine_weight
        return float(total) if total.ndim == 0 else total

    def __repr__(self):
        return (
            f"TorusGeometry(n_ambient={self.n_ambient}, d_eff={self.d_eff}, "
            f"grid_size={self.grid_size})"
        )


class SpectralField:
    """Real scalar field stored as the Fourier coefficients of its interpolant.

    Instances are immutable.  ``samples`` (native grid) and ``fine_values``
    (refined grid) are transformed from the coefficients on first read and
    cached; the caches are idempotent, so a field is safe to share across
    threads (a racing first read computes the same array twice).  Every
    array a field exposes is read-only.  ``fine`` lets a caller that
    already holds the refined-grid values of the same interpolant (a
    linear combination of cached values) seed that cache.

    A stack (coefficients with one leading axis) is a field of the same
    kind; ``u[i]`` is field i of it as a field of its own (a copy), and
    ``u[[i, j]]`` a smaller stack.
    """

    __slots__ = ("geometry", "coeffs", "_samples", "_fine")

    def __init__(self, geometry: TorusGeometry, coeffs: np.ndarray, fine=None):
        coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        coeffs.flags.writeable = False
        if fine is not None:
            fine.flags.writeable = False
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_samples", None)
        object.__setattr__(self, "_fine", fine)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    def __reduce__(self):
        # pickle and copy.deepcopy cannot restore the slots through
        # __setattr__; both caches travel, since the refined-grid values
        # that arithmetic carries are not a fresh transform of coeffs
        return (_restore_field, (self.geometry, self.coeffs, self._samples, self._fine))

    def __getitem__(self, index) -> "SpectralField":
        if self.coeffs.ndim == self.geometry.d_eff:
            raise TypeError("a single field has no fields to index; stack fields first")
        fine = None if self._fine is None else self._fine[index].copy()
        return SpectralField(self.geometry, self.coeffs[index].copy(), fine)

    @property
    def samples(self) -> np.ndarray:
        """Values at the grid nodes (cached on first read; read-only)."""
        if self._samples is None:
            vals = self.geometry.inverse(self.coeffs)
            vals.flags.writeable = False
            object.__setattr__(self, "_samples", vals)
        return self._samples

    @property
    def fine_values(self) -> np.ndarray:
        """Interpolant values on the refined grid (cached on first read; read-only)."""
        if self._fine is None:
            vals = self.geometry.fine_samples(self.coeffs)
            vals.flags.writeable = False
            object.__setattr__(self, "_fine", vals)
        return self._fine

    def __repr__(self):
        g = self.geometry
        return f"SpectralField(grid={g.shape}, n={g.n_ambient})"


def _restore_field(geometry, coeffs, samples, fine) -> SpectralField:
    """The field ``SpectralField.__reduce__`` describes, caches included."""
    u = SpectralField(geometry, coeffs, fine)
    if samples is not None:
        samples.flags.writeable = False
        object.__setattr__(u, "_samples", samples)
    return u


# ----------------------------------------------------------------------
# linear spectral operators


def bilaplacian(u: SpectralField) -> SpectralField:
    """Squared laplacian: multiplier +|2 pi m|^4."""
    return u.geometry.field_from_coeffs(u.geometry.lam_sq * u.coeffs)


# ----------------------------------------------------------------------
# inner products, norms, integrals


def inner(u: SpectralField, v: SpectralField) -> float:
    """L2 inner product by Parseval on the coefficients (= the grid quadrature)."""
    u.geometry.check_same(v.geometry)
    return float(np.vdot(u.coeffs, v.coeffs).real)


def l2_norm(u: SpectralField) -> float:
    return math.sqrt(max(float(np.sum(np.abs(u.coeffs) ** 2)), 0.0))


def lp_norm(u: SpectralField, p: float) -> float:
    """L^p norm by uniform quadrature on the refined grid (p >= 1 finite)."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    vals = np.abs(u.fine_values) ** p
    return float(u.geometry.integrate_fine(vals)) ** (1.0 / p)


def lp_mass(u: SpectralField, p: float):
    """Integral of |u|^p on the refined grid (the L^p norm to the p).

    One value per field for a stack.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    return u.geometry.integrate_fine(np.abs(u.fine_values) ** p)


def grad_sq_integral(u: SpectralField) -> float:
    """Integral of |grad u|^2 via the spectral multiplier |2 pi m|^2."""
    g = u.geometry
    return float(np.sum(g.lam * np.abs(u.coeffs) ** 2))


def bilap_energy(u: SpectralField):
    """Integral of (Delta u)^2 via the multiplier |2 pi m|^4 (one value per field of a stack)."""
    g = u.geometry
    total = np.add.reduce(g.lam_sq * np.abs(u.coeffs) ** 2, axis=g._axes)
    return float(total) if total.ndim == 0 else total


def h2_norm(u: SpectralField) -> float:
    """Sobolev norm (|Delta u|_2^2 + |grad u|_2^2 + |u|_2^2)^(1/2)."""
    return math.sqrt(bilap_energy(u) + grad_sq_integral(u) + l2_norm(u) ** 2)


# ----------------------------------------------------------------------
# arithmetic helpers (fields form a vector space)


# The inputs are band-limited already, so the results skip the band mask;
# refined-grid values are carried when every input has them cached.  On a
# stack, ``alpha`` is a scalar or a sequence with one weight per field.


def _per_field(u: SpectralField, alpha):
    """A weight broadcast against the field axes (unchanged when scalar)."""
    if np.ndim(alpha) == 0:
        return alpha
    d = u.geometry.d_eff
    lead = u.coeffs.shape[: u.coeffs.ndim - d]
    return np.reshape(np.asarray(alpha, dtype=np.float64), lead + (1,) * d)


def stack(fields) -> SpectralField:
    """The fields as one stack, in order (refined values carried when all have them)."""
    g = fields[0].geometry
    for f in fields:
        g.check_same(f.geometry)
    fine = None
    if all(f._fine is not None for f in fields):
        fine = np.stack([f._fine for f in fields])
    return SpectralField(g, np.stack([f.coeffs for f in fields]), fine)


def scale(u: SpectralField, alpha) -> SpectralField:
    alpha = _per_field(u, alpha)
    fine = None if u._fine is None else alpha * u._fine
    return SpectralField(u.geometry, alpha * u.coeffs, fine)


def add(u: SpectralField, v: SpectralField, alpha=1.0) -> SpectralField:
    """u + alpha * v."""
    u.geometry.check_same(v.geometry)
    alpha = _per_field(u, alpha)
    fine = None
    if u._fine is not None and v._fine is not None:
        fine = u._fine + alpha * v._fine
    return SpectralField(u.geometry, u.coeffs + alpha * v.coeffs, fine)


def combination(fields, weights) -> SpectralField:
    """Linear combination sum_i w_i * fields[i]."""
    g = fields[0].geometry
    pairs = list(zip(fields, weights))
    out = np.zeros(g.shape, dtype=np.complex128)
    for f, w in pairs:
        g.check_same(f.geometry)
        out += w * f.coeffs
    fine = None
    if all(f._fine is not None for f, _ in pairs):
        fine = np.zeros(g.fine_shape)
        for f, w in pairs:
            fine += w * f._fine
    return SpectralField(g, out, fine)
