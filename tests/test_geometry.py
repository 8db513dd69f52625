import copy
import math
import pickle

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm import geometry as geo
from biharm.errors import GeometryMismatch
from biharm.geometry import TorusGeometry
from conftest import hessian_sq_integral, laplacian

TWO_PI = 2.0 * math.pi


def test_constructor_validation():
    with pytest.raises(ValueError):
        TorusGeometry(4, 1, 64)
    with pytest.raises(ValueError):
        TorusGeometry(6, 3, 64)
    with pytest.raises(ValueError):
        TorusGeometry(6, 1, 100)


def test_quadrature_weight_sums_to_one(geom64, geom2d):
    for g in (geom64, geom2d):
        assert g.weight * g.size == 1.0
        assert g.fine_weight * g.fine_size**g.d_eff == 1.0


def test_critical_exponent(geom64, geom2d):
    assert geom64.critical_exponent == pytest.approx(6.0)
    assert geom2d.critical_exponent == pytest.approx(14.0 / 3.0)


@pytest.mark.parametrize("gfix", ["geom64", "geom128", "geom2d"])
def test_roundtrip_and_parseval(gfix, request, rng):
    g = request.getfixturevalue(gfix)
    for _ in range(5):
        u = g.random_smooth(rng)
        u2 = g.field(u.samples.copy())
        scale = np.max(np.abs(u.samples))
        assert np.max(np.abs(u2.samples - u.samples)) <= 1e-12 * scale
        spec = float(np.sum(np.abs(u.coeffs) ** 2))
        quad = g.weight * float(np.sum(u.samples**2))
        assert spec == pytest.approx(quad, rel=1e-12)


def test_conjugate_symmetry(geom64, rng):
    u = geom64.random_smooth(rng)
    c = u.coeffs
    # mode -m must be the conjugate of mode +m
    for m in (1, 5, 20):
        assert c[m] == pytest.approx(np.conj(c[-m]), rel=1e-12)
    assert abs(c[geom64.grid_size // 2]) == 0.0  # Nyquist projected out


def test_field_immutable(geom64):
    u = geom64.constant(1.0)
    with pytest.raises(ValueError):
        u.samples[0] = 2.0
    with pytest.raises(AttributeError):
        u.samples = None


def test_laplacian_of_constant_is_zero(geom64):
    u = geom64.constant(3.7)
    assert np.max(np.abs(laplacian(u).samples)) == 0.0
    assert np.max(np.abs(geo.bilaplacian(u).samples)) == 0.0


def test_laplacian_single_mode(geom64):
    x = geom64.coordinates()[0]
    u = geom64.field(np.sin(TWO_PI * x))
    lu = laplacian(u)
    assert np.allclose(lu.samples, TWO_PI**2 * u.samples, atol=1e-10)
    blu = geo.bilaplacian(u)
    assert np.allclose(blu.samples, TWO_PI**4 * u.samples, atol=1e-7)


def test_bilaplacian_is_laplacian_squared(geom64, rng):
    u = geom64.random_smooth(rng)
    a = geo.bilaplacian(u)
    b = laplacian(laplacian(u))
    scale = np.max(np.abs(a.samples))
    assert np.max(np.abs(a.samples - b.samples)) <= 1e-12 * scale


def test_integration_by_parts_and_selfadjointness(geom64, rng):
    for _ in range(20):
        u = geom64.random_smooth(rng)
        v = geom64.random_smooth(rng)
        gs = geo.grad_sq_integral(u)
        assert geo.inner(laplacian(u), u) == pytest.approx(gs, rel=1e-10)
        assert geo.inner(laplacian(u), v) == pytest.approx(
            geo.inner(u, laplacian(v)), rel=1e-10, abs=1e-12
        )
        assert geo.inner(geo.bilaplacian(u), v) == pytest.approx(
            geo.inner(laplacian(u), laplacian(v)), rel=1e-10, abs=1e-12
        )


def test_hessian_energy_equals_bilap_energy(geom64, geom2d, rng):
    # flat torus: no Ricci term, so the Bochner identity is an equality
    for g in (geom64, geom2d):
        for _ in range(5):
            u = g.random_smooth(rng)
            assert hessian_sq_integral(u) == pytest.approx(
                geo.bilap_energy(u), rel=1e-10
            )


def _div_a_grad(a, u):
    """sum_i d_i(a d_i u) as a field, from the kernel's divergence helper."""
    g = u.geometry
    return g.field_from_coeffs(g.div_a_grad_coeffs(a.fine_values, u.coeffs))


def test_div_a_grad_constant_coefficient(geom64):
    x = geom64.coordinates()[0]
    u = geom64.field(np.sin(TWO_PI * x))
    one = geom64.constant(1.0)
    d = _div_a_grad(one, u)
    assert np.allclose(d.samples, -(TWO_PI**2) * u.samples, atol=1e-10)
    zero = geom64.constant(0.0)
    assert np.max(np.abs(_div_a_grad(zero, u).samples)) == 0.0


def test_div_a_grad_variable_pairing(geom64, rng):
    x = geom64.coordinates()[0]
    a = geom64.field(1.0 + 0.5 * np.cos(TWO_PI * x))
    for _ in range(5):
        u = geom64.random_smooth(rng)
        v = geom64.random_smooth(rng)
        lhs = geo.inner(_div_a_grad(a, u), v)
        du = geom64.grad_fine_samples(u.coeffs)
        dv = geom64.grad_fine_samples(v.coeffs)
        rhs = -geom64.integrate_fine(a.fine_values * du[0] * dv[0])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


def test_div_a_grad_2d(geom2d, rng):
    a = geom2d.random_smooth(rng, decay=3.0)
    a = geo.add(geom2d.constant(2.0), a)
    u = geom2d.random_smooth(rng)
    v = geom2d.random_smooth(rng)
    lhs = geo.inner(_div_a_grad(a, u), v)
    du = geom2d.grad_fine_samples(u.coeffs)
    dv = geom2d.grad_fine_samples(v.coeffs)
    rhs = -sum(
        geom2d.integrate_fine(a.fine_values * du[i] * dv[i]) for i in range(2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_norms(geom64):
    x = geom64.coordinates()[0]
    one = geom64.constant(1.0)
    for p in (1.0, 2.0, 2.5, 6.0):
        assert geo.lp_norm(one, p) == pytest.approx(1.0, rel=1e-14)
    s = geom64.field(math.sqrt(2.0) * np.sin(TWO_PI * x))
    assert geo.lp_norm(s, 2.0) ** 2 == pytest.approx(1.0, rel=1e-12)
    assert geo.grad_sq_integral(geom64.field(np.sin(TWO_PI * x))) == pytest.approx(
        TWO_PI**2 / 2.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        geo.lp_norm(one, 0.5)
    with pytest.raises(ValueError):
        geo.lp_norm(one, math.inf)


def test_geometry_mismatch_raises(geom64, geom128):
    u = geom64.constant(1.0)
    v = geom128.constant(1.0)
    with pytest.raises(GeometryMismatch):
        geo.inner(u, v)
    with pytest.raises(GeometryMismatch):
        geo.add(u, v)


def test_discrete_interpolation_inequality_on_lattice(geom64):
    # every lattice frequency lam satisfies lam <= 2 s lam^2 + 2 C(s)
    from biharm.certifier import grad_interp_constant

    for sigma in (0.01, 0.05, 0.5):
        C = grad_interp_constant(sigma, geom64)
        lam = geom64.lam.ravel()
        assert np.all(lam <= 2.0 * sigma * lam**2 + 2.0 * C + 1e-9)


def test_product_projection_exactness(geom64, rng):
    # band projection of a product matches the exact coefficient convolution
    u = geom64.random_smooth(rng, decay=3.0)
    v = geom64.random_smooth(rng, decay=3.0)
    w = geom64.fine_to_field(u.fine_values * v.fine_values)
    # compare against direct convolution of the coefficient sequences:
    # fftshifted position i maps to mode i - M/2, so the full convolution
    # index k carries the mode sum k - M, putting the zero mode at k = M
    M = geom64.grid_size
    cu = np.fft.fftshift(u.coeffs)
    cv = np.fft.fftshift(v.coeffs)
    conv = np.convolve(cu, cv, mode="full")
    want = conv[M - (M // 2 - 1) : M + M // 2]
    got = np.fft.fftshift(w.coeffs)[1:]
    assert np.allclose(got, want, atol=1e-13 * max(1.0, float(np.abs(want).max())))


# ----------------------------------------------------------------------
# transforms: numpy's pocketfft kernel, one call per field axis, pinned to scipy.fft


@pytest.mark.parametrize("d_eff, M", [(1, 64), (1, 128), (2, 16), (2, 32)])
def test_transforms_equal_scipy_fft_bitwise(d_eff, M):
    """``forward``/``inverse`` equal ``scipy.fft.fftn``/``ifftn`` bit for bit.

    They call numpy's private pocketfft gufuncs, one pass per field axis;
    if a numpy release moves or changes that kernel, this fails instead
    of every result drifting.  Native and refined grids; a field, stacks
    and the gradient components of a stack; every input the package
    passes: real or complex samples to ``forward``, complex coefficients
    to ``inverse``.
    """
    g = TorusGeometry(6, d_eff, M)
    rng = np.random.default_rng(M)
    for grid in (g.shape, g.fine_shape):
        for lead in ((), (3,), (5,), (d_eff, 2)):
            x = rng.standard_normal(lead + grid)
            z = x + 1j * rng.standard_normal(x.shape)
            for values in (x, z):
                got = g.forward(values)
                want = scipy.fft.fftn(
                    np.asarray(values, np.complex128), axes=g._axes, norm="forward"
                )
                assert got.dtype == want.dtype and np.array_equal(got, want)
            got = g.inverse(z)
            want = scipy.fft.ifftn(z, axes=g._axes, norm="forward").real
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.flags.c_contiguous


@pytest.mark.parametrize("d, grid", [(1, 64), (2, 8)], ids=["1d-64", "2d-8"])
def test_band_basis_spans_the_real_band_fields(d, grid):
    # the Morse index is counted over these rows: (M - 1)^d orthonormal
    # real fields with no Nyquist component
    g = TorusGeometry(6 + d - 1, d, grid)
    c = g.from_band(np.eye(g.band_size))
    basis = c.reshape(len(c), -1)
    assert basis.shape == ((grid - 1) ** d, g.size)
    assert np.abs(basis.conj() @ basis.T - np.eye(len(basis))).max() <= 1e-15
    assert not np.any(basis[:, ~g.band_mask.ravel()])
    # real fields: c[-m] = conj(c[m]) in every row
    axes = tuple(range(1, d + 1))
    assert np.array_equal(np.conj(np.roll(np.flip(c, axis=axes), 1, axis=axes)), c)
    # to_band inverts from_band and discards anti-Hermitian and Nyquist parts
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (3, g.band_size))
    assert np.abs(g.to_band(g.from_band(x)) - x).max() <= 1e-15
    anti = 1j * g.from_band(x)
    anti[:, ~g.band_mask] = rng.standard_normal((3, g.size - g.band_size))
    assert not np.any(g.to_band(anti))
    # a stack maps row by row, bit for bit
    coeffs = g.forward(rng.standard_normal((3,) + g.shape)) + 1j * g.from_band(x)
    for i in range(3):
        assert np.array_equal(g.from_band(x)[i], g.from_band(x[i]))
        assert np.array_equal(g.to_band(coeffs)[i], g.to_band(coeffs[i]))


# ----------------------------------------------------------------------
# lazy values: transformed on first read, carried through linear ops

PROPERTY = settings(max_examples=20, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
WEIGHTS = st.tuples(st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0])).map(
    lambda t: t[0] * t[1]
)
GEOMS = pytest.mark.parametrize("dim", [1, 2])


def _geom(dim, geom64, geom2d):
    return geom64 if dim == 1 else geom2d


def _cached_fields(g, seed, n):
    rng = np.random.default_rng(seed)
    fields = [g.random_smooth(rng, decay=2.5) for _ in range(n)]
    for f in fields:
        f.fine_values
    return fields


def _assert_carried(w):
    """Carried fine values equal a fresh transform of the coefficients."""
    g = w.geometry
    carried = w.fine_values
    fresh = g.fine_samples(np.array(w.coeffs))
    assert not carried.flags.writeable
    assert np.max(np.abs(carried - fresh)) <= 1e-13 * np.max(np.abs(fresh))


@GEOMS
@PROPERTY
@given(seed=SEEDS, alpha=WEIGHTS, beta=WEIGHTS)
def test_linear_ops_carry_fine_values(dim, geom64, geom2d, seed, alpha, beta):
    g = _geom(dim, geom64, geom2d)
    u, v, w = _cached_fields(g, seed, 3)
    _assert_carried(geo.scale(u, alpha))
    _assert_carried(geo.add(u, v, alpha))
    _assert_carried(geo.combination([u, v, w], [alpha, beta, 1.0]))


@GEOMS
@PROPERTY
@given(seed=SEEDS)
def test_parseval_inner_matches_sample_quadrature(dim, geom64, geom2d, seed):
    g = _geom(dim, geom64, geom2d)
    rng = np.random.default_rng(seed)
    u, v = g.random_smooth(rng), g.random_smooth(rng, decay=3.0)
    quad = g.weight * float(np.sum(u.samples * v.samples))
    bound = 1e-13 * geo.l2_norm(u) * geo.l2_norm(v)
    assert abs(geo.inner(u, v) - quad) <= bound
    assert geo.inner(u, u) == pytest.approx(geo.l2_norm(u) ** 2, rel=1e-13)


@GEOMS
def test_lazy_values_are_read_only_and_cached(dim, geom64, geom2d):
    g = _geom(dim, geom64, geom2d)
    u = g.random_smooth(np.random.default_rng(7))
    for name in ("samples", "fine_values"):
        vals = getattr(u, name)
        assert getattr(u, name) is vals        # idempotent: computed once
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[(0,) * dim] = 1.0
        with pytest.raises(AttributeError):
            setattr(u, name, vals.copy())
    with pytest.raises(AttributeError):
        u.coeffs = np.zeros(g.shape, dtype=complex)
    assert not u.coeffs.flags.writeable


@GEOMS
def test_construction_and_linear_ops_make_no_transform(dim, geom64, geom2d, monkeypatch):
    g = _geom(dim, geom64, geom2d)
    cached = _cached_fields(g, 11, 2)
    plain = [g.field_from_coeffs(f.coeffs) for f in cached]
    calls = []
    real = geo.TorusGeometry._transform

    def counting(self, kernel, *args):
        calls.append("fftn" if kernel is geo._fft else "ifftn")   # the numpy.fft name
        return real(self, kernel, *args)

    monkeypatch.setattr(geo.TorusGeometry, "_transform", counting)
    for u, v in (cached, plain):
        g.field_from_coeffs(u.coeffs)
        geo.scale(u, 2.0)
        geo.add(u, v, -0.5)
        geo.combination([u, v], [0.25, 3.0])
        geo.inner(u, v)
        geo.l2_norm(u)
    assert calls == []
    # the counter sees a read: one transform, then the cache
    u = plain[0]
    u.samples, u.samples
    u.fine_values, u.fine_values
    assert calls == ["ifftn", "ifftn"]


# ----------------------------------------------------------------------
# stacks: every field of a stack gets the arithmetic it gets alone


@GEOMS
@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 5), alphas=st.lists(WEIGHTS, min_size=5, max_size=5))
def test_stack_rows_match_single_fields_bitwise(dim, geom64, geom2d, seed, n, alphas):
    g = _geom(dim, geom64, geom2d)
    rng = np.random.default_rng(seed)
    fields = [g.random_smooth(rng, decay=2.5) for _ in range(n)]
    others = [g.random_smooth(rng) for _ in range(n)]
    a_fine = g.random_smooth(rng).fine_values
    weights = alphas[:n]
    u = geo.stack([g.field_from_coeffs(f.coeffs) for f in fields])   # nothing cached
    v = geo.stack(others)
    fine = u.fine_values
    scaled = geo.scale(u, weights)
    summed = geo.add(u, v, weights)
    masses = geo.lp_mass(u, 3.3)
    projected = g.fine_to_coeffs(fine * fine)
    div = g.div_a_grad_coeffs(a_fine, u.coeffs)
    assert u.coeffs.shape == (n,) + g.shape and fine.shape == (n,) + g.fine_shape
    for i, (f, w) in enumerate(zip(fields, weights)):
        assert np.array_equal(u.samples[i], f.samples)
        assert np.array_equal(fine[i], f.fine_values)
        assert np.array_equal(g.forward(u.samples)[i], g.forward(f.samples))
        assert np.array_equal(projected[i], g.fine_to_coeffs(f.fine_values * f.fine_values))
        assert np.array_equal(div[i], g.div_a_grad_coeffs(a_fine, f.coeffs))
        assert masses[i] == geo.lp_mass(f, 3.3)
        assert g.integrate_fine(fine)[i] == g.integrate_fine(f.fine_values)
        for got, want in (
            (scaled, geo.scale(f, w)),
            (summed, geo.add(f, others[i], w)),
        ):
            assert np.array_equal(got.coeffs[i], want.coeffs)
            assert np.array_equal(got.fine_values[i], want.fine_values)


@GEOMS
@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 4))
def test_divergence_halves_compose_to_the_per_component_assembly(dim, geom64, geom2d, seed, n):
    # reference: one transform pair per component, accumulated in component order
    g = _geom(dim, geom64, geom2d)
    rng = np.random.default_rng(seed)
    u = geo.stack([g.random_smooth(rng, decay=2.5) for _ in range(n)])
    a_fine = g.random_smooth(rng).fine_values
    du = g.grad_fine_samples(u.coeffs)
    assert du.shape == (g.d_eff, n) + g.fine_shape
    want = np.zeros(u.coeffs.shape, dtype=np.complex128)
    for i, d in enumerate(g.deriv_mult):
        du_i = g.fine_samples(d * u.coeffs)
        assert np.array_equal(du[i], du_i)
        want += d * g.fine_to_coeffs(a_fine * du_i)
    assert np.array_equal(g.div_from_grad_samples(a_fine, du), want)
    assert np.array_equal(g.div_a_grad_coeffs(a_fine, u.coeffs), want)


@GEOMS
def test_stack_rows_are_fields_of_their_own(dim, geom64, geom2d, monkeypatch):
    g = _geom(dim, geom64, geom2d)
    fields = _cached_fields(g, 5, 3)
    calls = []
    real = geo.TorusGeometry._transform
    monkeypatch.setattr(geo.TorusGeometry, "_transform", lambda *a: calls.append(1) or real(*a))
    u = geo.stack(fields)
    first = u[0]
    assert first.coeffs.shape == g.shape and first.coeffs.base is None
    assert np.array_equal(first.fine_values, fields[0].fine_values)
    assert calls == []                       # carried, not transformed
    sub = u[[2, 0]]
    assert np.array_equal(sub.coeffs[0], fields[2].coeffs)
    geo.stack([g.field_from_coeffs(f.coeffs) for f in fields]).fine_values
    assert calls == [1]                      # one transform for the stack
    with pytest.raises(GeometryMismatch):
        g.field_from_coeffs(np.zeros((2, 2) + g.shape))
    samples = np.stack([f.samples for f in fields])
    from_samples = g.field(samples)
    for i, f in enumerate(fields):
        assert np.array_equal(from_samples.coeffs[i], g.field(samples[i]).coeffs)
    with pytest.raises(GeometryMismatch):
        g.field(np.zeros((2, 2) + g.shape))
    with pytest.raises(TypeError):
        fields[0][0]


# ----------------------------------------------------------------------
# pickle and deepcopy: the certifier's worker processes receive the problem by pickle


def _pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def _same_bits(u, v):
    return all(
        a.tobytes() == b.tobytes() and a.shape == b.shape
        for a, b in ((u.coeffs, v.coeffs), (u.samples, v.samples), (u.fine_values, v.fine_values))
    )


@pytest.mark.parametrize("duplicate", [_pickle_round_trip, copy.deepcopy], ids=["pickle", "deepcopy"])
def test_fields_and_problems_survive_pickle_and_deepcopy(duplicate, geom64, toy64):
    rng = np.random.default_rng(5)
    u, v = geom64.random_smooth(rng), geom64.random_smooth(rng)
    u.fine_values, v.fine_values
    mixed = geo.add(geo.scale(u, 0.7), v, -0.3)     # refined values carried by arithmetic
    assert mixed._fine is not None and mixed._samples is None
    stacked = geo.stack([u, mixed, v])
    for w in (u, mixed, stacked):
        twin = duplicate(w)
        assert twin.geometry.compatible(w.geometry)
        # the carried refined values travel as they are, not re-transformed
        assert twin._fine.tobytes() == w._fine.tobytes()
        assert (twin._samples is None) == (w._samples is None)
        assert _same_bits(twin, w)
        for arr in (twin.coeffs, twin.samples, twin.fine_values):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError):
            twin.coeffs = w.coeffs

    twin = duplicate(toy64)
    for name in ("a", "h", "f"):
        assert _same_bits(getattr(twin, name), getattr(toy64, name))
    for name, value in vars(toy64).items():
        if isinstance(value, np.ndarray):
            assert getattr(twin, name).tobytes() == value.tobytes(), name
        elif isinstance(value, (float, bool, dict)):
            assert getattr(twin, name) == value, name
