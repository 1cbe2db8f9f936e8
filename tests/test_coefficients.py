import numpy as np
import pytest
from oracle import field_arrays, matrix_update

from refsde.coefficients import (
    CATALOG,
    CoefficientField,
    check_linear_growth,
    check_lipschitz,
    euler_update,
    make_coefficients,
)


def field_1d(sigma_fn, drift_fn, name="test"):
    return CoefficientField(
        name=name, dim=1,
        diffusion=lambda t, x: ((sigma_fn(x[..., 0]),),),
        drift=lambda t, x: (drift_fn(x[..., 0]),),
    )


# -- linear growth -----------------------------------------------------------

def test_growth_constant_unit_diffusion():
    f = field_1d(lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
    rep = check_linear_growth(f, 1.0, samples=20_000, box_radius=10.0,
                              rng_seed=0)
    assert rep.passed and rep.max_ratio <= 1.0


def test_growth_linear_diffusion_passes_at_one():
    f = field_1d(lambda x: x, lambda x: np.zeros_like(x))
    rep = check_linear_growth(f, 1.0, samples=20_000, box_radius=10.0,
                              rng_seed=1)
    assert rep.passed  # x^2 / (1 + x^2) < 1


def test_growth_quadratic_diffusion_fails_near_edge():
    f = field_1d(lambda x: x ** 2, lambda x: np.zeros_like(x))
    rep = check_linear_growth(f, 1.0, samples=50_000, box_radius=10.0,
                              rng_seed=2)
    assert not rep.passed
    t, x = rep.violating_point
    # Direct oracle: the ratio x^4 / (1 + x^2) at the reported point
    # exceeds the constant, and the maximizer sits near the box edge.
    assert x[0] ** 4 / (1.0 + x[0] ** 2) > 1.0
    assert abs(x[0]) > 9.0
    assert rep.max_ratio == pytest.approx(
        x[0] ** 4 / (1.0 + x[0] ** 2), rel=1e-12)


def test_growth_rejects_nonfinite_output():
    f = field_1d(lambda x: np.where(np.abs(x) > 5, np.inf, 1.0),
                 lambda x: np.zeros_like(x))
    with pytest.raises(ValueError, match="non-finite"):
        check_linear_growth(f, 1.0, samples=1000, box_radius=10.0, rng_seed=0)


# -- Lipschitz ----------------------------------------------------------------

def test_lipschitz_sine_passes_at_one():
    f = field_1d(np.sin, lambda x: np.zeros_like(x))
    rep = check_lipschitz(f, 1.0, samples=20_000, box_radius=10.0, rng_seed=3)
    assert rep.passed


def test_lipschitz_sign_fails():
    # The sup quotient is infinite; the sampled check certifies failure up
    # to the pair resolution it can actually find.
    f = field_1d(np.sign, lambda x: np.zeros_like(x))
    rep = check_lipschitz(f, 1000.0, samples=50_000, box_radius=10.0,
                          rng_seed=4)
    assert not rep.passed
    t, x, y = rep.violating_pair
    assert x[0] * y[0] <= 0  # pair straddles the discontinuity at zero


def test_lipschitz_linear_pair_exact_quotient():
    f = field_1d(lambda x: 2.0 * x, lambda x: x)
    rep = check_lipschitz(f, 5.0, samples=20_000, box_radius=10.0, rng_seed=5)
    assert rep.passed
    assert rep.max_quotient == pytest.approx(5.0, rel=1e-9)


# -- catalog ------------------------------------------------------------------

def test_catalog_names_and_dims():
    assert set(CATALOG) == {"ou1d", "gbm-box", "quadrant2d", "schmidt1d"}
    for name in CATALOG:
        field = make_coefficients(name)
        assert field.name == name
        # d rows of d entries and d drift entries, each a float or an array
        # that broadcasts against x[..., 0].
        x = np.ones((3, 5, field.dim))
        sigma, drift = field.diffusion(0.0, x), field.drift(0.0, x)
        assert len(sigma) == len(drift) == field.dim
        for entry in drift + sum(sigma, ()):
            assert isinstance(entry, (float, np.ndarray))
            assert np.broadcast_shapes(np.shape(entry), (3, 5)) == (3, 5)
        assert all(len(row) == field.dim for row in sigma)
        assert field.growth_constant is not None


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_growth_with_declared_constant(name):
    field = make_coefficients(name)
    rep = check_linear_growth(field, field.growth_constant, samples=100_000,
                              box_radius=10.0, rng_seed=6)
    assert rep.passed, rep


@pytest.mark.parametrize(
    "name", sorted(n for n in CATALOG
                   if make_coefficients(n).lipschitz_constant is not None))
def test_catalog_lipschitz_with_declared_constant(name):
    field = make_coefficients(name)
    rep = check_lipschitz(field, field.lipschitz_constant, samples=100_000,
                          box_radius=10.0, rng_seed=7)
    assert rep.passed, rep


def test_schmidt_is_discontinuous():
    field = make_coefficients("schmidt1d")
    assert field.lipschitz_constant is None
    rep = check_lipschitz(field, 1000.0, samples=100_000, box_radius=10.0,
                          rng_seed=8)
    assert not rep.passed
    t, x, y = rep.violating_pair
    assert (x[0] - 1.0) * (y[0] - 1.0) <= 0  # straddles the jump


def test_schmidt_levels():
    field = make_coefficients("schmidt1d")
    x = np.array([[0.5], [1.0], [1.5]])
    ((sig,),) = field.diffusion(0.0, x)
    np.testing.assert_array_equal(sig, [1.0, 2.0, 2.0])
    # The drift is the constant entry 0.0, which broadcasts.
    assert field.drift(0.0, x) == (0.0,)


def test_schmidt_drift_is_one_shared_read_only_zero():
    field = make_coefficients("schmidt1d")
    a = field.drift(0.0, np.zeros((5, 1)))
    b = field.drift(0.7, np.ones((2, 3, 1)))
    # An immutable float entry: no array is allocated per call.
    assert a == b == (0.0,) and type(a[0]) is float
    assert check_linear_growth(field, field.growth_constant).passed
    # Adding h * 0.0 gives the bits of adding a zero array, -0.0 sums too.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 7, 1))
    dw = rng.standard_normal((4, 7, 1))
    x[0], dw[0] = -0.0, -0.0
    sigma = field.diffusion(0.0, x)[0][0][..., None]
    want = x + sigma * dw + 0.01 * np.zeros_like(x)
    got = euler_update(field, 0.0, x, dw, 0.01, base=x)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# Each entry's parameters and defaults, as its builder's signature states.
CATALOG_PARAMETERS = {
    "ou1d": {"kappa": 1.0, "sigma0": 1.0},
    "gbm-box": {"mu": 0.05, "sigma0": 0.3, "cap": 10.0},
    "quadrant2d": {"amplitude": 0.1, "drift_scale": 0.5},
    "schmidt1d": {"sigma_low": 1.0, "sigma_high": 2.0, "threshold": 1.0},
}


def evaluate(field):
    """Diffusion and drift on a fixed spread of points, full shape."""
    x = np.linspace(-30.0, 30.0, 61 * field.dim).reshape(61, field.dim)
    return field_arrays(field, 0.0, x)


def test_catalog_parameter_overrides():
    assert set(CATALOG) == set(CATALOG_PARAMETERS)
    for name, params in CATALOG_PARAMETERS.items():
        default = make_coefficients(name)
        with pytest.raises(ValueError, match="unknown parameters"):
            make_coefficients(name, theta=1.0)
        for key, value in params.items():
            # The stated default gives the default field, and another value
            # reaches the callables.
            same = make_coefficients(name, **{key: value})
            assert (same.growth_constant, same.lipschitz_constant) \
                == (default.growth_constant, default.lipschitz_constant)
            for a, b in zip(evaluate(same), evaluate(default)):
                np.testing.assert_array_equal(a, b)
            other = evaluate(make_coefficients(name, **{key: 4.0 * value}))
            assert any(np.any(a != b)
                       for a, b in zip(other, evaluate(default))), (name, key)
    field = make_coefficients("ou1d", kappa=2.0)
    assert field.lipschitz_constant == 4.0
    with pytest.raises(ValueError, match="unknown coefficient"):
        make_coefficients("bm3d")


# A failing probe's maximum and witness, bit for bit, at the default
# samples and box: (name, constant, seed, maximum, t, x) for growth and
# (..., t, x, y) for Lipschitz. They pin the order of the random draws.
FAILING_GROWTH = [
    ("quadrant2d", 1.0, 5, "0x1.254cbd1305303p+1", "0x1.b9cce15f58420p-5",
     ["0x1.ccb47dca8f380p-3", "0x1.6dd9954b48780p-3"]),
    ("gbm-box", 0.05, 5, "0x1.78f9a5f4c5da3p-4", "0x1.f2c8886086c71p-1",
     ["0x1.3f3183c108d46p+3", "0x1.3d72408a9b308p+3"]),
]
FAILING_LIPSCHITZ = [
    ("schmidt1d", 1000.0, 5, "0x1.f7f8ec9622e55p+26", "0x1.b03f0cf1986aap-1",
     ["0x1.fff93fd500050p-1"], ["0x1.0002538f0b896p+0"]),
    ("quadrant2d", 0.05, 5, "0x1.fff34803e9fd3p-3", "0x1.8891da151c980p-2",
     ["0x1.01ce39e5696e2p+3", "-0x1.2d0a5a73ac57fp+2"],
     ["0x1.01ce36f57bcb5p+3", "-0x1.2d09738339f0cp+2"]),
]


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name, constant, seed, top, t, x", FAILING_GROWTH)
def test_failing_growth_witness_bits_are_pinned(name, constant, seed, top, t,
                                                x):
    rep = check_linear_growth(make_coefficients(name), constant,
                              rng_seed=seed)
    assert not rep.passed and rep.max_ratio.hex() == top
    assert (rep.constant, rep.box_radius, rep.samples) == (constant, 10.0,
                                                           10_000)
    assert rep.violating_point[0].hex() == t
    assert hexes(rep.violating_point[1]) == x


@pytest.mark.parametrize("name, constant, seed, top, t, x, y",
                         FAILING_LIPSCHITZ)
def test_failing_lipschitz_witness_bits_are_pinned(name, constant, seed, top,
                                                   t, x, y):
    rep = check_lipschitz(make_coefficients(name), constant, rng_seed=seed)
    assert not rep.passed and rep.max_quotient.hex() == top
    assert (rep.constant, rep.box_radius, rep.samples) == (constant, 10.0,
                                                           10_000)
    assert rep.violating_pair[0].hex() == t
    assert hexes(rep.violating_pair[1]) == x
    assert hexes(rep.violating_pair[2]) == y


def test_diagnostics_validate_inputs():
    f = make_coefficients("ou1d")
    with pytest.raises(ValueError, match="nonnegative"):
        check_linear_growth(f, -1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        check_lipschitz(f, -1.0)
    with pytest.raises(ValueError):
        check_lipschitz(f, 1.0, samples=0)


def test_lipschitz_skips_sampled_times_without_a_kept_pair():
    # With 16 samples each time has one pair, a 1e-5 perturbation, which is
    # dropped when its normal is below 0.1 in size: 144 of these 200 seeds
    # have such a time. It is skipped, and ou1d's quotient is exactly 1.
    f = make_coefficients("ou1d")
    for seed in range(200):
        rep = check_lipschitz(f, 1.0, samples=16, rng_seed=seed)
        assert rep.passed and rep.max_quotient == 1.0
    # Only when every pair is closer than the 1e-6 * box_radius floor (here
    # the floor and the gaps both underflow to 0) is there nothing to report.
    with pytest.raises(ValueError, match=r"1e-6 \* box_radius floor"):
        check_lipschitz(f, 1.0, samples=1, box_radius=1e-200)


def test_diagnostics_accept_a_constant_of_zero():
    # Constant coefficients: the quotients are all 0, and so is the constant.
    assert check_lipschitz(make_coefficients("ou1d", kappa=0), 0.0).passed
    field = make_coefficients("gbm-box", mu=0.0, sigma0=0.0)
    assert field.growth_constant == field.lipschitz_constant == 0.0
    assert check_linear_growth(field, 0.0).max_ratio == 0.0
    assert check_lipschitz(field, 0.0).passed
    rep = check_linear_growth(make_coefficients("ou1d"), 0.0)
    assert not rep.passed and rep.violating_point is not None


# -- Euler update -------------------------------------------------------------

def _states(rng, shape):
    """Normal states with +0.0, -0.0, the schmidt1d threshold 1.0 and the
    gbm-box caps +-10.0 planted among them."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    for value in (0.0, -0.0, 1.0, 10.0, -10.0):
        flat[rng.integers(0, flat.size, flat.size // 8)] = value
    return x


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_euler_update_matches_matrix_expression_bitwise(name):
    # The per-coordinate sums against the broadcast matrix expression on the
    # matrix assembled from the same entries, with and without a base: the
    # sweep's (L, P, d) states with (P, d) increments, the reference's (P, d)
    # batch, and (d,) points as the per-path kernels step them.
    field = make_coefficients(name)
    d = field.dim
    rng = np.random.default_rng(len(name))
    x, dw = _states(rng, (9, 400, d)), _states(rng, (400, d)) * 0.03
    cases = [(x, dw), (x[0], dw)] + list(zip(x[1, :40], dw[:40]))
    for x, dw in cases:
        for base in (None, x):
            got = euler_update(field, 0.3, x, dw, 2.0 ** -12, base=base)
            want = matrix_update(field, 0.3, x, dw, 2.0 ** -12, base=base)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (x.shape, base is None)


def test_euler_update_is_a_view_for_one_coordinate():
    field = make_coefficients("ou1d")
    x = np.ones((3, 4, 1))
    got = euler_update(field, 0.0, x, np.ones((4, 1)), 0.5, base=x)
    assert got.shape == (3, 4, 1) and got.base is not None


def test_euler_update_broadcasts_a_drift_wider_than_the_noise():
    # Constant entries: without a base, sigma dW has the increments' (400,)
    # shape and the drift the states' (9, 400), so the result takes the
    # broadcast of the two, as the matrix expression does.
    field = CoefficientField(
        name="constant-noise", dim=2,
        diffusion=lambda t, x: ((1.0, 0.5), (0.0, 2.0)),
        drift=lambda t, x: (-x[..., 0], 0.25 * x[..., 1]))
    rng = np.random.default_rng(5)
    x, dw = rng.standard_normal((9, 400, 2)), rng.standard_normal((400, 2))
    for base in (None, x):
        got = euler_update(field, 0.0, x, dw, 2.0 ** -8, base=base)
        want = matrix_update(field, 0.0, x, dw, 2.0 ** -8, base=base)
        assert got.shape == want.shape == (9, 400, 2)
        assert got.tobytes() == want.tobytes()
