import json
import math

import numpy as np
import pytest

from paulidyn.channel import (apply, channel_from_probabilities, weyl_channel_apply,
                              weyl_channel_from_pauli)
from paulidyn.dynamics import build_trajectory, check_blp, evolve_operator, generator_apply
from paulidyn.errors import DimensionError, InvalidInputError, NonHermitianError
from paulidyn.linalg import (
    KrausMap,
    complex_pairs,
    dagger,
    frobenius_norm,
    hermitian_check,
    matrices_close,
    min_eigenvalue_hermitian,
    random_complex_matrix,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
    random_unitary,
    trace_norm,
)
from paulidyn.mub import decoherence_channel, dephase_all, mub_family, weyl_basis
from paulidyn.ratefn import preset_rates
from tests.conftest import PAULI


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_sigma_z(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_nilpotent(self):
        # hand SVD: X^dag X = diag(0, 4), so the only singular value is 2
        x = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert trace_norm(x) == pytest.approx(2.0, abs=1e-13)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            trace_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            trace_norm(np.zeros((2, 3)))


class TestFrobeniusNorm:
    def test_identity_d3(self):
        assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_sigma_x(self):
        assert frobenius_norm(PAULI[1]) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_zero(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0


class TestMinEigenvalue:
    def test_diag(self):
        assert min_eigenvalue_hermitian(np.diag([1.0, -1.0])) == pytest.approx(-1.0, abs=1e-14)

    def test_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert min_eigenvalue_hermitian(p) == pytest.approx(0.0, abs=1e-14)

    def test_shifted_sigma_x(self):
        # eigenvalues (1 +/- 0.6)/2 by hand
        x = 0.5 * (np.eye(2) + 0.6 * PAULI[1])
        assert min_eigenvalue_hermitian(x) == pytest.approx(0.2, abs=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            min_eigenvalue_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRingOps:
    def test_sigma_x_squares_to_identity(self):
        assert matrices_close(PAULI[1] @ PAULI[1], np.eye(2))

    def test_adjoint_of_i_sigma_y(self):
        assert matrices_close(dagger(1j * PAULI[2]), -1j * PAULI[2])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_weyl_01_unitary(self, d):
        w = weyl_basis(d).op(0, 1)
        assert matrices_close(dagger(w) @ w, np.eye(d))

    def test_matrices_close_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matrices_close(np.eye(2), np.eye(3))


def test_hermitian_check_roundtrip(rng):
    h = random_hermitian(4, rng)
    res = hermitian_check(h)
    assert res.is_hermitian and res.max_deviation <= 1e-12
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-6
    res2 = hermitian_check(h + skew)
    assert not res2.is_hermitian
    assert res2.max_deviation == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_norm_ordering_random(d, rng):
    for _ in range(50):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tn = trace_norm(x)
        fn = frobenius_norm(x)
        assert tn >= fn - 1e-12
        assert fn >= 0.0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_trace_norm_unitary_invariance(d, rng):
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = random_unitary(d, rng)
        v = random_unitary(d, rng)
        assert trace_norm(u @ x @ v) == pytest.approx(trace_norm(x), rel=1e-11, abs=1e-11)


def test_min_eig_matches_quadratic_forms(rng):
    for _ in range(20):
        h = random_hermitian(3, rng)
        lo = min_eigenvalue_hermitian(h)
        forms = []
        for _ in range(200):
            psi = random_pure_state(3, rng)
            forms.append((psi.conj() @ h @ psi).real)
        assert (lo >= -1e-12) == all(f >= -1e-10 for f in forms)
        assert min(forms) >= lo - 1e-12


SAMPLERS = [random_complex_matrix, random_hermitian, random_pure_state, random_density_matrix]


@pytest.mark.parametrize("d", [2, 3, 5, 13])
@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
def test_stacked_draw_equals_single_calls(sampler, d):
    single, stacked = np.random.default_rng(11), np.random.default_rng(11)
    expected = np.stack([sampler(d, single) for _ in range(40)])
    assert sampler(d, stacked, 40).tobytes() == expected.tobytes()
    assert stacked.random() == single.random()  # both streams left at the same place


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_single_draws_match_the_textbook_formulas(d):
    ref, rng = np.random.default_rng(5), np.random.default_rng(5)

    def ginibre():
        return ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))

    assert random_complex_matrix(d, rng).tobytes() == ginibre().tobytes()
    g = ginibre()
    assert random_hermitian(d, rng).tobytes() == (0.5 * (g + g.conj().T)).tobytes()
    v = ref.standard_normal(d) + 1j * ref.standard_normal(d)
    assert random_pure_state(d, rng).tobytes() == (v / np.linalg.norm(v)).tobytes()
    g = ginibre()
    rho = g @ g.conj().T
    assert random_density_matrix(d, rng).tobytes() == (rho / np.trace(rho).real).tobytes()


def test_random_density_matrix_properties(rng):
    rho = random_density_matrix(3, rng)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue_hermitian(rho) >= -1e-12


def test_kraus_map_apply(rng):
    # dephasing in the computational basis kills off-diagonals
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    m = KrausMap(dim=2, operators=(p0, p1))
    rho = 0.5 * (np.eye(2) + PAULI[1])
    assert matrices_close(m(rho), np.eye(2) / 2)
    with pytest.raises(DimensionError):
        m(np.eye(3))


@pytest.fixture(scope="module")
def d3_operator_entry_points():
    """Every public entry point that takes an operator, bound to d = 3 objects."""
    family = mub_family(3)
    rates = preset_rates("eternal-general", d=3)
    traj = build_trajectory(rates, t_max=1.0, steps=10)
    ch = channel_from_probabilities(family, [0.6, 0.1, 0.1, 0.1, 0.1])
    weyl = weyl_channel_from_pauli(ch)
    return {
        "channel.apply": lambda x: apply(ch, x),
        "channel.weyl_channel_apply": lambda x: weyl_channel_apply(weyl, x),
        "linalg.KrausMap": decoherence_channel(family, 1),
        "mub.dephase_all": lambda x: dephase_all(family, x),
        "dynamics.generator_apply": lambda x: generator_apply(rates, family, 0.5, x),
        "dynamics.evolve_operator": lambda x: evolve_operator(traj, family, x),
        "dynamics.check_blp": lambda x: check_blp(traj, family, [(x, np.eye(3) / 3)]),
    }


_NAN_D3 = np.eye(3) / 3
_NAN_D3[0, 1] = np.nan


@pytest.mark.parametrize("bad, error", [
    (np.eye(2) / 2, DimensionError),
    (np.zeros((3, 2)), DimensionError),
    (_NAN_D3, InvalidInputError),
], ids=["wrong-size", "non-square", "nan"])
@pytest.mark.parametrize("entry", [
    "channel.apply", "channel.weyl_channel_apply", "linalg.KrausMap", "mub.dephase_all",
    "dynamics.generator_apply", "dynamics.evolve_operator", "dynamics.check_blp",
])
def test_operator_entry_points_check_their_input(d3_operator_entry_points, entry, bad, error):
    call = d3_operator_entry_points[entry]
    call(np.eye(3) / 3)  # a d x d operator passes
    with pytest.raises(error) as exc:
        call(bad)
    assert type(exc.value) is error


@pytest.mark.parametrize("pairs", [[(np.eye(2) / 2, np.diag([1.0, 0.0]))], 4],
                         ids=["explicit", "count"])
def test_check_blp_rejects_a_family_of_another_dimension(family2, pairs):
    traj = build_trajectory(preset_rates("eternal-general", d=3), t_max=1.0, steps=10)
    with pytest.raises(DimensionError):
        check_blp(traj, family2, pairs)


@pytest.mark.parametrize("shape", [(9,), (3, 3), (4, 3, 3)], ids=["vector", "matrix", "stack"])
def test_complex_pairs_matches_per_entry_lists(shape):
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.0 / 3, -2.5]
    x = np.empty(shape, dtype=complex)
    x.real = np.resize(specials, shape)
    x.imag = np.resize(specials[::-1], shape)

    def per_entry(a):
        if a.ndim > 1:
            return [per_entry(row) for row in a]
        return [[float(c.real), float(c.imag)] for c in a]

    assert json.dumps(complex_pairs(x)) == json.dumps(per_entry(x))
