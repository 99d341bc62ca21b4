import numpy as np
import pytest

from paulidyn.errors import (
    DimensionError,
    InvalidInputError,
    UnsupportedDimensionError,
)
from paulidyn.channel import probabilities_from_eigenvalues
from paulidyn.linalg import random_complex_matrix, random_density_matrix
from paulidyn.mub import (
    axis_blocks,
    class_sums,
    commuting_classes,
    decoherence_channel,
    from_weyl_coefficients,
    is_prime,
    mub_family,
    spectral_apply,
    unbiasedness_table,
    unitary_mixing_map,
    weyl_basis,
    weyl_coefficients,
)
from tests.conftest import ALPHA_TO_PAULI, PAULI
from tests.helpers import matrices_close


def test_is_prime():
    assert [n for n in range(2, 32) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestWeylBasis:
    def test_d2_matches_paulis(self):
        wb = weyl_basis(2)
        assert matrices_close(wb.operators[0, 0], np.eye(2))
        assert matrices_close(wb.operators[1, 0], PAULI[3])  # Z
        assert matrices_close(wb.operators[0, 1], PAULI[1])  # X
        assert matrices_close(wb.operators[1, 1], PAULI[1] @ PAULI[3])  # XZ = -i sigma_y

    def test_d3_index_arithmetic(self):
        wb = weyl_basis(3)
        # k=0 row: W_01 W_02 = omega^0 W_00 = identity
        assert matrices_close(wb.operators[0, 1] @ wb.operators[0, 2], np.eye(3))

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_nontrivial_operators_traceless(self, d):
        wb = weyl_basis(d)
        for k in range(d):
            for l in range(d):
                tr = np.trace(wb.operators[k, l])
                if (k, l) == (0, 0):
                    assert tr == pytest.approx(d)
                else:
                    assert abs(tr) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_composition_and_adjoint_relations(self, d):
        wb = weyl_basis(d)
        worst = 0.0
        for k in range(d):
            for l in range(d):
                adjoint = wb.omega ** (k * l) * wb.operators[-k, -l]  # W_(-k, -l), mod d
                dev = np.abs(wb.operators[k, l].conj().T - adjoint).max()
                worst = max(worst, dev)
                for r in range(d):
                    for s in range(d):
                        lhs = wb.operators[k, l] @ wb.operators[r, s]
                        rhs = wb.omega ** (k * s) * wb.operators[(k + r) % d, (l + s) % d]
                        worst = max(worst, np.abs(lhs - rhs).max())
        assert worst <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonality(self, d):
        wb = weyl_basis(d)
        ops = wb.operators.reshape(d * d, d, d)
        gram = np.einsum("aji,bji->ab", ops.conj(), ops)
        assert np.abs(gram - d * np.eye(d * d)).max() <= 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionError):
            weyl_basis(1)


class TestCommutingClasses:
    def test_d3_matches_known_partition(self):
        classes = commuting_classes(weyl_basis(3))
        got = {frozenset(c) for c in classes}
        expected = {
            frozenset({(0, 1), (0, 2)}),
            frozenset({(1, 0), (2, 0)}),
            frozenset({(1, 1), (2, 2)}),
            frozenset({(1, 2), (2, 1)}),
        }
        assert got == expected

    def test_d2_singletons(self):
        classes = commuting_classes(weyl_basis(2))
        assert {frozenset(c) for c in classes} == {
            frozenset({(1, 0)}), frozenset({(0, 1)}), frozenset({(1, 1)})
        }

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_partition_covers_and_commutes(self, d):
        wb = weyl_basis(d)
        classes = commuting_classes(wb)
        assert len(classes) == d + 1
        seen = set()
        for cls in classes:
            assert len(cls) == d - 1
            for pair in cls:
                assert pair not in seen
                seen.add(pair)
            # brute-force pairwise commutation inside the class
            for (k1, l1) in cls:
                for (k2, l2) in cls:
                    a = wb.operators[k1, l1] @ wb.operators[k2, l2]
                    b = wb.operators[k2, l2] @ wb.operators[k1, l1]
                    assert np.abs(a - b).max() <= 1e-12
        assert len(seen) == d * d - 1

    def test_rejects_nonprime(self):
        with pytest.raises(UnsupportedDimensionError):
            commuting_classes(weyl_basis(4))


class TestMubFamily:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_orthonormal_and_unbiased(self, d):
        fam = mub_family(d)
        assert fam.n_bases == d + 1
        for a in range(d + 1):
            gram = fam.bases[a].conj() @ fam.bases[a].T
            assert np.abs(gram - np.eye(d)).max() <= 1e-12
        for (_, _, _, _, val) in unbiasedness_table(fam):
            assert abs(val - 1.0 / d) <= 1e-12

    def test_d2_reproduces_textbook_bases(self, family2):
        s = 1 / np.sqrt(2)
        b1 = np.array([[s, s], [s, -s]], dtype=complex)
        b2 = np.array([[s, 1j * s], [s, -1j * s]], dtype=complex)
        b3 = np.eye(2, dtype=complex)
        for target in (b1, b2, b3):
            matched = False
            for a in range(3):
                overlaps = np.abs(target.conj() @ family2.bases[a].T)
                # same basis up to phases and vector order: permutation matrix of 1s
                if np.allclose(np.sort(overlaps, axis=None), [0, 0, 1, 1], atol=1e-12):
                    matched = True
            assert matched

    @pytest.mark.parametrize("d", [4, 6])
    def test_rejects_nonprime(self, d):
        with pytest.raises(UnsupportedDimensionError):
            mub_family(d)

    def test_rejects_dimension_below_two(self):
        with pytest.raises(DimensionError):
            mub_family(1)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitaries_have_root_of_unity_spectrum(self, d):
        fam = mub_family(d)
        omega = np.exp(2j * np.pi / d)
        expected = omega ** np.arange(d)
        for a in range(d + 1):
            u = fam.unitaries[a]
            assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-12
            vals = np.linalg.eigvals(u)
            # each d-th root of unity appears exactly once
            dist = np.abs(vals[:, None] - expected[None, :])
            assert dist.min(axis=0).max() <= 1e-10
            assert dist.min(axis=1).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitary_powers_orthogonal_basis(self, d):
        fam = mub_family(d)
        ops = [np.eye(d, dtype=complex)]
        for a in range(d + 1):
            acc = np.eye(d, dtype=complex)
            for _ in range(d - 1):
                acc = acc @ fam.unitaries[a]
                ops.append(acc.copy())
        ops = np.stack(ops)
        assert ops.shape[0] == d * d
        gram = np.einsum("aji,bji->ab", ops.conj(), ops)
        assert np.abs(gram - d * np.eye(d * d)).max() <= 1e-10

    @pytest.mark.parametrize("d", [3, 5])
    def test_vectors_are_class_eigenvectors(self, d):
        # residual check: each basis vector is an eigenvector of every Weyl
        # operator in its commuting class
        wb = weyl_basis(d)
        fam = mub_family(d)
        classes = commuting_classes(wb)
        for a, cls in enumerate(classes):
            for (k, l) in cls:
                w = wb.operators[k, l]
                for vec in fam.bases[a]:
                    image = w @ vec
                    ev = vec.conj() @ image
                    assert np.abs(image - ev * vec).max() <= 1e-10

    def test_json_dict_shape(self, family3):
        data = family3.to_json_dict()
        assert data["dim"] == 3
        assert len(data["bases"]) == 4
        assert len(data["bases"][0]) == 3
        assert data["bases"][0][0][0] == [1.0, 0.0]  # computational basis first


class TestDecoherenceChannel:
    def test_dephases_computational_coherences(self, family2):
        # basis alpha=1 is the computational basis under the Z-first ordering
        phi = decoherence_channel(family2, 1)
        rho = 0.5 * (np.eye(2) + PAULI[1])
        assert matrices_close(phi(rho), np.eye(2) / 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fixed_points(self, d):
        fam = mub_family(d)
        for a in range(1, d + 2):
            phi = decoherence_channel(fam, a)
            for l in range(d):
                p = fam.projector(a, l)
                assert matrices_close(phi(p), p)

    @pytest.mark.parametrize("d", [2, 3])
    def test_idempotent_on_random_states(self, d, rng):
        fam = mub_family(d)
        for a in range(1, d + 2):
            phi = decoherence_channel(fam, a)
            for _ in range(5):
                rho = random_density_matrix(d, rng)
                assert matrices_close(phi(phi(rho)), phi(rho))

    @pytest.mark.parametrize("d", [2, 3])
    def test_cross_action_depolarizes(self, d, rng):
        fam = mub_family(d)
        for _ in range(3):
            rho = random_density_matrix(d, rng)
            for a in range(1, d + 2):
                for b in range(1, d + 2):
                    if a == b:
                        continue
                    pa = decoherence_channel(fam, a)
                    pb = decoherence_channel(fam, b)
                    ab = pa(pb(rho))
                    ba = pb(pa(rho))
                    assert matrices_close(ab, np.eye(d) / d, tol=1e-12)
                    assert matrices_close(ab, ba, tol=1e-12)

    def test_three_fold_composition_depolarizes(self, family3, rng):
        rho = random_density_matrix(3, rng)
        p1 = decoherence_channel(family3, 1)
        p2 = decoherence_channel(family3, 2)
        out = p1(p2(p1(rho)))
        assert matrices_close(out, np.eye(3) / 3)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_kills_other_axes(self, d):
        fam = mub_family(d)
        for a in range(1, d + 2):
            phi = decoherence_channel(fam, a)
            for b in range(1, d + 2):
                u = fam.unitary(b)
                p = u.copy()
                for _ in range(d - 1):
                    expect = p if a == b else np.zeros_like(p)
                    assert np.abs(phi(p) - expect).max() <= 1e-12
                    p = p @ u

    def test_index_validation(self, family3):
        with pytest.raises(InvalidInputError):
            decoherence_channel(family3, 0)
        with pytest.raises(InvalidInputError):
            decoherence_channel(family3, 5)


class TestUnitaryMixingMap:
    def test_d2_is_pauli_conjugation(self, family2, rng):
        rho = random_density_matrix(2, rng)
        for a, pauli_idx in ALPHA_TO_PAULI.items():
            m = unitary_mixing_map(family2, a)
            s = PAULI[pauli_idx]
            assert matrices_close(m(rho), s @ rho @ s)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitality_count(self, d):
        fam = mub_family(d)
        for a in range(1, d + 2):
            m = unitary_mixing_map(fam, a)
            assert matrices_close(m(np.eye(d)), (d - 1) * np.eye(d))

    def test_equals_scaled_dephasing_minus_identity(self, family3, rng):
        for a in range(1, 5):
            m = unitary_mixing_map(family3, a)
            phi = decoherence_channel(family3, a)
            for _ in range(5):
                rho = random_density_matrix(3, rng)
                assert matrices_close(m(rho), 3 * phi(rho) - rho)


class TestSpectralKernel:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_matches_unitary_mixing_reference_on_stacks(self, d, rng):
        # S operators x P eigenvalue rows, quasi-probabilities included
        fam = mub_family(d)
        xs = np.stack([random_density_matrix(d, rng) for _ in range(3)]
                      + [random_complex_matrix(d, rng)])
        eig = rng.uniform(-1.5, 1.5, size=(5, d + 1))
        probs = [probabilities_from_eigenvalues(row) for row in eig]
        assert min(p.min() for p in probs) < 0.0
        mixing = [unitary_mixing_map(fam, a) for a in range(1, d + 2)]
        out = spectral_apply(fam, eig, xs)
        assert out.shape == (4, 5, d, d)
        for s, x in enumerate(xs):
            for k, p in enumerate(probs):
                ref = p[0] * x + sum(p[a] / (d - 1) * mixing[a - 1](x) for a in range(1, d + 2))
                assert np.abs(out[s, k] - ref).max() <= 1e-12
                assert np.abs(spectral_apply(fam, eig[k], x) - ref).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_axis_blocks_reconstruct(self, d, rng):
        fam = mub_family(d)
        xs = np.stack([random_complex_matrix(d, rng) for _ in range(3)])
        blocks = axis_blocks(fam, xs)
        assert blocks.shape == (3, d + 1, d, d)
        x0 = np.trace(xs, axis1=-2, axis2=-1) / d
        rebuilt = x0[:, None, None] * np.eye(d) + blocks.sum(axis=1)
        assert np.abs(rebuilt - xs).max() <= 1e-12


def rotation_axis_blocks(family, x):
    """B_alpha(x) by a change into each basis, its diagonal, and the way back: the
    O(d^4) form the Weyl-coefficient kernel replaced, kept as its reference."""
    bases = family.bases
    x0 = np.trace(x, axis1=-2, axis2=-1) / family.dim
    rotated = bases.conj() @ x[..., None, :, :]  # rows <b_al| x
    diag = (rotated * bases).sum(axis=-1)
    blocks = (np.swapaxes(bases, -1, -2) * diag[..., None, :]) @ bases.conj()
    r = np.arange(family.dim)
    blocks[..., r, r] -= x0[..., None, None]
    return blocks


def orbit_classes(d):
    """Class alpha as the orbit {(a k, a l) mod d : a = 1..d-1} of its seed, seeds
    Z, X, XZ, ..., XZ^(d-1): the construction the class table replaced."""
    seeds = [(1, 0)] + [(k, 1) for k in range(d)]
    return [{((a * k) % d, (a * l) % d) for a in range(1, d)} for (k, l) in seeds]


class TestWeylCoefficientKernel:
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31])
    def test_class_table_matches_the_seed_orbits(self, d):
        table = mub_family(d).weyl_classes
        assert table[0, 0] == 0
        for alpha, cls in enumerate(orbit_classes(d), 1):
            assert {(k, l) for k, l in zip(*np.nonzero(table == alpha))} == cls
        assert [set(c) for c in commuting_classes(weyl_basis(d))] == orbit_classes(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 13])
    def test_coefficients_are_weyl_traces_and_invert(self, d, rng):
        wb = weyl_basis(d)
        xs = np.stack([random_complex_matrix(d, rng) for _ in range(3)])
        c = weyl_coefficients(xs)
        ref = np.einsum("klij,sij->skl", wb.operators.conj(), xs)  # Tr(W_kl^dag x)
        assert np.abs(c - ref).max() <= 1e-13
        assert np.abs(from_weyl_coefficients(c) - xs).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31])
    def test_axis_blocks_match_the_basis_rotation(self, d, rng):
        fam = mub_family(d)
        xs = np.stack([random_complex_matrix(d, rng) for _ in range(3)]
                      + [random_density_matrix(d, rng)])
        ref = rotation_axis_blocks(fam, xs)
        blocks = axis_blocks(fam, xs)
        assert np.abs(blocks - ref).max() <= 1e-14 * d * np.abs(xs).max()
        # a stack gives each operator's blocks bit for bit
        assert all(axis_blocks(fam, x).tobytes() == b.tobytes() for x, b in zip(xs, blocks))

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_block_norms_are_class_sums(self, d, rng):
        fam = mub_family(d)
        xs = np.stack([random_complex_matrix(d, rng) for _ in range(3)])
        sums = class_sums(fam, np.abs(weyl_coefficients(xs)) ** 2 / d)
        x0 = np.trace(xs, axis1=-2, axis2=-1) / d
        assert np.allclose(sums[:, 0], d * np.abs(x0) ** 2, rtol=1e-13, atol=0.0)
        norms = np.linalg.norm(rotation_axis_blocks(fam, xs), axis=(-2, -1)) ** 2
        assert np.allclose(sums[:, 1:], norms, rtol=1e-12, atol=1e-14)


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestClosedFormFamily:
    """Basis k+2 is the eigenbasis of X Z^k, vector l at eigenvalue zeta_k omega^l,
    with zeta_k = 1 for odd d and i^k for d = 2; U_alpha is the seed over zeta_k."""

    @staticmethod
    def zeta(d):
        return np.array([1.0, 1j]) if d == 2 else np.ones(d)

    @pytest.mark.parametrize("d", PRIMES_TO_31)
    def test_vector_l_has_eigenvalue_zeta_omega_l(self, d):
        wb, fam, zeta = weyl_basis(d), mub_family(d), self.zeta(d)
        for k in range(d):
            seed = wb.operators[k, 1]  # X Z^k
            for l, v in enumerate(fam.basis_vectors(k + 2)):
                assert np.abs(seed @ v - zeta[k] * wb.omega**l * v).max() <= 1e-15
        for l, v in enumerate(fam.basis_vectors(1)):
            assert np.abs(wb.operators[1, 0] @ v - wb.omega**l * v).max() <= 1e-15

    @pytest.mark.parametrize("d", PRIMES_TO_31)
    def test_unitaries_are_seeds_over_zeta(self, d):
        wb, fam, zeta = weyl_basis(d), mub_family(d), self.zeta(d)
        assert np.abs(fam.unitary(1) - wb.operators[1, 0]).max() <= 1e-15
        for k in range(d):
            assert np.abs(fam.unitary(k + 2) - wb.operators[k, 1] / zeta[k]).max() <= 1e-15

    @pytest.mark.parametrize("d", PRIMES_TO_31)
    def test_unitaries_are_the_weyl_seeds_bit_for_bit(self, d):
        # the witness operator U + U^dag goes into report.json, signed zeros included
        wb, zeta = weyl_basis(d), self.zeta(d)
        seeds = np.concatenate((wb.operators[1, :1], wb.operators[:, 1] / zeta[:, None, None]))
        assert mub_family(d).unitaries.tobytes() == seeds.tobytes()

    @pytest.mark.parametrize("d", PRIMES_TO_31)
    def test_orthonormal_and_unbiased_to_rounding(self, d):
        fam = mub_family(d)
        gram = np.einsum("akm,blm->abkl", fam.bases.conj(), fam.bases)
        same = np.arange(d + 1)
        assert np.abs(gram[same, same] - np.eye(d)).max() <= 1e-15
        cross = np.abs(gram[~np.eye(d + 1, dtype=bool)]) ** 2
        assert np.abs(cross - 1.0 / d).max() <= 1e-15

    @pytest.mark.parametrize("d", PRIMES_TO_31)
    def test_first_amplitude_of_weyl_eigenbases_is_real_positive(self, d):
        first = mub_family(d).bases[1:, :, 0]
        assert np.abs(first.imag).max() <= 1e-15
        assert first.real.min() > 0.0
