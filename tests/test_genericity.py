import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_spectrum,
    random_member_of_M,
    random_stack,
    same_bits,
    spectrum_oracle,
)
from locact import genericity, linsys
from locact.errors import ZeroProjection
from locact.genericity import (
    GenericityReport,
    in_generic_M,
    port_transform,
    sample_density_M,
)


# -- per-matrix oracles: the membership tests as they ran one matrix at a time


def _port_transform_oracle(sys):
    P = sys.P
    norms = np.linalg.norm(P, axis=0)
    j = int(np.argmax(norms))
    if norms[j] <= 1e-14 * max(1.0, float(np.abs(P).max(initial=0.0))):
        raise ZeroProjection("P = 0 admits no port variable")
    v = P[:, j] / norms[j]
    n = sys.n
    e1 = np.zeros(n)
    e1[0] = 1.0
    w = v - e1
    nw2 = float(w @ w)
    if nw2 <= 1e-28:
        Q = np.eye(n)
    else:
        Q = np.eye(n) - (2.0 / nw2) * np.outer(w, w)
    return Q, linsys.make_system(Q @ sys.A @ Q.T, Q @ P @ Q.T)


def _eig_side_oracle(A, tol):
    spect = spectrum_oracle(A)
    lam = spect.eigenvalues
    min_abs = float(np.min(np.abs(lam)))
    lam1 = lam[0]
    rest = list(lam[1:])
    if lam1.imag != 0.0:
        for i, l in enumerate(rest):
            if np.isclose(l, np.conj(lam1), rtol=0, atol=1e-14):
                del rest[i]
                break
    if rest:
        dominance = float(lam1.real - max(l.real for l in rest))
    else:
        dominance = np.inf
    in_N = (min_abs > tol) and (spect.min_gap > tol) and (dominance > tol)
    return spect, in_N, min_abs, dominance


def _in_generic_M_oracle(sys, tol=1e-8):
    Q, transformed = _port_transform_oracle(sys)
    spect, in_N, min_abs, dominance = _eig_side_oracle(transformed.A, tol)
    g11h11 = complex(spect.G[0, 0] * spect.H[0, 0])
    denom = float(np.linalg.norm(spect.G[:, 0]) * np.linalg.norm(spect.H[0, :]))
    margin = abs(g11h11) / denom if denom > 0 else 0.0
    in_M = bool(in_N and spect.diagonalizable and margin > tol)
    notes = []
    if not in_N:
        notes.append("fails eigenvalue-side membership")
    if not spect.diagonalizable:
        notes.append("not numerically diagonalizable")
    if margin <= tol:
        notes.append(f"port product margin {margin:.3e} <= tol")
    if not np.isfinite(dominance):
        notes.append("dominance over empty remainder (max of empty set = -inf)")
    return GenericityReport(
        in_N=in_N, in_M=in_M, min_eig_gap=spect.min_gap, min_abs_eig=min_abs,
        dominance_gap=dominance, g11h11=g11h11, port_product_margin=margin,
        Q=Q, tol=tol, notes="; ".join(notes), spectrum=spect,
    )


def _sample_density_M_oracle(n, samples, seed, tol=1e-8):
    rng = np.random.default_rng(seed)
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    hits = 0
    for _ in range(samples):
        A = rng.standard_normal((n, n))
        if _in_generic_M_oracle(linsys.make_system(A, P), tol=tol).in_M:
            hits += 1
    return hits / samples


_REPORT_FIELDS = ("in_N", "in_M", "min_eig_gap", "min_abs_eig", "dominance_gap",
                  "g11h11", "port_product_margin", "Q", "tol", "notes")


def _assert_same_report(got, want):
    for field in _REPORT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert same_bits(a, b), (field, a, b)
    assert_same_spectrum(got.spectrum, want.spectrum)


def _e1_projection(n):
    P = np.zeros((n, n))
    P[0, 0] = 1.0
    return P


def _in_N(A, tol=1e-8):
    """The eigenvalue-side test of A itself: with the port on the first
    coordinate the port transform is the identity."""
    return in_generic_M(linsys.make_system(A, _e1_projection(A.shape[0])), tol)


class TestPortTransform:
    def test_identity_when_port_is_first_axis(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
        Q, transformed = port_transform(sys)
        npt.assert_allclose(Q, np.eye(2), atol=1e-14)
        npt.assert_allclose(transformed.A, sys.A, atol=1e-14)

    def test_full_projection_uses_first_column(self):
        sys = linsys.make_system(np.arange(4.0).reshape(2, 2), np.eye(2))
        Q, _ = port_transform(sys)
        npt.assert_allclose(Q, np.eye(2), atol=1e-14)

    def test_axis_swap(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([0.0, 1.0]))
        Q, transformed = port_transform(sys)
        npt.assert_allclose(transformed.A, np.diag([-1.0, 2.0]), atol=1e-12)
        npt.assert_allclose(transformed.P, np.diag([1.0, 0.0]), atol=1e-12)
        e1 = np.array([1.0, 0.0])
        npt.assert_allclose(transformed.P @ e1, e1, atol=1e-12)

    def test_orthogonality_and_similarity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            v = rng.standard_normal(n)
            P = np.outer(v, v) / (v @ v)  # rank-1 orthogonal projection
            sys = linsys.make_system(A, P)
            Q, transformed = port_transform(sys)
            assert np.linalg.norm(Q @ Q.T - np.eye(n)) <= 1e-12
            lam_before = np.sort_complex(np.linalg.eigvals(A))
            lam_after = np.sort_complex(np.linalg.eigvals(transformed.A))
            npt.assert_allclose(lam_after, lam_before, atol=1e-8)
            e1 = np.zeros(n)
            e1[0] = 1.0
            npt.assert_allclose(transformed.P @ e1, e1, atol=1e-10)

    def test_zero_projection_rejected(self):
        sys = linsys.make_system(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ZeroProjection):
            port_transform(sys)


class TestGenericN:
    def test_repeated_eigenvalues_fail(self):
        assert not _in_N(np.eye(2)).in_N

    def test_distinct_positive_diagonal(self):
        report = _in_N(np.diag([2.0, 1.0]))
        assert report.in_N
        assert report.min_eig_gap == pytest.approx(1.0)
        assert report.min_abs_eig == pytest.approx(1.0)
        assert report.dominance_gap == pytest.approx(1.0)

    def test_pure_rotation_passes_with_empty_remainder(self):
        # spectrum {+i, -i}: distinct, nonzero, dominance over the empty
        # remainder (max of the empty set is -inf)
        report = _in_N(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert report.in_N
        assert report.dominance_gap == np.inf

    def test_singular_matrix_fails(self):
        assert not _in_N(np.diag([0.0, 1.0])).in_N

    def test_tolerance_monotonicity(self, rng):
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            if _in_N(A, tol=1e-4).in_N:
                assert _in_N(A, tol=1e-8).in_N


class TestGenericM:
    def test_diagonal_port_aligned(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
        report = in_generic_M(sys)
        assert report.in_M
        assert report.g11h11 == pytest.approx(1.0 + 0.0j)

    def test_dominant_mode_invisible_from_port(self):
        # after the swap the dominant eigenvector is e2 in the transformed
        # frame, so g11 = 0 and membership fails
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([0.0, 1.0]))
        report = in_generic_M(sys)
        assert not report.in_M
        assert abs(report.g11h11) <= 1e-12

    def test_identity_matrix_fails_via_N(self):
        sys = linsys.make_system(np.eye(3), np.eye(3))
        report = in_generic_M(sys)
        assert not report.in_M and not report.in_N

    def test_membership_implies_N(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            P = np.zeros((n, n))
            P[0, 0] = 1.0
            sys = linsys.make_system(rng.standard_normal((n, n)), P)
            report = in_generic_M(sys)
            if report.in_M:
                assert report.in_N

    def test_openness_probe(self, rng):
        # members stay members under perturbations of norm tol / 10
        tol = 1e-8
        for _ in range(5):
            sys = random_member_of_M(rng, 3)
            for _ in range(20):
                E = rng.standard_normal((3, 3))
                E *= (tol / 10.0) / np.linalg.norm(E)
                perturbed = linsys.make_system(sys.A + E, sys.P)
                assert in_generic_M(perturbed, tol=tol / 2.0).in_M


class TestDensity:
    def test_scalar_case_near_one(self):
        assert sample_density_M(1, 200, seed=3) >= 0.99

    def test_three_dimensional_density(self):
        assert sample_density_M(3, 300, seed=42, tol=1e-8) >= 0.99

    def test_deterministic_in_seed(self):
        a = sample_density_M(3, 100, seed=7)
        b = sample_density_M(3, 100, seed=7)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_density_M(0, 10, seed=0)
        with pytest.raises(ValueError):
            sample_density_M(2, 0, seed=0)


class TestReportSerialization:
    def test_json_fields(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
        obj = in_generic_M(sys).to_json()
        assert obj["in_M"] is True
        assert obj["g11h11"] == {"re": pytest.approx(1.0), "im": pytest.approx(0.0)}


# -- the stacked kernel against the per-matrix oracles


GENERICITY_FIXTURES = {
    "repeated": np.eye(2),
    "zero": np.diag([0.0, 1.0]),
    "jordan": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "rotation": np.array([[0.0, 1.0], [-1.0, 0.0]]),  # empty remainder
    "scalar": np.array([[0.7]]),
}


def _assert_same_slice(m, pos, want):
    got = (bool(m.in_N[pos]), float(m.min_abs[pos]), float(m.dominance[pos]),
           complex(m.g11h11[pos]), float(m.margin[pos]), bool(m.in_M[pos]))
    expected = (want.in_N, want.min_abs_eig, want.dominance_gap, want.g11h11,
                want.port_product_margin, want.in_M)
    for a, b in zip(got, expected):
        assert same_bits(a, b), (got, expected)
    assert_same_spectrum(m.spectra.at(pos), want.spectrum)


def _stacked_membership(A, tol):
    """The stacked test as sample_density_M runs it, with P = e1 e1^T."""
    Q = genericity._port_reflector(_e1_projection(A.shape[1]))
    return genericity._membership(Q @ A @ Q.T, tol)


def _slice_membership(groups, i):
    for m in groups:
        pos = np.flatnonzero(m.spectra.index == i)
        if pos.size:
            return m, int(pos[0])
    raise AssertionError(f"slice {i} is in no group")


class TestStackedMembership:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 300),
           st.sampled_from([0.0, 1e-8, 1e-4]))
    def test_every_slice_equals_the_per_matrix_test(self, seed, n, k, tol):
        A = random_stack(np.random.default_rng(seed), k, n)
        P = _e1_projection(n)
        groups = _stacked_membership(A, tol)
        assert sorted(np.concatenate([m.spectra.index for m in groups]).tolist()) \
            == list(range(k))
        for m in groups:
            for pos, i in enumerate(m.spectra.index):
                want = _in_generic_M_oracle(linsys.make_system(A[i], P), tol)
                _assert_same_slice(m, pos, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.sampled_from(["e1", "last", "identity", "rank1"]),
           st.sampled_from([0.0, 1e-8, 1e-4]))
    def test_single_matrix_reports_equal_the_per_matrix_test(self, seed, n, ports, tol):
        rng = np.random.default_rng(seed)
        A = random_stack(rng, 1, n)[0]
        if ports == "rank1":
            v = rng.standard_normal(n)
            P = np.outer(v, v) / (v @ v)
        else:
            P = {"e1": _e1_projection(n), "identity": np.eye(n),
                 "last": np.diag(np.eye(n)[-1])}[ports]
        sys = linsys.make_system(A, P)
        _assert_same_report(in_generic_M(sys, tol), _in_generic_M_oracle(sys, tol))
        _assert_same_report(_in_N(A, tol), _in_generic_M_oracle(
            linsys.make_system(A, _e1_projection(n)), tol))

    @pytest.mark.parametrize("name", GENERICITY_FIXTURES)
    def test_fixture_reports_equal_the_per_matrix_test(self, name):
        A = GENERICITY_FIXTURES[name]
        sys = linsys.make_system(A, _e1_projection(A.shape[0]))
        _assert_same_report(in_generic_M(sys), _in_generic_M_oracle(sys))

    @pytest.mark.parametrize("name", GENERICITY_FIXTURES)
    @pytest.mark.parametrize("k", [1, 2, 300])
    def test_fixture_bits_do_not_depend_on_batch_position(self, name, k):
        M = GENERICITY_FIXTURES[name]
        n = M.shape[0]
        want = _in_generic_M_oracle(linsys.make_system(M, _e1_projection(n)))
        for i in {0, k - 1}:
            A = random_stack(np.random.default_rng(k), k, n)
            A[i] = M
            _assert_same_slice(*_slice_membership(_stacked_membership(A, 1e-8), i), want)

    def test_real_spectrum_port_product_has_positive_zero_imaginary_part(self):
        # in a stack with complex spectra, eig returns complex eigenvectors for
        # every slice; the real-spectrum slice must still give g11 h11 = x + 0j
        A = np.stack([np.array([[2.0, 1.0], [0.5, -1.0]]), GENERICITY_FIXTURES["rotation"]])
        m, pos = _slice_membership(_stacked_membership(A, 1e-8), 0)
        assert m.g11h11.dtype == np.float64
        assert math.copysign(1.0, complex(m.g11h11[pos]).imag) == 1.0


class TestDensityAgainstOracle:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_fraction_equals_the_per_matrix_loop(self, n):
        for seed in range(20):
            assert sample_density_M(n, 100, seed) == _sample_density_M_oracle(n, 100, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_criterion_09_and_demo_06_draws(self, n):
        for seed in (1000 + n, 42):
            assert sample_density_M(n, 1000, seed) == \
                _sample_density_M_oracle(n, 1000, seed)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_the_fraction(self, monkeypatch, n, block):
        monkeypatch.setattr(genericity, "_CHUNK_ENTRIES", block * n * n)
        for seed in range(3):
            assert sample_density_M(n, 23, seed) == _sample_density_M_oracle(n, 23, seed)

    def test_blocks_bound_the_working_memory(self, monkeypatch):
        shapes = []
        membership = genericity._membership

        def spy(B, tol):
            shapes.append(B.shape)
            return membership(B, tol)

        monkeypatch.setattr(genericity, "_membership", spy)
        monkeypatch.setattr(genericity, "_CHUNK_ENTRIES", 7 * 9)
        sample_density_M(3, 23, seed=0)
        assert shapes == [(7, 3, 3)] * 3 + [(2, 3, 3)]
        shapes.clear()
        sample_density_M(9, 2, seed=0)  # one matrix has more entries than a block
        assert shapes == [(1, 9, 9)] * 2


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_meaningless_tol_is_rejected(self, tol):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            in_generic_M(sys, tol=tol)
        with pytest.raises(ValueError):
            _in_N(sys.A, tol=tol)
        with pytest.raises(ValueError):
            sample_density_M(2, 5, seed=0, tol=tol)

    def test_zero_tol_is_the_exact_definition(self):
        sys = linsys.make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
        assert in_generic_M(sys, tol=0.0).in_M
        assert not _in_N(np.eye(2), tol=0.0).in_N
        assert sample_density_M(2, 5, seed=0, tol=0.0) == 1.0
