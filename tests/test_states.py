import csv
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from wernerlike import fock, states


def read_metrics_csv(path):
    """Parse a file written by write_metrics_csv; returns (table, comments)."""
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                rows.append(line.strip())
    reader = csv.reader(rows)
    header = tuple(next(reader))
    if header != states.METRIC_COLUMNS:
        raise ValueError(f"unexpected header {header}")
    table = np.array([[float(v) for v in row] for row in reader])
    return table, comments


def csv_writer_metrics(path, table, comments):
    """Reference: the former ``csv.writer`` export, row by row."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(states.METRIC_COLUMNS)
        for row in np.asarray(table):
            writer.writerow([f"{v:.17g}" for v in row])


def pseudo_singlet_qubit():
    """Reference: (|du> - |ud>)/sqrt(2) as a 4-vector in the product basis."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return v


def build_werner_qubit():
    """Reference: I/8 + |singlet><singlet|/2, entangled, yet violates no Bell
    bound."""
    v = pseudo_singlet_qubit()
    return np.eye(4, dtype=complex) / 8.0 + 0.5 * np.outer(v, v.conj())


# entropy anchors from the closed-form spectra
S_WERNER = -(5 / 8) * np.log2(5 / 8) - 3 * (1 / 8) * np.log2(1 / 8)
S_ALPHA0 = -(3 / 4) * np.log2(3 / 4) - (1 / 4) * np.log2(1 / 4)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_product_qubit_pair(rng):
    r1 = random_density(rng, 2)
    r2 = random_density(rng, 2)
    return np.kron(r1, r2)


PAULIS = (fock.SIGMA1, fock.SIGMA2, fock.SIGMA3)
EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class HSDecomposition:
    """Bloch vectors r, s and correlation matrix t_nm = Tr[rho s_n (x) s_m]."""

    r: np.ndarray
    s: np.ndarray
    t: np.ndarray


def hilbert_schmidt_decomposition(rho):
    """Reference: all 15 coefficients Tr[rho P_i (x) P_j] in one contraction,
    the one ``teleportation_fidelity`` reads T from."""
    c = np.einsum("ab,ijba->ij", np.asarray(rho, dtype=complex), states.PAULI_PRODUCTS).real
    return HSDecomposition(r=c[1:, 0], s=c[0, 1:], t=c[1:, 1:])


def hs_reassemble(dec):
    """Inverse of the decomposition: (1/4)[I + r.sigma (x) I + ...]."""
    out = np.kron(EYE2, EYE2).astype(complex)
    for i, p in enumerate(PAULIS):
        out += dec.r[i] * np.kron(p, EYE2)
        out += dec.s[i] * np.kron(EYE2, p)
        for j, q in enumerate(PAULIS):
            out += dec.t[i, j] * np.kron(p, q)
    return out / 4.0


def hs_kron_loop(rho):
    """Reference: the decomposition as 15 Kronecker products and traces."""
    r = np.array([np.trace(rho @ np.kron(p, EYE2)).real for p in PAULIS])
    s = np.array([np.trace(rho @ np.kron(EYE2, p)).real for p in PAULIS])
    t = np.array([[np.trace(rho @ np.kron(p, q)).real for q in PAULIS] for p in PAULIS])
    return r, s, t


def bisection_threshold(level, bracket=(1e-4, 2.0), tol=1e-6):
    """Reference: the fidelity crossing found by bisection on F(alpha) - level."""
    lo, hi = float(bracket[0]), float(bracket[1])

    def gap(a):
        rho = states.build_mapped_qubit(states.kappa_from_alpha(a))
        return states.teleportation_fidelity(rho) - level

    glo, ghi = gap(lo), gap(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise ValueError(
            f"fidelity - {level:.6g} has no sign change on ({lo:.4g}, {hi:.4g})"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if glo * gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def closed_form_threshold(level):
    """Reference: the crossing of any level in [7/12, 3/4).  F = 7/12 + s/6
    with s = sqrt(1 - kappa^2), so s = 6 level - 7/2, kappa = sqrt(1 - s^2)
    and alpha = sqrt(-ln(kappa) / 2) = sqrt(-ln(1 - s^2) / 4)."""
    s = 6.0 * float(level) - 3.5
    assert 0.0 <= s < 1.0, f"level {level} lies outside [7/12, 3/4)"
    return float(np.sqrt(-0.25 * np.log1p(-s * s)))


class TestWernerQubit:
    def test_trace(self):
        assert abs(np.trace(build_werner_qubit()) - 1.0) < 1e-14

    def test_eigenvalues(self):
        vals = fock.hermitian_eigenvalues(build_werner_qubit())
        np.testing.assert_allclose(vals, [5 / 8, 1 / 8, 1 / 8, 1 / 8], atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            np.diag(build_werner_qubit()).real, [1 / 8, 3 / 8, 3 / 8, 1 / 8]
        )


class TestHybridMixture:
    def test_full_matrix_against_term_by_term_assembly(self):
        # independent route: sum the five mixture terms as dense kron products
        alpha, dim = 0.7, 32
        plus = fock.coherent_state(alpha, dim)
        minus = fock.coherent_state(-alpha, dim)
        down = np.array([1.0, 0.0], dtype=complex)
        up = np.array([0.0, 1.0], dtype=complex)
        terms = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for spin in (down, up):
            for osc in (plus, minus):
                v = np.kron(spin, osc)
                terms += np.outer(v, v.conj()) / 8.0
        singlet = np.kron(down, plus) - np.kron(up, minus)
        terms += 0.25 * np.outer(singlet, singlet.conj())
        built = states.build_hybrid_mixture(alpha, dim).to_matrix()
        np.testing.assert_allclose(built, terms, atol=1e-12)

    def test_block_closed_forms(self):
        alpha, dim = 0.9, 32
        st = states.build_hybrid_mixture(alpha, dim)
        plus = fock.coherent_state(alpha, dim)
        minus = fock.coherent_state(-alpha, dim)
        pp = np.outer(plus, plus.conj())
        mm = np.outer(minus, minus.conj())
        np.testing.assert_allclose(st.uu, pp / 8 + 3 * mm / 8, atol=1e-10)
        np.testing.assert_allclose(st.dd, 3 * pp / 8 + mm / 8, atol=1e-10)
        np.testing.assert_allclose(st.ud, -np.outer(minus, plus.conj()) / 4, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.4])
    def test_block_traces(self, alpha):
        st = states.build_hybrid_mixture(alpha, 32)
        assert abs(np.trace(st.uu) - 0.5) < 1e-12
        assert abs(np.trace(st.dd) - 0.5) < 1e-12
        kappa = states.kappa_from_alpha(alpha)
        assert abs(np.trace(st.ud) + kappa / 4) < 1e-12

    def test_ud_trace_value_at_reference_alpha(self):
        st = states.build_hybrid_mixture(0.7, 32)
        assert abs(np.trace(st.ud).real + 0.093828) < 1e-6

    def test_alpha_zero_structure(self):
        st = states.build_hybrid_mixture(0.0, 8)
        down = np.array([1.0, 0.0], dtype=complex)
        up = np.array([0.0, 1.0], dtype=complex)
        minus_spin = (down - up) / np.sqrt(2)
        spin_part = np.eye(2) / 4 + 0.5 * np.outer(minus_spin, minus_spin.conj())
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        np.testing.assert_allclose(st.to_matrix(), np.kron(spin_part, vac), atol=1e-14)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            states.build_hybrid_mixture(-0.1, 16)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            states.build_hybrid_mixture(alpha, 16)

    def test_du_is_derived_from_ud(self):
        st = states.build_hybrid_mixture(0.5, 16)
        assert st.du.tobytes() == st.ud.conj().T.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            st.du[0, 0] = 0.0
        with pytest.raises(TypeError, match="du"):
            states.HybridState(uu=st.uu, ud=st.ud, du=st.ud.conj().T, dd=st.dd)


class TestMappedQubit:
    def test_orthogonal_limit_is_werner(self):
        np.testing.assert_allclose(
            states.build_mapped_qubit(0.0), build_werner_qubit(), atol=1e-14
        )

    def test_degenerate_limit_eigenvalues(self):
        vals = fock.hermitian_eigenvalues(states.build_mapped_qubit(1.0))
        np.testing.assert_allclose(vals, [0.75, 0.25, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 0.2, 0.5, 0.88, 1.0])
    def test_unit_trace(self, kappa):
        assert abs(np.trace(states.build_mapped_qubit(kappa)) - 1.0) < 1e-14

    def test_kappa_range_enforced(self):
        with pytest.raises(ValueError):
            states.build_mapped_qubit(1.2)

    @pytest.mark.parametrize("alpha", [0.1, 0.35, 0.7, 1.2])
    def test_isometry_with_hybrid_representation(self, alpha):
        hybrid = states.build_hybrid_mixture(alpha, 32)
        mapped = states.build_mapped_qubit(states.kappa_from_alpha(alpha))
        hv = fock.hermitian_eigenvalues(hybrid.to_matrix())
        mv = fock.hermitian_eigenvalues(mapped)
        np.testing.assert_allclose(hv[:4], mv, atol=1e-8)
        assert np.all(np.abs(hv[4:]) < 1e-8)
        purity_h = np.trace(hybrid.to_matrix() @ hybrid.to_matrix()).real
        purity_m = np.trace(mapped @ mapped).real
        assert abs(purity_h - purity_m) < 1e-8
        assert abs(
            states.von_neumann_entropy(hybrid.to_matrix()) - states.von_neumann_entropy(mapped)
        ) < 1e-8


class TestEntropy:
    def test_pure_state(self):
        v = np.array([1.0, 1j, 0.0, -1.0]) / np.sqrt(3)
        assert states.von_neumann_entropy(np.outer(v, v.conj())) < 1e-12

    def test_werner_anchor(self):
        s = states.von_neumann_entropy(build_werner_qubit())
        assert abs(s - S_WERNER) < 1e-12
        assert abs(s - 1.548795) < 1e-6

    def test_alpha_zero_anchor(self):
        s = states.von_neumann_entropy(states.build_mapped_qubit(1.0))
        assert abs(s - S_ALPHA0) < 1e-12
        assert abs(s - 0.811278) < 1e-6

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            states.von_neumann_entropy(np.eye(4) / 2)

    def test_trace_rule_of_the_hybrid_state(self):
        # the entropy accepts a trace exactly as far from 1 as HybridState.validate
        rho = states.build_mapped_qubit(1.0)
        for excess in (1e-8, -1e-8):
            with pytest.raises(ValueError, match="trace"):
                states.von_neumann_entropy(rho * (1.0 + excess))
        blocks = states.build_hybrid_mixture(0.7, 16)
        with pytest.raises(ValueError, match="trace"):
            states.HybridState.from_blocks(blocks.uu * (1 + 1e-8), blocks.ud, blocks.dd).validate()
        assert states.von_neumann_entropy(rho * (1.0 + 1e-12)) > 0.0

    def test_rejects_negative_operator(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            states.von_neumann_entropy(bad)


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        pt = states.partial_transpose(np.kron(r1, r2))
        np.testing.assert_allclose(pt, np.kron(r1, r2.T), atol=1e-14)
        assert fock.hermitian_eigenvalues(pt)[-1] > -1e-12

    def test_involution(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        np.testing.assert_allclose(
            states.partial_transpose(states.partial_transpose(rho)), rho
        )

    def test_singlet_minimum_eigenvalue(self):
        v = pseudo_singlet_qubit()
        pt = states.partial_transpose(np.outer(v, v.conj()))
        assert abs(fock.hermitian_eigenvalues(pt)[-1] + 0.5) < 1e-12


class TestNegativity:
    def test_werner_value(self):
        assert abs(states.negativity(build_werner_qubit()) - 0.25) < 1e-12

    def test_degenerate_limit_separable(self):
        assert states.negativity(states.build_mapped_qubit(1.0)) == 0.0

    def test_singlet(self):
        v = pseudo_singlet_qubit()
        assert abs(states.negativity(np.outer(v, v.conj())) - 1.0) < 1e-12

    def test_separable_states_have_zero_negativity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_terms = rng.integers(1, 5)
            weights = rng.dirichlet(np.ones(n_terms))
            rho = sum(w * random_product_qubit_pair(rng) for w in weights)
            assert states.negativity(rho) == 0.0


def ref_partial_transpose(rho):
    """Reference: PT[(a, b), (c, d)] = rho[(a, d), (c, b)], entry by entry."""
    pt = np.empty((4, 4), dtype=complex)
    for i, j, k, m in itertools.product(range(2), repeat=4):
        pt[2 * i + j, 2 * k + m] = rho[2 * i + m, 2 * k + j]
    return pt


class TestTolerances:
    @pytest.mark.parametrize("alpha, value", [(0.02, 5.99e-4), (0.05, 3.70e-3), (0.1, 1.43e-2)])
    def test_small_alpha_is_entangled(self, alpha, value):
        # the least partial-transpose eigenvalue is -value/2, far above round-off
        rho = states.build_mapped_qubit(states.kappa_from_alpha(alpha))
        vals = np.linalg.eigvalsh(ref_partial_transpose(rho))
        want = -2.0 * vals[vals < 0].sum()
        got = states.negativity(rho)
        assert got > 0.0
        assert abs(got - want) < 1e-12
        assert got == pytest.approx(value, rel=1e-2)

    def test_validate_refuses_a_small_negative_eigenvalue(self):
        # trace 1, eigenvalues (0.5, 0, 0.5 + 1e-6, -1e-6)
        dd = np.diag([0.5 + 1e-6, -1e-6])
        state = states.HybridState.from_blocks(np.diag([0.5, 0.0]), np.zeros((2, 2)), dd)
        with pytest.raises(ValueError, match="min eigenvalue -1.000e-06"):
            state.validate()


class TestHilbertSchmidt:
    def test_maximally_mixed(self):
        dec = hilbert_schmidt_decomposition(np.eye(4) / 4)
        np.testing.assert_allclose(dec.r, 0.0, atol=1e-14)
        np.testing.assert_allclose(dec.s, 0.0, atol=1e-14)
        np.testing.assert_allclose(dec.t, 0.0, atol=1e-14)

    def test_singlet_correlations(self):
        v = pseudo_singlet_qubit()
        dec = hilbert_schmidt_decomposition(np.outer(v, v.conj()))
        np.testing.assert_allclose(dec.t, -np.eye(3), atol=1e-12)
        np.testing.assert_allclose(dec.r, 0.0, atol=1e-12)
        np.testing.assert_allclose(dec.s, 0.0, atol=1e-12)

    def test_werner_correlations(self):
        dec = hilbert_schmidt_decomposition(build_werner_qubit())
        np.testing.assert_allclose(dec.t, -0.5 * np.eye(3), atol=1e-12)

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rho = random_density(rng, 4)
            dec = hilbert_schmidt_decomposition(rho)
            np.testing.assert_allclose(hs_reassemble(dec), rho, atol=1e-10)
            assert np.all(np.abs(dec.t) <= 1.0 + 1e-12)

    def test_matches_kronecker_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rho = random_density(rng, 4)
            dec = hilbert_schmidt_decomposition(rho)
            r, s, t = hs_kron_loop(rho)
            np.testing.assert_allclose(dec.r, r, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(dec.s, s, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(dec.t, t, rtol=0.0, atol=1e-15)


class TestTeleportationFidelity:
    def test_matches_singular_values_of_reference_correlations(self):
        rng = np.random.default_rng(13)
        for rho in [build_werner_qubit()] + [random_density(rng, 4) for _ in range(50)]:
            t = hilbert_schmidt_decomposition(rho).t
            expected = 0.5 * (1.0 + np.linalg.svd(t, compute_uv=False).sum() / 3.0)
            assert states.teleportation_fidelity(rho) == expected

    def test_werner(self):
        assert abs(states.teleportation_fidelity(build_werner_qubit()) - 0.75) < 1e-12

    def test_singlet(self):
        v = pseudo_singlet_qubit()
        assert abs(states.teleportation_fidelity(np.outer(v, v.conj())) - 1.0) < 1e-12

    def test_threshold_root(self):
        alpha_star = states.fidelity_threshold()
        rho = states.build_mapped_qubit(states.kappa_from_alpha(alpha_star))
        f = states.teleportation_fidelity(rho)
        assert abs(f - 2 / 3) < 1e-5
        # closed form of the crossing: kappa^2 = 3/4, alpha = sqrt(ln(4/3))/2
        assert abs(alpha_star - np.sqrt(np.log(4 / 3)) / 2) < 1e-15
        assert abs(alpha_star - bisection_threshold(2 / 3, tol=1e-13)) < 1e-10

    def test_threshold_brackets_level(self):
        alpha_star = states.fidelity_threshold()
        below, above = (
            states.teleportation_fidelity(states.build_mapped_qubit(states.kappa_from_alpha(a)))
            for a in (alpha_star - 0.05, alpha_star + 0.05)
        )
        assert below < 2 / 3 < above

    def test_closed_form_matches_bisection(self):
        for level in np.linspace(0.59, 0.745, 12):
            closed = closed_form_threshold(level)
            assert abs(closed - bisection_threshold(level, tol=1e-13)) < 1e-10


class TestMetricSweep:
    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            states.metric_sweep(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "alpha_min, alpha_max, name",
        [(0.0, np.inf, "alpha_max"), (0.0, np.nan, "alpha_max"), (-1.0, 3.0, "alpha_min"),
         (-np.inf, 3.0, "alpha_min")],
    )
    def test_bounds_must_be_finite_and_nonnegative(self, alpha_min, alpha_max, name):
        # an alpha RunConfig refuses is refused here too, named, before any row
        with pytest.raises(ValueError, match=f"^{name}=.* must be finite and nonnegative$"):
            states.metric_sweep(alpha_min, alpha_max, 7)

    def test_alpha_zero_row(self):
        table = states.metric_sweep(0.0, 3.0, 7)
        row = table[0]
        assert row[0] == 0.0
        assert abs(row[1] - 1.0) < 1e-14
        assert abs(row[2] - 0.811278) < 1e-6
        assert row[3] == 0.0
        assert row[4] <= 2 / 3

    def test_monotone_and_saturating(self):
        table = states.metric_sweep(0.0, 3.0, 31)
        flags = states.sweep_monotonicity(table)
        assert flags["entropy_bits_nondecreasing"]
        assert flags["negativity_nondecreasing"]
        assert flags["fidelity_nondecreasing"]
        assert np.all(table[:, 2] < 2.0)
        assert abs(table[-1, 3] - 0.25) < 1e-3
        assert abs(table[-1, 4] - 0.75) < 1e-3

    def test_saturation_band(self):
        for alpha in (2.5, 2.75, 3.0):
            row = states.metric_row(alpha)
            assert abs(row[3] - 0.25) < 1e-3
            assert abs(row[4] - 0.75) < 1e-3

    def test_csv_round_trip(self, tmp_path):
        table = states.metric_sweep(0.0, 2.0, 9)
        path = tmp_path / "metrics.csv"
        states.write_metrics_csv(path, table, comments=["config_hash=abc"])
        back, comments = read_metrics_csv(path)
        np.testing.assert_array_equal(back, table)
        assert comments == ["config_hash=abc"]

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        table = states.metric_sweep(0.0, 2.0, 9)
        table[0, :] = [-0.0, 5e-324, -1e300, np.nan, np.inf]
        comments = ["config_hash=abc", "seed=7"]
        states.write_metrics_csv(tmp_path / "got.csv", table, comments=comments)
        csv_writer_metrics(tmp_path / "ref.csv", table, comments=comments)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
