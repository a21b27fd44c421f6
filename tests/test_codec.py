import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirpool.codec import (
    Verdict,
    assemble_matrix,
    build_saffron_submatrix,
    code_width,
    decode_round,
    evaluate_tests,
)
from sirpool.sir import Status
from tests.test_sir import make_state


def dense_matrix(matrix):
    """Oracle: the literal rows x n 0/1 matrix, built bit by bit from the layout.

    Group k's block takes rows [k*2b, (k+1)*2b): top row r holds bit b-1-r of
    each member's position, bottom row b+r its complement. Singleton rows follow.
    """
    g, eta = matrix.groups.shape
    b = max(1, int(np.ceil(np.log2(eta)))) if g else 0
    dense = np.zeros((matrix.rows, matrix.n), dtype=bool)
    for k in range(g):
        for pos in range(eta):
            member = int(matrix.groups[k, pos])
            for r in range(b):
                bit = (pos >> (b - 1 - r)) & 1
                dense[k * 2 * b + r, member] = bit == 1
                dense[k * 2 * b + b + r, member] = bit == 0
    for i, member in enumerate(matrix.single_members):
        dense[g * 2 * b + i, member] = True
    return dense


def decode_one_group(eta, infected_positions, members=None):
    """Evaluate and decode a one-group matrix; return (verdict, identified list)."""
    members = list(range(eta)) if members is None else list(members)
    n = max(members) + 1
    matrix = assemble_matrix(n, [members], [])
    state = make_state(n, infected_idx=[members[pos] for pos in infected_positions])
    outcome = decode_round(matrix, evaluate_tests(matrix, state))
    return outcome.verdicts[0], outcome.identified.tolist()


class TestSubmatrixConstruction:
    def test_eta_4_hand_checked(self):
        block = build_saffron_submatrix(4)
        assert block.shape == (4, 4)
        # top-half columns spell 00, 01, 10, 11 (most significant bit first)
        assert block[:2].astype(int).T.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert np.array_equal(block[2:], ~block[:2])

    def test_eta_2(self):
        block = build_saffron_submatrix(2)
        assert block.astype(int).tolist() == [[0, 1], [1, 0]]

    def test_eta_5_shape_and_codes(self):
        block = build_saffron_submatrix(5)
        assert block.shape == (6, 5)
        weights = 1 << np.arange(2, -1, -1)
        assert (weights @ block[:3].astype(int)).tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(block[3:], ~block[:3])

    def test_rejects_tiny_groups(self):
        for eta in (0, 1):
            with pytest.raises(ValueError):
                build_saffron_submatrix(eta)

    @pytest.mark.parametrize("eta,width", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3),
                                           (9, 4), (16, 4), (17, 5), (1000, 10)])
    def test_code_width(self, eta, width):
        assert code_width(eta) == width


class TestDecodeGroup:
    def test_single_infection_hand_example(self):
        # member at position 2 of 4 lights rows {0, 3}: code 10 plus complement 01
        matrix = assemble_matrix(24, [[20, 21, 22, 23]], [])
        results = evaluate_tests(matrix, make_state(24, infected_idx=[22]))
        assert np.flatnonzero(results).tolist() == [0, 3]
        outcome = decode_round(matrix, results)
        assert outcome.verdicts.tolist() == [Verdict.SINGLE]
        assert outcome.identified.tolist() == [22]

    def test_all_negative(self):
        assert decode_one_group(4, []) == (Verdict.ALL_NEGATIVE, [])

    def test_two_infections_is_multiple(self):
        matrix = assemble_matrix(4, [[0, 1, 2, 3]], [])
        results = evaluate_tests(matrix, make_state(4, infected_idx=[1, 2]))
        assert int(results.sum()) > code_width(4)
        assert decode_round(matrix, results).verdicts.tolist() == [Verdict.MULTIPLE]

    @pytest.mark.parametrize("eta", range(2, 17))
    def test_exhaustive_zero_and_one(self, eta):
        members = list(range(100, 100 + eta))
        assert decode_one_group(eta, [], members) == (Verdict.ALL_NEGATIVE, [])
        for pos in range(eta):
            assert decode_one_group(eta, [pos], members) == (Verdict.SINGLE, [members[pos]])

    @pytest.mark.parametrize("eta", range(2, 17))
    def test_exhaustive_pairs_are_multiple(self, eta):
        for pair in itertools.combinations(range(eta), 2):
            assert decode_one_group(eta, pair) == (Verdict.MULTIPLE, [])

    @given(st.integers(min_value=3, max_value=16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_larger_subsets_never_misdecode(self, eta, data):
        k = data.draw(st.integers(min_value=3, max_value=eta))
        infected = data.draw(st.sets(st.integers(0, eta - 1), min_size=k, max_size=k))
        verdict, identified = decode_one_group(eta, infected)
        assert verdict != Verdict.ALL_NEGATIVE
        assert set(identified) <= infected
        assert len(identified) == (verdict == Verdict.SINGLE)


class TestEvaluateTests:
    def test_no_infected_all_negative(self):
        matrix = assemble_matrix(8, [range(4)], [5, 6])
        state = make_state(8, infected_idx=())
        assert not evaluate_tests(matrix, state).any()

    def test_identity_rows_on_infected(self):
        matrix = assemble_matrix(6, [], [0, 1, 2, 3, 4, 5])
        state = make_state(6, infected_idx=[1, 4])
        assert evaluate_tests(matrix, state).tolist() == [False, True, False, False, True, False]

    def test_isolated_contribute_negative(self):
        matrix = assemble_matrix(4, [range(4)], [])
        state = make_state(4, infected_idx=(), isolated_idx=[0, 1, 2, 3])
        assert not evaluate_tests(matrix, state).any()

    def test_matches_brute_force_oracle(self):
        # Independent oracle: the literal double loop OR over the dense matrix,
        # on 1-4 equal-size groups plus singles, so the row offsets between
        # groups and before the singleton rows are checked too. Each group's
        # verdict must match its count of infected members read off the dense
        # matrix: none, exactly one, or two and more.
        rng = np.random.default_rng(99)
        for _ in range(300):
            n_groups = int(rng.integers(1, 5))
            eta = int(rng.integers(2, 6))
            n = int(rng.integers(n_groups * eta, n_groups * eta + 6))
            drawn = rng.choice(n, size=n_groups * eta, replace=False)
            others = np.setdiff1d(np.arange(n), drawn)
            singles = rng.choice(others, size=min(others.size, int(rng.integers(0, 3))),
                                 replace=False)
            matrix = assemble_matrix(n, drawn.reshape(n_groups, eta), singles)
            statuses = rng.integers(0, 3, size=n).astype(np.int8)
            state = make_state(n, infected_idx=np.flatnonzero(statuses == Status.INFECTED),
                               isolated_idx=np.flatnonzero(statuses == Status.ISOLATED))
            dense = dense_matrix(matrix)
            expected = []
            for i in range(matrix.rows):
                row = False
                for j in range(n):
                    row = row or (bool(dense[i, j])
                                  and state.statuses[j] == Status.INFECTED)
                expected.append(row)
            results = evaluate_tests(matrix, state)
            assert results.tolist() == expected
            b = code_width(eta)
            infected = state.statuses == Status.INFECTED
            members_hit = [int((dense[k * 2 * b] | dense[k * 2 * b + b])[infected].sum())
                           for k in range(n_groups)]
            verdicts = decode_round(matrix, results).verdicts
            assert verdicts.dtype == np.int8
            assert verdicts.tolist() == [min(hit, Verdict.MULTIPLE) for hit in members_hit]
        outcome = decode_round(assemble_matrix(4, [], [0, 1]), np.array([True, False]))
        assert outcome.verdicts.dtype == np.int8 and outcome.verdicts.shape == (0,)
        assert outcome.identified.tolist() == [0]

    def test_rejects_population_mismatch(self):
        matrix = assemble_matrix(8, [], [0])
        with pytest.raises(ValueError):
            evaluate_tests(matrix, make_state(9, infected_idx=()))


class TestMatrixLayout:
    def test_group_blocks_and_singles(self):
        matrix = assemble_matrix(20, [[3, 4, 5, 6, 7], [10, 11, 12, 13, 14]], [0, 19])
        assert matrix.rows == 6 + 6 + 2
        assert matrix.groups.shape == (2, 5)
        assert matrix.single_members.tolist() == [0, 19]
        # 10 is position 0 of the second group: code 000 lights only its
        # complement rows 9..11; singleton 19 is the last row, 13
        results = evaluate_tests(matrix, make_state(20, infected_idx=[10, 19]))
        assert np.flatnonzero(results).tolist() == [9, 10, 11, 13]

    def test_dense_entries_match_structure(self):
        matrix = assemble_matrix(12, [[2, 3, 4, 5]], [0, 11])
        dense = dense_matrix(matrix)
        assert dense.shape == (6, 12)
        assert np.array_equal(dense[0:4][:, [2, 3, 4, 5]], build_saffron_submatrix(4))
        untouched = np.setdiff1d(np.arange(12), [2, 3, 4, 5])
        assert not dense[0:4][:, untouched].any()
        assert dense[4, 0] and dense[5, 11]
        assert dense[4].sum() == 1 and dense[5].sum() == 1

    def test_singleton_rows_have_one_entry(self):
        matrix = assemble_matrix(30, [], np.arange(7))
        assert matrix.groups.shape == (0, 0)
        dense = dense_matrix(matrix)
        for row, individual in enumerate(matrix.single_members):
            assert dense[row].sum() == 1
            assert dense[row, individual]

    def test_rejects_ragged_and_tiny_groups(self):
        for groups in ([[0, 1, 2], [3, 4]], [[0], [1]], [[]]):
            with pytest.raises(ValueError):
                assemble_matrix(8, groups, [])


class TestDecodeRound:
    def test_collects_groups_and_singles(self):
        matrix = assemble_matrix(20, [[0, 1, 2, 3], [4, 5, 6, 7]], [9, 10])
        state = make_state(20, infected_idx=[2, 9])
        outcome = decode_round(matrix, evaluate_tests(matrix, state))
        assert outcome.identified.tolist() == [2, 9]
        assert outcome.verdicts.tolist() == [Verdict.SINGLE, Verdict.ALL_NEGATIVE]

    def test_multiple_group_yields_nothing(self):
        matrix = assemble_matrix(8, [[0, 1, 2, 3]], [])
        state = make_state(8, infected_idx=[0, 3])
        outcome = decode_round(matrix, evaluate_tests(matrix, state))
        assert outcome.identified.size == 0
        assert outcome.verdicts.tolist() == [Verdict.MULTIPLE]

    def test_deduplicates_single_and_singleton(self):
        # individual 2 is both the group's single infection and singleton-tested
        matrix = assemble_matrix(8, [[0, 1, 2, 3]], [2])
        state = make_state(8, infected_idx=[2])
        outcome = decode_round(matrix, evaluate_tests(matrix, state))
        assert outcome.identified.tolist() == [2]

    def test_singles_only_round(self):
        matrix = assemble_matrix(20, [], [9, 3, 10, 4])
        state = make_state(20, infected_idx=[3, 9, 15])
        outcome = decode_round(matrix, evaluate_tests(matrix, state))
        assert outcome.identified.tolist() == [3, 9]
        assert outcome.verdicts.dtype == np.int8
        assert outcome.verdicts.size == 0

    def test_codeword_beyond_group_is_multiple(self):
        # eta = 3 uses codes 00..10; a hand-made block spelling 11 with its
        # complement names no member, so it must not decode as SINGLE
        matrix = assemble_matrix(3, [[0, 1, 2]], [])
        outcome = decode_round(matrix, np.array([True, True, False, False]))
        assert outcome.verdicts.tolist() == [Verdict.MULTIPLE]
        assert outcome.identified.size == 0

    def test_rejects_wrong_length_results(self):
        matrix = assemble_matrix(8, [[0, 1, 2, 3]], [5])
        for length in (0, matrix.rows - 1, matrix.rows + 1):
            with pytest.raises(ValueError):
                decode_round(matrix, np.zeros(length, dtype=bool))
