import numpy as np
import pytest

from advlab.core import ParameterError, ShapeError, make_rng, softmax_rows
from advlab.loat import (EmptySubsetError, LoatSchedule, adversarial_pairing,
                         jensen_middle_wrong, loat, penalty_correct,
                         penalty_wrong)

from fd_utils import fd_matrix_grad, max_rel_err


def random_probs(rng, n, k):
    return softmax_rows(rng.standard_normal((n, k)))


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ParameterError):
            LoatSchedule(variant="BOTH")
        with pytest.raises(ParameterError):
            LoatSchedule(e1=5, e2=3)
        with pytest.raises(ParameterError):
            LoatSchedule(tau=-1.0)

    @pytest.mark.parametrize("fields, name", [
        ({"e1": True}, "e1"), ({"e1": 1.5}, "e1"), ({"e1": -1}, "e1"), ({"e2": 2.5}, "e2"),
        ({"e2": True}, "e2"),
    ], ids=["e1-bool", "e1-float", "e1-negative", "e2-float", "e2-bool"])
    def test_phase_bounds_are_integers(self, fields, name):
        # each of these was accepted, and phase() compared epochs against it
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            LoatSchedule(**fields)

    def test_e1_zero_and_e2_equal_e1(self):
        assert LoatSchedule(e1=0, e2=0, variant="SLORE").phase(0) == "early"

    def test_defaults(self):
        s = LoatSchedule()
        assert (s.e1, s.e2, s.tau, s.gamma, s.variant) == (1, 100, 1.0, 0.05, "OFF")


class TestPenaltyWorkedExamples:
    def test_correct_row(self):
        # probs (0.7, 0.2, 0.1), label 0 is correct
        probs = np.array([[0.7, 0.2, 0.1]])
        p_c, p_c_lower = penalty_correct(probs, [0], [True])
        assert p_c == pytest.approx(0.305, abs=1e-15)
        # non-label mean m = 0.15
        assert p_c_lower == pytest.approx(0.0025, abs=1e-15)

    def test_wrong_row(self):
        # probs (0.1, 0.6, 0.3), label 0 is wrong
        probs = np.array([[0.1, 0.6, 0.3]])
        p_m, p_m_lower = penalty_wrong(probs, [0], [False])
        assert p_m == pytest.approx(0.145, abs=1e-15)
        assert p_m_lower == pytest.approx(0.0225, abs=1e-15)

    def test_jensen_middle(self):
        probs = np.array([[0.1, 0.6, 0.3]])
        # m = 0.45, label prob 0.1
        assert jensen_middle_wrong(probs, [0], [False]) == pytest.approx(0.1225, abs=1e-15)

    def test_pairing(self):
        clean = np.array([[0.5, 0.5], [1.0, 0.0]])
        adv = np.array([[0.4, 0.6], [0.7, 0.3]])
        # squared distances 0.02 and 0.18
        assert adversarial_pairing(clean, adv, [True, True]) == pytest.approx(0.1)
        assert adversarial_pairing(clean, adv, [False, True]) == pytest.approx(0.18)


class TestPenaltyInequalities:
    def test_lower_variants_never_exceed_originals(self):
        # variance decomposition: sum (s_k - s_y)^2 over k != y equals
        # sum (s_k - m)^2 + (K-1)(m - s_y)^2, so the mean-centered version
        # is a true lower version
        rng = make_rng(0)
        for trial in range(200):
            k = int(rng.integers(2, 10))
            n = int(rng.integers(1, 20))
            probs = random_probs(rng, n, k)
            labels = rng.integers(0, k, size=n)
            mask = rng.integers(0, 2, size=n).astype(bool)
            if mask.any():
                p_c, p_c_lower = penalty_correct(probs, labels, mask)
                assert p_c_lower <= p_c + 1e-14, f"trial {trial}"
            if (~mask).any():
                p_m, p_m_lower = penalty_wrong(probs, labels, mask)
                assert p_m_lower <= p_m + 1e-14, f"trial {trial}"
                jensen = jensen_middle_wrong(probs, labels, mask)
                assert jensen <= p_m + 1e-14, f"trial {trial}"

    def test_exact_decomposition(self):
        rng = make_rng(1)
        probs = random_probs(rng, 10, 5)
        labels = rng.integers(0, 5, size=10)
        mask = np.ones(10, dtype=bool)
        mask[::2] = False
        p_m, p_m_lower = penalty_wrong(probs, labels, mask)
        jensen = jensen_middle_wrong(probs, labels, mask)
        assert p_m == pytest.approx(p_m_lower + jensen, rel=1e-12)

    def test_pairing_bounded_by_two(self):
        rng = make_rng(2)
        clean = random_probs(rng, 50, 4)
        adv = random_probs(rng, 50, 4)
        value = adversarial_pairing(clean, adv, np.ones(50, dtype=bool))
        assert 0.0 <= value <= 2.0

    def test_empty_subsets_raise(self):
        probs = np.array([[0.6, 0.4]])
        with pytest.raises(EmptySubsetError):
            penalty_correct(probs, [0], [False])
        with pytest.raises(EmptySubsetError):
            penalty_wrong(probs, [0], [True])
        with pytest.raises(EmptySubsetError):
            adversarial_pairing(probs, probs, [False])


def three_pass_oracle(clean_logits, labels, mask, epoch, sched, adv_logits=None):
    """The penalty path as first written: all six penalty values from the
    standalone functions, the scheduled loss from them, and the gradients
    from separate per-subset passes that each recompute softmax.  Returns
    (penalty_loss, clean_grad, adv_grad) like loat()."""
    clean_logits = np.asarray(clean_logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    zeros = np.zeros_like(clean_logits)
    early, late = epoch <= sched.e1, epoch >= sched.e2
    if sched.variant == "OFF" or not (early or late):
        return 0.0, zeros, zeros.copy()
    probs = softmax_rows(clean_logits)
    p_c = penalty_correct(probs, labels, mask)[1] if mask.any() else None
    p_m = penalty_wrong(probs, labels, mask)[1] if (~mask).any() else None
    pair = None
    if sched.variant == "LORE" and adv_logits is not None:
        subset = ~mask if early else mask
        if subset.any():
            pair = adversarial_pairing(probs, softmax_rows(adv_logits), subset)
    p_c, p_m = p_c or 0.0, p_m or 0.0
    loss = 0.0 + (sched.tau * (p_c - p_m) if early else sched.tau * (p_m - p_c))
    if pair is not None:
        loss += sched.gamma * pair

    def chain(p, d):
        return p * (d - (d * p).sum(axis=1, keepdims=True))

    def lower_grad(subset):
        probs = softmax_rows(clean_logits)
        k, count, grad = probs.shape[1], int(subset.sum()), np.zeros_like(probs)
        if count:
            m = (probs.sum(axis=1) - probs[np.arange(len(labels)), labels]) / (k - 1)
            dev = probs - m[:, None]
            dev[np.arange(len(labels)), labels] = 0.0
            grad[subset] = (2.0 / (k - 1)) * dev[subset] / count
        return grad

    sign = 1.0 if early else -1.0
    d_sigma = sign * sched.tau * (lower_grad(mask) - lower_grad(~mask))
    adv_grad = zeros.copy()
    if sched.variant == "LORE" and adv_logits is not None:
        adv_probs = softmax_rows(adv_logits)
        subset = ~mask if early else mask
        count = int(subset.sum())
        d_clean, d_adv = np.zeros_like(probs), np.zeros_like(probs)
        if count:
            diff = 2.0 * (probs - adv_probs) / count
            d_clean[subset] = diff[subset]
            d_adv[subset] = -diff[subset]
        d_sigma = d_sigma + sched.gamma * d_clean
        adv_grad = chain(adv_probs, sched.gamma * d_adv)
    return loss, chain(probs, d_sigma), adv_grad


def random_case(rng, n, k):
    clean = rng.standard_normal((n, k))
    adv = clean + 0.5 * rng.standard_normal((n, k))
    labels = rng.integers(0, k, size=n)
    return clean, adv, labels


class TestLoat:
    """loat(): the applied penalty terms and their gradients in one pass."""

    def test_bit_identical_to_three_pass_path(self):
        rng = make_rng(7)
        for trial in range(300):
            n, k = int(rng.integers(1, 12)), int(rng.integers(2, 8))
            clean, adv, labels = random_case(rng, n, k)
            mask = rng.integers(0, 2, size=n).astype(bool)
            if trial % 5 == 0:
                mask[:] = trial % 10 == 0  # one subset empty
            sched = LoatSchedule(e1=2, e2=8, tau=float(rng.uniform(0, 2)),
                                 gamma=float(rng.uniform(0, 1)),
                                 variant=str(rng.choice(["SLORE", "LORE", "OFF"])))
            epoch = int(rng.choice([1, 2, 5, 8, 9]))
            adv_logits = adv if trial % 3 else None
            got = loat(clean, labels, mask, epoch, sched, adv_logits)
            want = three_pass_oracle(clean, labels, mask, epoch, sched, adv_logits)
            assert got[0] == want[0], f"trial {trial}"
            assert np.array_equal(got[1], want[1]), f"trial {trial}"
            assert np.array_equal(got[2], want[2]), f"trial {trial}"

    def test_applied_terms_match_standalone_penalties(self):
        # moved from the penalty-report test: every applied term is present
        rng = make_rng(3)
        clean, adv, labels = random_case(rng, 10, 4)
        mask = np.array([True] * 5 + [False] * 5)
        probs, adv_probs = softmax_rows(clean), softmax_rows(adv)
        p_c_low = penalty_correct(probs, labels, mask)[1]
        p_m_low = penalty_wrong(probs, labels, mask)[1]
        sched = LoatSchedule(e1=2, e2=8, tau=0.5, gamma=0.1, variant="LORE")
        early, _, _ = loat(clean, labels, mask, 1, sched, adv)
        late, _, _ = loat(clean, labels, mask, 9, sched, adv)
        assert early == 0.5 * (p_c_low - p_m_low) + 0.1 * adversarial_pairing(
            probs, adv_probs, ~mask)
        assert late == 0.5 * (p_m_low - p_c_low) + 0.1 * adversarial_pairing(
            probs, adv_probs, mask)

    def test_empty_subset_contributes_zero(self):
        rng = make_rng(4)
        clean, adv, labels = random_case(rng, 4, 3)
        mask = np.ones(4, dtype=bool)
        p_c_low = penalty_correct(softmax_rows(clean), labels, mask)[1]
        sched = LoatSchedule(e1=2, e2=8, tau=1.0, gamma=0.3, variant="LORE")
        # early: no wrong rows, so P_M_low and the AP_M pairing are absent
        loss, _, g_adv = loat(clean, labels, mask, 1, sched, adv)
        assert loss == pytest.approx(p_c_low, abs=1e-15)
        assert np.array_equal(g_adv, np.zeros((4, 3)))

    def test_middle_phase_is_identity(self):
        rng = make_rng(5)
        clean, adv, labels = random_case(rng, 6, 4)
        sched = LoatSchedule(e1=2, e2=8, variant="SLORE")
        for epoch in (3, 4, 7):
            loss, g_clean, g_adv = loat(clean, labels, np.ones(6, bool), epoch, sched, adv)
            assert loss == 0.0
            assert np.array_equal(g_clean, np.zeros((6, 4)))
            assert np.array_equal(g_adv, np.zeros((6, 4)))

    def test_off_returns_zeros(self):
        rng = make_rng(6)
        logits = rng.standard_normal((3, 4))
        loss, g_clean, g_adv = loat(logits, [0, 1, 2], [True, False, True],
                                    1, LoatSchedule(variant="OFF"))
        assert loss == 0.0
        assert np.array_equal(g_clean, np.zeros((3, 4)))
        assert np.array_equal(g_adv, np.zeros((3, 4)))

    def test_early_late_antisymmetry_slore(self):
        rng = make_rng(8)
        clean, _, labels = random_case(rng, 8, 5)
        mask = np.array([True, False] * 4)
        sched = LoatSchedule(e1=2, e2=8, tau=0.5, variant="SLORE")
        early, _, _ = loat(clean, labels, mask, 1, sched)
        late, _, _ = loat(clean, labels, mask, 9, sched)
        assert early != 0.0
        assert late == pytest.approx(-early, abs=1e-15)

    def test_lore_adds_pairing(self):
        rng = make_rng(9)
        clean, adv, labels = random_case(rng, 8, 5)
        mask = np.array([True, True, False] * 2 + [False, True])
        probs, adv_probs = softmax_rows(clean), softmax_rows(adv)
        slore = LoatSchedule(e1=2, e2=8, tau=0.5, gamma=0.1, variant="SLORE")
        lore = LoatSchedule(e1=2, e2=8, tau=0.5, gamma=0.1, variant="LORE")
        for epoch, subset in ((2, ~mask), (8, mask)):
            extra = loat(clean, labels, mask, epoch, lore, adv)[0] \
                - loat(clean, labels, mask, epoch, slore, adv)[0]
            assert extra == pytest.approx(
                0.1 * adversarial_pairing(probs, adv_probs, subset), abs=1e-15)

    def test_lore_without_adv_logits_has_no_pairing(self):
        rng = make_rng(10)
        clean, _, labels = random_case(rng, 6, 3)
        mask = np.array([True, False] * 3)
        lore = LoatSchedule(e1=2, e2=8, variant="LORE")
        slore = LoatSchedule(e1=2, e2=8, variant="SLORE")
        got, want = loat(clean, labels, mask, 1, lore), loat(clean, labels, mask, 1, slore)
        assert got[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))

    @pytest.mark.parametrize("variant", ["SLORE", "LORE"])
    @pytest.mark.parametrize("epoch", [1, 5, 9])
    def test_grad_matches_finite_differences(self, variant, epoch):
        rng = make_rng(5)
        n, k = 6, 4
        clean_logits = rng.standard_normal((n, k))
        adv_logits = rng.standard_normal((n, k))
        labels = rng.integers(0, k, size=n)
        mask = rng.integers(0, 2, size=n).astype(bool)
        if not mask.any():
            mask[0] = True
        if mask.all():
            mask[-1] = False
        sched = LoatSchedule(e1=2, e2=8, tau=0.7, gamma=0.2, variant=variant)

        def scheduled_penalty(cl, ad):
            return loat(cl, labels, mask, epoch, sched, ad)[0]

        _, g_clean, g_adv = loat(clean_logits, labels, mask, epoch, sched, adv_logits)
        num_clean = fd_matrix_grad(lambda m: scheduled_penalty(m, adv_logits),
                                   clean_logits)
        num_adv = fd_matrix_grad(lambda m: scheduled_penalty(clean_logits, m),
                                 adv_logits)
        if epoch == 5:
            assert np.array_equal(g_clean, np.zeros((n, k)))
            assert np.array_equal(g_adv, np.zeros((n, k)))
        else:
            assert max_rel_err(g_clean, num_clean) < 1e-6
            if variant == "LORE":
                assert max_rel_err(g_adv, num_adv) < 1e-6
            else:
                assert np.array_equal(g_adv, np.zeros((n, k)))

    def test_mask_row_mismatch(self):
        with pytest.raises(ShapeError):
            loat(np.zeros((3, 2)), [0, 1, 0], [True, False], 1,
                 LoatSchedule(variant="SLORE"))

    @pytest.mark.parametrize("adv_shape", [(1, 3), (4, 2), (4, 3, 1)])
    def test_adv_logits_of_another_shape_rejected(self, adv_shape):
        # a 1-row matrix against 4 clean rows used to broadcast into a penalty
        clean = make_rng(8).standard_normal((4, 3))
        with pytest.raises(ShapeError, match="^adv_logits must have shape"):
            loat(clean, [0, 1, 2, 0], [True, False, True, False], 1,
                 LoatSchedule(variant="LORE"), np.zeros(adv_shape))

    @pytest.mark.parametrize("adv_shape", [(2, 1, 3), (1, 4, 3), (4, 3)])
    def test_stacked_adv_logits_of_another_shape_rejected(self, adv_shape):
        clean = make_rng(9).standard_normal((2, 4, 3))
        labels = [[0, 1, 2, 0], [2, 2, 1, 0]]
        mask = [[True, False, True, False], [False, True, True, False]]
        with pytest.raises(ShapeError, match="^adv_logits must have shape"):
            loat(clean, labels, mask, 1, LoatSchedule(variant="LORE"), np.zeros(adv_shape))


class TestPhase:
    def test_phase_by_epoch(self):
        sched = LoatSchedule(e1=2, e2=4, variant="SLORE")
        assert [sched.phase(e) for e in range(1, 6)] == ["early", "early", "off", "late", "late"]
        assert LoatSchedule(e1=3, e2=3, variant="LORE").phase(3) == "early"
        off = LoatSchedule(e1=2, e2=4, variant="OFF")
        assert {off.phase(e) for e in range(1, 6)} == {"off"}


# Each function with a 4-row, 3-class input and its arguments around the labels and mask.
BAD_INPUT_CALLS = {
    "loat": lambda probs, labels, mask: loat(
        probs, labels, mask, 1, LoatSchedule(e1=1, e2=9, variant="LORE"), probs[::-1]),
    "penalty_correct": penalty_correct,
    "penalty_wrong": penalty_wrong,
    "jensen_middle_wrong": jensen_middle_wrong,
}


class TestBadLabelsAndMasks:
    """Labels -1 or K are a ParameterError and a mis-shaped mask a ShapeError;
    a label -1 used to be read as class K-1 and a label K raised a bare IndexError."""

    probs = random_probs(make_rng(21), 4, 3)
    mask = np.array([True, False, True, False])

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("name", sorted(BAD_INPUT_CALLS))
    def test_label_out_of_range(self, name, bad):
        with pytest.raises(ParameterError):
            BAD_INPUT_CALLS[name](self.probs, [0, 1, bad, 2], self.mask)

    @pytest.mark.parametrize("mask", [True, [[True], [False], [True], [False]]],
                             ids=["scalar", "column"])
    @pytest.mark.parametrize("name", sorted(BAD_INPUT_CALLS))
    def test_mask_not_a_row_vector(self, name, mask):
        with pytest.raises(ShapeError):
            BAD_INPUT_CALLS[name](self.probs, [0, 1, 2, 0], mask)

    @pytest.mark.parametrize("mask", [True, [True, False, True], [True] * 5,
                                      [[True], [False], [True], [False]]],
                             ids=["scalar", "short", "long", "column"])
    def test_pairing_mask_shape(self, mask):
        with pytest.raises(ShapeError):
            adversarial_pairing(self.probs, self.probs[::-1], mask)
