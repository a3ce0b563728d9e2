"""The state-vector signature and its array code against the dict and loops
they replaced.

`OracleSignature` is the {(r1, r2): state} dict a `ContactSignature` was;
`oracle_segmentation_from_signature`, `oracle_coarsen_signature`,
`oracle_iou_signature`, `oracle_contact_stats`, `oracle_loss_separation` and
`oracle_signature_similarity_loss` are the loops over its pairs. The array
code must give the same pair lists, states, equality, repr, segmentations,
coarsened signatures, IoUs and tallies, loss values and gradients equal to
the bit, and the same validation errors.

The random signatures come at 9, 17, 37 and 75 regions, built from items
in shuffled order, about half of them as (r2, r1), with some no-contact
rows and some rows repeated; empty, all-masked and all-contact signatures
are the edge cases.
"""

from collections import Counter

import numpy as np
import pytest

from contactfit.contact import (ContactSignature, ContactState,
                                coarsen_signature, contact_stats,
                                iou_signature, segmentation_from_signature)
from contactfit.errors import ParameterError
from contactfit.regions import CoarsenMap
from contactfit.train_losses import (LandmarkSet, loss_separation,
                                     positive_class_weight,
                                     signature_similarity_loss, _sigmoid,
                                     _softplus)

C = ContactState.CONTACT
M = ContactState.MASKED
N = ContactState.NO_CONTACT


def _oracle_norm_pair(r1, r2, granularity):
    if r1 == r2:
        raise ParameterError(f"pair ({r1}, {r2}) is on the diagonal")
    if not (0 <= r1 < granularity and 0 <= r2 < granularity):
        raise ParameterError(f"pair ({r1}, {r2}) out of range for {granularity}")
    return (r1, r2) if r1 < r2 else (r2, r1)


class OracleSignature:
    def __init__(self, granularity, pairs=None):
        if granularity < 2:
            raise ParameterError("signature needs at least 2 regions")
        self.granularity = int(granularity)
        states = {}
        if pairs:
            items = pairs.items() if isinstance(pairs, dict) else pairs
            for (r1, r2), state in items:
                state = ContactState(state)
                key = _oracle_norm_pair(int(r1), int(r2), self.granularity)
                prev = states.setdefault(key, state)
                if prev != state:
                    raise ParameterError(f"conflicting states for pair {key}: "
                                         f"{prev.name} and {state.name}")
        self._entries = {k: v for k, v in states.items()
                         if v != ContactState.NO_CONTACT}

    def state(self, r1, r2):
        key = _oracle_norm_pair(r1, r2, self.granularity)
        return self._entries.get(key, ContactState.NO_CONTACT)

    def contact_pairs(self):
        return sorted(k for k, v in self._entries.items() if v == ContactState.CONTACT)

    def masked_pairs(self):
        return sorted(k for k, v in self._entries.items() if v == ContactState.MASKED)

    def __eq__(self, other):
        return (self.granularity == other.granularity
                and self._entries == other._entries)

    def __repr__(self):
        return (f"ContactSignature(n={self.granularity}, "
                f"contact={len(self.contact_pairs())}, masked={len(self.masked_pairs())})")


def oracle_segmentation_from_signature(sig):
    states = np.zeros(sig.granularity, dtype=int)
    for r1, r2 in sig.masked_pairs():
        for r in (r1, r2):
            if states[r] == ContactState.NO_CONTACT:
                states[r] = ContactState.MASKED
    for r1, r2 in sig.contact_pairs():
        states[r1] = ContactState.CONTACT
        states[r2] = ContactState.CONTACT
    return states


def oracle_coarsen_signature(sig, cmap):
    entries = {}
    for (r1, r2), state in sig._entries.items():
        a, b = cmap.mapping[r1], cmap.mapping[r2]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        prev = entries.get(key, ContactState.NO_CONTACT)
        if state == ContactState.CONTACT or prev == ContactState.CONTACT:
            entries[key] = ContactState.CONTACT
        else:
            entries[key] = ContactState.MASKED
    return OracleSignature(cmap.coarse, entries)


def oracle_iou_signature(a, b):
    masked = set(a.masked_pairs()) | set(b.masked_pairs())
    sa = set(a.contact_pairs()) - masked
    sb = set(b.contact_pairs()) - masked
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def oracle_contact_stats(signatures):
    n = signatures[0].granularity
    region_counts = np.zeros(n, dtype=int)
    pair_counts = Counter()
    for s in signatures:
        for r1, r2 in s.contact_pairs():
            region_counts[r1] += 1
            region_counts[r2] += 1
            pair_counts[(r1, r2)] += 1
    return region_counts, pair_counts


def oracle_loss_separation(pred, sig, sigma_sq=0.025):
    value = 0.0
    grad = np.zeros_like(pred.coords)
    n = pred.granularity
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            if sig.state(r1, r2) != ContactState.NO_CONTACT:
                continue
            diff = pred.coords[r1] - pred.coords[r2]
            term = np.exp(-float(diff @ diff) / (2.0 * sigma_sq))
            value += term
            g = term * (-diff / sigma_sq)
            grad[r1] += g
            grad[r2] -= g
    return value, grad


def oracle_signature_similarity_loss(F, gt_sig, metric="dot", pos_weight=None):
    n = gt_sig.granularity
    pairs = [(r1, r2) for r1 in range(n) for r2 in range(r1 + 1, n)
             if gt_sig.state(r1, r2) != ContactState.MASKED]
    num_pos = sum(1 for p in pairs if gt_sig.state(*p) == ContactState.CONTACT)
    if pos_weight is None:
        pos_weight = positive_class_weight(num_pos, len(pairs) - num_pos)
    value = 0.0
    grad = np.zeros_like(F)
    for r1, r2 in pairs:
        if metric == "dot":
            s = float(F[r1] @ F[r2])
            ds_d1, ds_d2 = F[r2], F[r1]
        else:
            diff = F[r1] - F[r2]
            s = -float(diff @ diff)
            ds_d1, ds_d2 = -2.0 * diff, 2.0 * diff
        y = 1.0 if gt_sig.state(r1, r2) == ContactState.CONTACT else 0.0
        w = pos_weight if y == 1.0 else 1.0
        value += w * (_softplus(s) - y * s)
        dv_ds = w * (_sigmoid(s) - y)
        grad[r1] += dv_ds * ds_d1
        grad[r2] += dv_ds * ds_d2
    return float(value), grad


# -- random signatures ------------------------------------------------------

SIZES = (9, 17, 37, 75)


def _items(rng, n, weights=(0.8, 0.1, 0.1)):
    """((r1, r2), state) items at n regions: every pair with probability
    0.4, drawn as no-contact, contact or masked by `weights`, in shuffled
    order and orientation, with a tenth of them repeated."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
    states = rng.choice([N, C, M], size=len(pairs), p=weights)
    items = [((b, a) if rng.random() < 0.5 else (a, b), ContactState(s))
             for (a, b), s in zip(pairs, states)]
    items += [items[i] for i in rng.integers(len(items), size=len(items) // 10)]
    return [items[i] for i in rng.permutation(len(items))]


def _full(n, state):
    return [((a, b), state) for a in range(n) for b in range(a + 1, n)]


def _cases():
    """(name, n, items): random signatures at every size, and the edge cases."""
    cases = []
    for n in SIZES:
        rng = np.random.default_rng(n)
        cases += [(f"random-{n}-{i}", n, _items(rng, n, w)) for i, w in
                  enumerate([(0.8, 0.1, 0.1), (0.98, 0.01, 0.01), (0.3, 0.4, 0.3)])]
        cases += [(f"empty-{n}", n, []), (f"masked-{n}", n, _full(n, M)),
                  (f"contact-{n}", n, _full(n, C))]
    return cases


CASES = _cases()


def _both(n, items):
    return ContactSignature(n, items), OracleSignature(n, items)


def _random_map(rng, fine, coarse):
    mapping = np.concatenate([np.arange(coarse), rng.integers(coarse, size=fine - coarse)])
    return CoarsenMap(fine, coarse, rng.permutation(mapping))


@pytest.mark.parametrize("name, n, items", CASES, ids=[c[0] for c in CASES])
def test_signature_matches_the_dict(name, n, items):
    sig, oracle = _both(n, items)
    assert sig.contact_pairs() == oracle.contact_pairs()
    assert sig.masked_pairs() == oracle.masked_pairs()
    assert all(type(r) is int for pair in sig.contact_pairs() + sig.masked_pairs()
               for r in pair)
    assert repr(sig) == repr(oracle)
    for a in range(n):
        for b in range(n):
            if a != b:
                assert sig.state(a, b) is oracle.state(a, b)
    assert ContactSignature(n, dict(items)) == sig
    assert ContactSignature.from_sets(n, oracle.contact_pairs(),
                                      oracle.masked_pairs()) == sig
    assert np.array_equal(segmentation_from_signature(sig).states,
                          oracle_segmentation_from_signature(oracle))


@pytest.mark.parametrize("n", SIZES)
def test_equality_iou_and_stats_match_the_loops(n):
    built = [_both(n, items) for name, size, items in CASES if size == n]
    rng = np.random.default_rng(100 + n)
    for _ in range(4):  # near misses: one pair's state changed
        _, _, items = CASES[SIZES.index(n) * 6]
        i = rng.integers(len(items))
        (pair, state) = items[i]
        changed = [(p, s) for p, s in items if sorted(p) != sorted(pair)]
        built.append(_both(n, changed + [(pair, ContactState((state + 1) % 3))]))
    for sig_a, oracle_a in built:
        for sig_b, oracle_b in built:
            assert (sig_a == sig_b) == (oracle_a == oracle_b)
            assert iou_signature(sig_a, sig_b) == oracle_iou_signature(oracle_a, oracle_b)
    stats = contact_stats([sig for sig, _ in built])
    region_counts, pair_counts = oracle_contact_stats([oracle for _, oracle in built])
    assert stats.granularity == n
    assert stats.region_counts.dtype == region_counts.dtype
    assert np.array_equal(stats.region_counts, region_counts)
    assert isinstance(stats.pair_counts, Counter) and stats.pair_counts == pair_counts


def test_coarsening_matches_the_loop(synthetic_body):
    rng = np.random.default_rng(5)
    maps = list(synthetic_body.coarsen_maps.values())
    maps += [_random_map(rng, fine, coarse) for fine, coarse in
             [(9, 2), (9, 3), (17, 5), (37, 20), (75, 74), (75, 2)]]
    maps += [CoarsenMap.identity(n) for n in SIZES]
    for cmap in maps:
        for name, n, items in CASES:
            if n != cmap.fine:
                continue
            sig, oracle = _both(n, items)
            got, want = coarsen_signature(sig, cmap), oracle_coarsen_signature(oracle, cmap)
            assert got.granularity == want.granularity
            assert got.contact_pairs() == want.contact_pairs(), (name, cmap)
            assert got.masked_pairs() == want.masked_pairs(), (name, cmap)


# -- training losses -------------------------------------------------------

@pytest.mark.parametrize("name, n, items", CASES, ids=[c[0] for c in CASES])
def test_separation_loss_matches_the_loop(name, n, items):
    sig, oracle = _both(n, items)
    rng = np.random.default_rng(n + len(items))
    for coords, sigma_sq in [(rng.random((n, 2)), 0.025),
                             (rng.normal(0.5, 0.05, (n, 2)), 0.01)]:
        lms = LandmarkSet(n, coords)
        value, grad = loss_separation(lms, sig, sigma_sq=sigma_sq)
        want_value, want_grad = oracle_loss_separation(lms, oracle, sigma_sq=sigma_sq)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("metric", ["dot", "neg-sq-euclidean"])
@pytest.mark.parametrize("name, n, items", CASES, ids=[c[0] for c in CASES])
def test_similarity_loss_matches_the_loop(name, n, items, metric):
    sig, oracle = _both(n, items)
    rng = np.random.default_rng(2 * n + len(items))
    for F, pos_weight in [(rng.normal(0.0, 1.0, (n, 16)), None),
                          (rng.normal(0.0, 0.5, (n, 3)), 2.5)]:
        value, grad = signature_similarity_loss(F, sig, metric=metric, pos_weight=pos_weight)
        want_value, want_grad = oracle_signature_similarity_loss(F, oracle, metric, pos_weight)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


# -- validation ------------------------------------------------------------

def _invalid_items(seed):
    """Valid items at 9 regions with one to three bad ones put in: a pair on
    the diagonal, a region out of range, a state that is not a ContactState,
    or a pair given again with another state."""
    rng = np.random.default_rng(seed)
    items = _items(rng, 9)
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(4)
        a, b = (int(r) for r in rng.choice(9, size=2, replace=False))
        if kind == 0:
            bad = ((a, a), C)
        elif kind == 1:
            bad = ((a, int(rng.choice([-1, -5, 9, 12]))), M)
        elif kind == 2:
            bad = ((a, b), [3, -1, 1.5, "contact", None][rng.integers(5)])
        else:
            pair, state = items[rng.integers(len(items))]
            bad = (pair[::-1] if rng.random() < 0.5 else pair, ContactState((state + 1) % 3))
        items.insert(int(rng.integers(len(items) + 1)), bad)
    return items


@pytest.mark.parametrize("seed", range(40))
def test_validation_reports_what_the_dict_did(seed):
    items = _invalid_items(seed)
    with pytest.raises(Exception) as want:
        OracleSignature(9, items)
    with pytest.raises(Exception) as got:
        ContactSignature(9, items)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_too_few_regions_rejected_as_before(n):
    with pytest.raises(ParameterError, match="at least 2 regions"):
        ContactSignature(n, [((0, 1), C)])
    with pytest.raises(ParameterError, match="at least 2 regions"):
        coarsen_signature(ContactSignature(2), CoarsenMap(2, 1, [0, 0]))
