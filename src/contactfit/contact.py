"""Self-contact representations: signature (region pairs), segmentation
(per region), image support (per-region 2D point), and their algebra.

A signature is a tri-state value per unordered region pair r1 < r2, held as
an int8 state vector over the row-major upper triangle (`_key`, `_triangle`):
position order is sorted pair order, and every operation is array code.
"""

import functools
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import GranularityError, ParameterError


class ContactState(IntEnum):
    NO_CONTACT = 0
    CONTACT = 1
    MASKED = 2


# plain ints: numpy converts an IntEnum operand first, several times slower
_CONTACT, _MASKED = int(ContactState.CONTACT), int(ContactState.MASKED)


def _norm_pair(r1, r2, granularity):
    if r1 == r2:
        raise ParameterError(f"pair ({r1}, {r2}) is on the diagonal")
    if not (0 <= r1 < granularity and 0 <= r2 < granularity):
        raise ParameterError(f"pair ({r1}, {r2}) out of range for {granularity}")
    return (r1, r2) if r1 < r2 else (r2, r1)


def _key(r1, r2, n):
    """Position of the pair (r1, r2), r1 < r2, in the row-major upper triangle
    of n regions, for scalars or arrays. Row r1 starts at r1 (2n - r1 - 1) / 2."""
    return r1 * (2 * n - 3 - r1) // 2 + r2 - 1


@functools.cache
def _triangle(n):
    """(r1, r2) arrays of every pair r1 < r2 of n regions, in key order."""
    r1, r2 = np.triu_indices(n, 1)
    r1.flags.writeable = r2.flags.writeable = False
    return r1, r2


def _pair_states(sig):
    """(r1, r2, state) arrays over every pair r1 < r2, in sorted pair order."""
    return (*_triangle(sig.granularity), sig._states)


def _no_contact(granularity):
    """(n, an all-no-contact state vector) for `granularity` regions."""
    if granularity < 2:
        raise ParameterError("signature needs at least 2 regions")
    n = int(granularity)
    return n, np.zeros(n * (n - 1) // 2, dtype=np.int8)


def _checked_states(granularity, items):
    """(n, the read-only state vector of the ((r1, r2), state) items). The
    first invalid item raises: a state that is not a ContactState, a pair on
    the diagonal or out of range, or a pair given before with another state."""
    n, vector = _no_contact(granularity)
    r1, r2 = np.asarray([p for p, _ in items], dtype=np.int64).reshape(-1, 2).T
    states = np.asarray([s for _, s in items], dtype=object)
    lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
    ok = ((states == 0) | (states == 1) | (states == 2)) & (r1 != r2) & (lo >= 0) & (hi < n)
    keys = np.where(ok, _key(lo, hi, n), -1 - np.arange(len(ok)))  # invalid: unique
    codes = np.where(ok, states, 0).astype(np.int8)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    prev = codes[first][inverse]  # the state each item's pair was first given
    bad = np.flatnonzero(~ok | (prev != codes))
    if bad.size:
        i = bad[0]
        state = ContactState(states[i])  # raises for a state that is not one
        key = _norm_pair(int(r1[i]), int(r2[i]), n)  # raises for a bad pair
        raise ParameterError(f"conflicting states for pair {key}: "
                             f"{ContactState(prev[i]).name} and {state.name}")
    vector[keys] = codes
    vector.flags.writeable = False
    return n, vector


class ContactSignature:
    """Tri-state contact relation over unordered region pairs, as a state
    vector. `pairs` is a {(r1, r2): state} dict or an iterable of
    ((r1, r2), state), a pair in either order and repeated only with the same
    state. With no mutator, the pair lists are built once, on first use."""

    def __init__(self, granularity, pairs=None):
        items = list(pairs.items() if isinstance(pairs, dict) else pairs) if pairs else []
        self.granularity, self._states = _checked_states(granularity, items)

    @classmethod
    def from_sets(cls, granularity, contact=(), masked=()):
        pairs = [(p, ContactState.CONTACT) for p in contact]
        pairs += [(p, ContactState.MASKED) for p in masked]
        return cls(granularity, pairs)

    @classmethod
    def _of_states(cls, n, states):
        """A signature of n regions holding `states`, taken over unchecked."""
        sig = cls.__new__(cls)
        sig.granularity, sig._states = n, states
        states.flags.writeable = False
        return sig

    @classmethod
    def _of_contact_rows(cls, granularity, rows):
        """The signature in contact on the rows of (M, 2) pairs r1 < r2, unchecked."""
        n, states = _no_contact(granularity)
        states[_key(rows[:, 0], rows[:, 1], n)] = _CONTACT
        return cls._of_states(n, states)

    @functools.cached_property
    def _pairs(self):
        """(contact pairs, masked pairs) as sorted lists of int tuples."""
        k = np.flatnonzero(self._states)  # the contact and masked pairs
        r1, r2, codes = (a[k] for a in _pair_states(self))
        return tuple(list(zip(r1[codes == s].tolist(), r2[codes == s].tolist()))
                     for s in (_CONTACT, _MASKED))

    def state(self, r1, r2):
        lo, hi = _norm_pair(r1, r2, self.granularity)
        return ContactState(self._states[_key(lo, hi, self.granularity)])

    def contact_pairs(self):
        return list(self._pairs[0])

    def masked_pairs(self):
        return list(self._pairs[1])

    def __eq__(self, other):
        if not isinstance(other, ContactSignature):
            return NotImplemented
        return (self.granularity == other.granularity
                and np.array_equal(self._states, other._states))

    def __repr__(self):
        return (f"ContactSignature(n={self.granularity}, "
                f"contact={len(self._pairs[0])}, masked={len(self._pairs[1])})")


class ContactSegmentation:
    """Tri-state contact flag per region."""

    def __init__(self, granularity, states):
        states = np.asarray(states, dtype=int)
        if states.shape != (granularity,):
            raise ParameterError("segmentation length must equal granularity")
        if not ((states >= 0) & (states <= 2)).all():
            raise ParameterError("segmentation states must be tri-state")
        self.granularity = int(granularity)
        self.states = states

    def __eq__(self, other):
        if not isinstance(other, ContactSegmentation):
            return NotImplemented
        return (self.granularity == other.granularity
                and np.array_equal(self.states, other.states))


class ImageSupport:
    """Per-region 2D contact location in normalized [0,1]^2 image coordinates."""

    def __init__(self, granularity, points=None):
        self.granularity = int(granularity)
        self.points = {}
        for r, xy in (points or {}).items():
            r = int(r)
            if not 0 <= r < self.granularity:
                raise ParameterError(f"support region {r} out of range")
            xy = (float(xy[0]), float(xy[1]))
            if not (0.0 <= xy[0] <= 1.0 and 0.0 <= xy[1] <= 1.0):
                raise ParameterError(f"support point {xy} outside [0,1]^2")
            self.points[r] = xy

    def regions(self):
        return sorted(self.points)

    def __eq__(self, other):
        if not isinstance(other, ImageSupport):
            return NotImplemented
        return self.granularity == other.granularity and self.points == other.points


def segmentation_from_signature(sig):
    """Region is contact iff it has any contact pair; masked iff it has no
    contact pair but at least one masked pair."""
    r1, r2, codes = _pair_states(sig)
    states = np.zeros(sig.granularity, dtype=int)
    for state in (_MASKED, _CONTACT):  # contact wins
        states[r1[codes == state]] = states[r2[codes == state]] = state
    return ContactSegmentation(sig.granularity, states)


def coarsen_signature(sig, cmap):
    """Map a signature through a fine->coarse surjection.

    A coarse pair is contact iff any mapped fine pair is contact, masked iff
    none is contact but some is masked. Fine pairs collapsing onto a single
    coarse region are dropped (the signature is defined on r1 != r2).
    """
    if cmap.fine != sig.granularity:
        raise GranularityError(
            f"signature granularity {sig.granularity} != coarsen fine {cmap.fine}")
    k = np.flatnonzero(sig._states)  # the contact and masked pairs
    r1, r2, codes = (a[k] for a in _pair_states(sig))
    a, b = cmap.mapping[r1], cmap.mapping[r2]
    n, states = _no_contact(cmap.coarse)
    keys = _key(np.minimum(a, b), np.maximum(a, b), n)
    for state in (_MASKED, _CONTACT):  # contact wins
        states[keys[(codes == state) & (a != b)]] = state
    return ContactSignature._of_states(n, states)


def _iou(a, b):
    """IoU of the contact entries of two state arrays, entries masked in either
    excluded; 1.0 when neither has any (agreement on "no self-contact").

    The states are bit flags, contact 0b01 and masked 0b10, so a | b is
    contact where either is contact and neither masked, a & b where both are."""
    union = int(np.count_nonzero((a | b) == _CONTACT))
    return int(np.count_nonzero((a & b) == _CONTACT)) / union if union else 1.0


def iou_signature(a, b):
    """IoU of the contact-pair sets, pairs masked in either input excluded."""
    if a.granularity != b.granularity:
        raise GranularityError(f"granularities differ: {a.granularity} vs {b.granularity}")
    return _iou(a._states, b._states)


def iou_segmentation(a, b):
    """IoU of contact-region sets, excluding regions masked in either input."""
    if a.granularity != b.granularity:
        raise GranularityError(f"granularities differ: {a.granularity} vs {b.granularity}")
    return _iou(a.states, b.states)


@dataclass
class ContactStats:
    granularity: int
    region_counts: np.ndarray      # (N_R,) contact occurrences per region
    pair_counts: Counter           # unordered pair -> count


def contact_stats(signatures):
    """Tally contact occurrences per region and per unordered pair."""
    signatures = list(signatures)
    if not signatures:
        raise ParameterError("need at least one signature")
    n = signatures[0].granularity
    for s in signatures[1:]:
        if s.granularity != n:
            raise GranularityError("mixed granularities in contact_stats")
    # the key of every contact pair of every signature, repeats kept
    keys = np.concatenate([np.flatnonzero(s._states == _CONTACT) for s in signatures])
    r1, r2 = (r[keys] for r in _triangle(n))
    return ContactStats(n, np.bincount(np.concatenate([r1, r2]), minlength=n),
                        Counter(zip(r1.tolist(), r2.tolist())))
