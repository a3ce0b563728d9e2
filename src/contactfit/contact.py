"""Self-contact representations: signature (region pairs), segmentation
(per region), image support (per-region 2D point), and their algebra.

A signature stores tri-state values on unordered region pairs, so symmetry
holds by construction; within-region pairs are undefined.
"""

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import GranularityError, ParameterError


class ContactState(IntEnum):
    NO_CONTACT = 0
    CONTACT = 1
    MASKED = 2


def _norm_pair(r1, r2, granularity):
    if r1 == r2:
        raise ParameterError(f"pair ({r1}, {r2}) is on the diagonal")
    if not (0 <= r1 < granularity and 0 <= r2 < granularity):
        raise ParameterError(f"pair ({r1}, {r2}) out of range for {granularity}")
    return (r1, r2) if r1 < r2 else (r2, r1)


class ContactSignature:
    """Tri-state contact relation over unordered region pairs."""

    def __init__(self, granularity, pairs=None):
        if granularity < 2:
            raise ParameterError("signature needs at least 2 regions")
        self.granularity = int(granularity)
        states = {}
        if pairs:
            items = pairs.items() if isinstance(pairs, dict) else pairs
            for (r1, r2), state in items:
                state = ContactState(state)
                key = _norm_pair(int(r1), int(r2), self.granularity)
                prev = states.setdefault(key, state)
                if prev != state:
                    raise ParameterError(f"conflicting states for pair {key}: "
                                         f"{prev.name} and {state.name}")
        self._entries = {k: v for k, v in states.items()
                         if v != ContactState.NO_CONTACT}

    @classmethod
    def from_sets(cls, granularity, contact=(), masked=()):
        pairs = [(p, ContactState.CONTACT) for p in contact]
        pairs += [(p, ContactState.MASKED) for p in masked]
        return cls(granularity, pairs)

    def state(self, r1, r2):
        key = _norm_pair(r1, r2, self.granularity)
        return self._entries.get(key, ContactState.NO_CONTACT)

    def contact_pairs(self):
        return sorted(k for k, v in self._entries.items() if v == ContactState.CONTACT)

    def masked_pairs(self):
        return sorted(k for k, v in self._entries.items() if v == ContactState.MASKED)

    def all_pairs(self):
        """Every unordered pair (r1 < r2) at this granularity."""
        n = self.granularity
        return [(a, b) for a in range(n) for b in range(a + 1, n)]

    def __eq__(self, other):
        if not isinstance(other, ContactSignature):
            return NotImplemented
        return (self.granularity == other.granularity
                and self._entries == other._entries)

    def __repr__(self):
        return (f"ContactSignature(n={self.granularity}, "
                f"contact={len(self.contact_pairs())}, masked={len(self.masked_pairs())})")


class ContactSegmentation:
    """Tri-state contact flag per region."""

    def __init__(self, granularity, states):
        states = np.asarray(states, dtype=int)
        if states.shape != (granularity,):
            raise ParameterError("segmentation length must equal granularity")
        if not np.isin(states, [0, 1, 2]).all():
            raise ParameterError("segmentation states must be tri-state")
        self.granularity = int(granularity)
        self.states = states

    def contact_regions(self):
        return set(np.flatnonzero(self.states == ContactState.CONTACT).tolist())

    def masked_regions(self):
        return set(np.flatnonzero(self.states == ContactState.MASKED).tolist())

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
    states = np.zeros(sig.granularity, dtype=int)
    for r1, r2 in sig.masked_pairs():
        for r in (r1, r2):
            if states[r] == ContactState.NO_CONTACT:
                states[r] = ContactState.MASKED
    for r1, r2 in sig.contact_pairs():
        states[r1] = ContactState.CONTACT
        states[r2] = ContactState.CONTACT
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
    return ContactSignature(cmap.coarse, entries)


def coarsen_segmentation(seg, cmap):
    """Coarse region is contact iff any fine member is contact; masked iff
    none is contact but some is masked."""
    if cmap.fine != seg.granularity:
        raise GranularityError(
            f"segmentation granularity {seg.granularity} != coarsen fine {cmap.fine}")
    states = np.zeros(cmap.coarse, dtype=int)
    for fine_r in range(cmap.fine):
        a = cmap.mapping[fine_r]
        s = seg.states[fine_r]
        if s == ContactState.CONTACT:
            states[a] = ContactState.CONTACT
        elif s == ContactState.MASKED and states[a] == ContactState.NO_CONTACT:
            states[a] = ContactState.MASKED
    return ContactSegmentation(cmap.coarse, states)


def iou_signature(a, b):
    """Intersection over union of the contact-pair sets.

    Pairs masked in either input are excluded from both sets; two empty
    sets have IoU 1.0 (perfect agreement on "no self-contact").
    """
    if a.granularity != b.granularity:
        raise GranularityError(f"granularities differ: {a.granularity} vs {b.granularity}")
    masked = set(a.masked_pairs()) | set(b.masked_pairs())
    sa = set(a.contact_pairs()) - masked
    sb = set(b.contact_pairs()) - masked
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def iou_segmentation(a, b):
    """IoU of contact-region sets, excluding regions masked in either input."""
    if a.granularity != b.granularity:
        raise GranularityError(f"granularities differ: {a.granularity} vs {b.granularity}")
    masked = a.masked_regions() | b.masked_regions()
    sa = a.contact_regions() - masked
    sb = b.contact_regions() - masked
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


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
    region_counts = np.zeros(n, dtype=int)
    pair_counts = Counter()
    for s in signatures:
        for r1, r2 in s.contact_pairs():
            region_counts[r1] += 1
            region_counts[r2] += 1
            pair_counts[(r1, r2)] += 1
    return ContactStats(n, region_counts, pair_counts)


def merge_support_clicks(granularity, clicks):
    """Average multiple annotation clicks per region into one support point.

    clicks: mapping region -> iterable of (x, y) in [0,1]^2.
    """
    points = {}
    for r, pts in clicks.items():
        pts = np.asarray(list(pts), dtype=float)
        if pts.size == 0:
            continue
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ParameterError(f"click outside [0,1]^2 for region {r}")
        mean = pts.mean(axis=0)
        points[int(r)] = (float(mean[0]), float(mean[1]))
    return ImageSupport(granularity, points)


def precision_recall(pred, gt):
    """Generic precision/recall over binary contact entries of two signatures.

    Pairs masked in either signature are excluded. Returns (precision, recall),
    each None when undefined (no predicted / no ground-truth positives).
    """
    if pred.granularity != gt.granularity:
        raise GranularityError("granularities differ")
    masked = set(pred.masked_pairs()) | set(gt.masked_pairs())
    sp = set(pred.contact_pairs()) - masked
    sg = set(gt.contact_pairs()) - masked
    tp = len(sp & sg)
    precision = tp / len(sp) if sp else None
    recall = tp / len(sg) if sg else None
    return precision, recall
