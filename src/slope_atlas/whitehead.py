"""Classifier for Dehn surgeries on the Whitehead link.

A surgery multislope (p1/q1, p2/q2) is classified along four axes: rational
homology sphere or not, L-space or taut-foliation side, vanishing of the
Euler class of the foliation constructed on the taut side, and left
orderability of the fundamental group.  Everything is decided by exact
comparisons and congruences; each verdict field carries rule tags naming the
decision rules that produced it.  The two region functions import the
region modules when called, so the verdict path loads none of them.
"""

import collections
import enum

# Pairing of the relative Euler class with either once-punctured-torus fiber
# half; fixed by the construction, independent of the filling.
FIBER_PAIRING = -1


class Ternary(enum.Enum):
    YES = "yes"
    NO = "no"
    NOT_APPLICABLE = "na"

    def __str__(self):
        return self.value


class Orderable(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"
    NOT_APPLICABLE = "na"

    def __str__(self):
        return self.value


class EulerBoundary(collections.namedtuple("EulerBoundary", "a b p q")):
    """Euler-class data at one filled boundary: the two pairing constants
    and the filling slope p/q with p > 0, q != 0."""

    __slots__ = ()

    def __new__(cls, a, b, p, q):
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        if q == 0:
            raise ValueError("q must be nonzero")
        return super().__new__(cls, a, b, p, q)


def euler_criterion(boundaries, e_tf_zero):
    """Whether the Euler class of the filled foliation vanishes: the
    unfilled class must vanish and a*q = b mod p must hold at every
    boundary."""
    if not e_tf_zero:
        return False
    return all((bd.a * bd.q - bd.b) % bd.p == 0 for bd in boundaries)


def _pq(slope):
    """(p, q) with p > 0 from a finite slope with nonzero numerator."""
    if slope.is_infinite():
        raise ValueError("slope must be finite")
    if slope.num == 0:
        raise ValueError("slope must have a nonzero numerator")
    p, q = slope.num, slope.den
    if p < 0:
        p, q = -p, -q
    return p, q


def wl_euler_data(s1, s2):
    """Euler boundary data for a Whitehead-link filling: a = -1 at both
    boundaries and b = +1 when q < 0, -1 when q > 0."""
    out = []
    for s in (s1, s2):
        p, q = _pq(s)
        out.append(EulerBoundary(a=FIBER_PAIRING, b=1 if q < 0 else -1,
                                 p=p, q=q))
    return tuple(out)


def _euler_congruence(p, q):
    """|q| = 1 mod p, the reduced Euler condition at one boundary."""
    return (abs(q) - 1) % p == 0


def wl_euler_vanishes(s1, s2):
    """Vanishing of the Euler class for a Whitehead-link filling, reduced
    form: |q| = 1 mod p at both boundaries (with p normalized positive)."""
    return all(_euler_congruence(*_pq(s)) for s in (s1, s2))


def wl_foliation_region():
    """Multislopes whose Whitehead-link filling carries a taut foliation:
    the fibration region of the monodromy plus the two mixed boxes, with
    the WL_SPECIAL_FIRST and WL_SPECIAL_SECOND tracks on the two boundaries
    in either order.  On finite slopes this is exactly min(s1, s2) < 1."""
    from .monodromy import (WL_MONODROMY, TrackTemplate, foliation_region,
                            realized_interval)
    from .slopes import Region, region_union
    first = realized_interval(TrackTemplate.WL_SPECIAL_FIRST)
    second = realized_interval(TrackTemplate.WL_SPECIAL_SECOND)
    return region_union(foliation_region(WL_MONODROMY),
                        Region(2, ((first, second), (second, first))))


def wl_lspace_region():
    """The L-space multislopes of the Whitehead link (framing zero on both
    components)."""
    from .lspace import two_component_region
    return two_component_region(0, 0)


class SurgeryVerdict(collections.namedtuple("SurgeryVerdict", [
        "slope", "is_qhs", "homology", "lspace", "taut_foliation",
        "euler_vanishing", "left_orderable", "citations"])):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "slope": [str(s) for s in self.slope],
            "qhs": self.is_qhs,
            "homology": list(self.homology),
            "lspace": self.lspace.value,
            "foliation": self.taut_foliation.value,
            "euler_zero": self.euler_vanishing.value,
            "left_orderable": self.left_orderable.value,
            "citations": list(self.citations),
        }


# The verdict fields that depend only on the two slopes' cells.
_Decision = collections.namedtuple("_Decision", [
    "is_qhs", "lspace", "taut_foliation", "euler_vanishing",
    "left_orderable", "citations"])


def _cell(num, den):
    """The cell of the slope num/den in lowest terms, which is all the
    verdict rules read from it: "zero", "inf", "positive-integer",
    "negative-integer", "above-one" (the non-integers above 1), "euler" (the
    non-integers p/q that meet the Euler congruence q = 1 mod |p|) or "other".

    The seven cells partition the slopes.  Every integer meets the
    congruence, as q = 1.  A non-integer p/q has q >= 2, and |p| > q would
    give 0 < q - 1 < |p|, so it meets the congruence only when |p| < q:
    "euler" and "other" both lie below 1."""
    if num == 0:
        return "zero"
    if den == 0:
        return "inf"
    if den == 1:
        return "positive-integer" if num > 0 else "negative-integer"
    if num > den:
        return "above-one"
    return "euler" if _euler_congruence(abs(num), den) else "other"


# The cells at or above the L-space threshold 1, and the cells that meet
# the Euler congruence.
_AT_LEAST_ONE = ("positive-integer", "above-one")
_EULER = ("positive-integer", "negative-integer", "euler")


def _decide(f1, f2):
    """The verdict rules, on the cells of the two slopes."""
    na = Ternary.NOT_APPLICABLE
    if "zero" in (f1, f2):
        return _Decision(False, na, na, na, Orderable.NOT_APPLICABLE,
                         ("non-qhs-zero-numerator",))
    if "inf" in (f1, f2):
        # Filling one component at infinity leaves an unknot exterior, so
        # the result is a lens space or the three-sphere.
        return _Decision(True, Ternary.YES, Ternary.NO, na, Orderable.NO,
                         ("lens-space-filling", "nonorderable-lens-or-s3"))
    is_lspace = f1 in _AT_LEAST_ONE and f2 in _AT_LEAST_ONE
    if is_lspace:
        lspace, foliation, euler = Ternary.YES, Ternary.NO, na
        citations = ["lspace-threshold"]
    else:
        lspace, foliation = Ternary.NO, Ternary.YES
        euler = Ternary.YES if f1 in _EULER and f2 in _EULER else Ternary.NO
        citations = ["foliation-below-one", "euler-congruence"]
    lo_yes, lo_no = [], []
    if euler is Ternary.YES:
        lo_yes.append("orderable-from-euler-vanishing")
    if "negative-integer" in (f1, f2):
        lo_yes.append("orderable-negative-integer-fiber")
    if is_lspace and "positive-integer" in (f1, f2):
        lo_no.append("nonorderable-positive-integer-lspace")
    orderable = (Orderable.YES if lo_yes else Orderable.NO if lo_no
                 else Orderable.UNKNOWN)
    return _Decision(True, lspace, foliation, euler, orderable,
                     tuple(citations + lo_yes + lo_no))


def classify(s1, s2):
    """Full verdict for the surgery multislope (s1, s2)."""
    d = _decide(_cell(s1.num, s1.den), _cell(s2.num, s2.den))
    return SurgeryVerdict((s1, s2), d.is_qhs, (abs(s1.num), abs(s2.num)),
                          *d[1:])


def plot_class(verdict):
    """Coarse class used by the scatter output: lspace, foliation or
    non-qhs.  Takes a verdict or a `_decide` result."""
    if not verdict.is_qhs:
        return "non-qhs"
    if verdict.lspace is Ternary.YES:
        return "lspace"
    return "foliation"
