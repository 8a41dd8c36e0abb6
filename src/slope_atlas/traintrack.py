"""Witnesses that a boundary train track realizes a slope.

Each template names the track induced on one boundary torus by a branched
surface; a measured lamination carried by the track realizes a boundary
slope, and the realizable slopes form an open arc.  The templates and their
arcs are defined in `monodromy`.  For the two annulus templates the text
fixes a two-weight parametrization (x, y) with slope x - y, so witnesses are
exact weight pairs; the other templates are sourced from pictures only and
their witnesses are membership certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .monodromy import TrackTemplate, realized_interval
from .slopes import ExtRational

_PARAMETRIC = (TrackTemplate.A0_POSITIVE, TrackTemplate.A0_NEGATIVE)


@dataclass(frozen=True)
class Witness:
    """Evidence that a slope is realized by a track template.

    Parametric witnesses carry the weight pair (x, y) with x - y equal to
    the slope; certificate witnesses carry only the slope and the realized
    arc it was checked against.
    """

    template: TrackTemplate
    slope: ExtRational
    parametric: bool
    x: ExtRational | None = None
    y: ExtRational | None = None

    @property
    def arc(self):
        return realized_interval(self.template)


def witness(template, slope):
    """A witness that the slope lies in the template's realized interval.

    Raises ValueError when the slope is not realized.  For the two annulus
    templates the weights are x = (max(0, s) + 1)/2 and y = x - s (or the
    mirror assignment), which meet the positivity constraints exactly when
    the slope is realized.
    """
    arc = realized_interval(template)
    if not arc.contains(slope):
        raise ValueError(f"slope {slope} is not realized by {template}: "
                         f"the realized interval is {arc}")
    if template not in _PARAMETRIC:
        return Witness(template, slope, parametric=False)
    s = slope.as_fraction()
    if template is TrackTemplate.A0_POSITIVE:
        x = (max(Fraction(0), s) + 1) / 2
        y = x - s
    else:
        y = (max(Fraction(0), -s) + 1) / 2
        x = s + y
    return Witness(template, slope, parametric=True,
                   x=ExtRational.from_fraction(x),
                   y=ExtRational.from_fraction(y))
