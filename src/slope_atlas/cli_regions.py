"""The `monodromy` and `region` commands, which load the region modules."""

from .cli_output import _emit, _emit_json
from .lspace import two_component_region
from .monodromy import (coherent_orientations, foliation_region, intervals,
                        labels, parse_monodromy)
from .rational import parse_int
from .whitehead import wl_foliation_region


def _arc_json(a):
    return {"start": str(a.start), "end": str(a.end),
            "start_closed": a.start_closed, "end_closed": a.end_closed}


def _region_json(r):
    return {"dim": r.dim,
            "boxes": [[_arc_json(a) for a in box] for box in r.boxes],
            "lines": list(r.lines)}


def _region_lines(r):
    return ["  " + piece for piece in r.pieces() or ["(empty)"]]


def cmd_monodromy(args):
    m = parse_monodromy(args.word)
    labs = labels(m)
    i_arcs, j_arcs = intervals(m)
    o1, o2 = coherent_orientations(m)
    region = foliation_region(m)
    if args.json:
        doc = {
            "monodromy": str(m),
            "labels": [str(lab) for lab in labs],
            "intervals": {"I": [str(a) for a in i_arcs],
                          "J": [str(a) for a in j_arcs]},
            "orientations": [
                {"directions": list(o.directions),
                 "n_types": {str(i): str(t) for i, t in o.n_types}}
                for o in (o1, o2)
            ],
            "foliation_region": _region_json(region),
        }
        _emit_json(doc, args.out)
        return 0
    lines = [f"monodromy: {m}",
             "labels: " + " ".join(str(lab) for lab in labs),
             "I: " + " x ".join(str(a) for a in i_arcs),
             "J: " + " x ".join(str(a) for a in j_arcs)]
    for name, o in (("orientation 1", o1), ("orientation 2", o2)):
        dirs = " ".join("<-" if d else "->" for d in o.directions)
        if o.n_types:
            types = " ".join(f"{i}:{t}" for i, t in o.n_types)
            lines.append(f"{name}: {dirs}  ({types})")
        else:
            lines.append(f"{name}: {dirs}")
    lines.append("foliation region:")
    lines.extend(_region_lines(region))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_region(args):
    b1 = parse_int(args.b1, "--b1 value")
    b2 = parse_int(args.b2, "--b2 value")
    if b1 < 0 or b2 < 0:
        raise ValueError("framings must be nonnegative integers")
    lspace = two_component_region(b1, b2)
    foliation = wl_foliation_region()
    # The foliation side ignores the framings: it is the Whitehead link's.
    whose = " (Whitehead link, b1=0, b2=0)" if b1 or b2 else ""
    if args.json:
        doc = {"lspace_region": _region_json(lspace),
               "foliation_region": _region_json(foliation),
               **({"foliation_link": "whitehead"} if whose else {})}
        _emit_json(doc, args.out)
        return 0
    lines = [f"L-space region (b1={b1}, b2={b2}):"]
    lines.extend(_region_lines(lspace))
    lines.append(f"taut-foliation region{whose}:")
    lines.extend(_region_lines(foliation))
    _emit("\n".join(lines) + "\n", args.out)
    return 0
