"""Command-line interface tying the library together.

Each command is one entry of ``COMMANDS``: its handler, its one-line help
and its arguments.  ``main`` parses the global options and the command
name, then builds the parser of that one command for the rest, so a call
builds two ``ArgumentParser``s.  None is built at import or kept between
calls: the defaults from ``GRASSCAT_TRUNCATION`` and ``GRASSCAT_OUT`` are
read on every call.

Exit codes: 0 success, 2 usage error (argparse, or a global flag that the
command would ignore), 3 fixture mismatch in a full census or tube run,
4 truncation instability: an answer its precision floor cannot certify,
or a step that cannot be completed at the working truncation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import GrasscatError, TruncationUnstable
from .modules import (Profile, a_vector, build_layered, default_truncation,
                      parse_profile, validate_relations)
from .rims import (almost_consecutive_decompositions, is_projective,
                   parse_rim, peaks, projective_index, slopes, syzygy_rim)
from .roots import (classify_root_vector, enumerate_degree2_real_roots,
                    expected_rigid_rank2_count, q_form, root_coordinates)

EXIT_FIXTURE_MISMATCH = 3
EXIT_TRUNCATION = 4


def _emit(args, payload: dict, table: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(table)


def _truncation(args, n: int) -> int:
    """The working truncation for an ambient of size n: --trunc, or 2n."""
    if args.trunc is not None and args.trunc < n:
        raise ValueError(f"truncation {args.trunc} below ambient size {n}")
    return default_truncation(n, args.trunc)


def _module_for(profile: Profile, trunc: int):
    """The profile's canonical module, or its layered module past two layers."""
    if len(profile.layers) > 2:
        return build_layered(profile.layers, trunc)
    from .homology import canonical_module
    return canonical_module(profile, trunc)


def cmd_rim(args) -> int:
    r = parse_rim(args.rim)
    sl = slopes(r)
    payload = {
        "rim": list(r.elements), "k": r.k, "n": r.n,
        "peaks": sorted(peaks(r)),
        "down_slopes": [list(x) for x in sl.down_intervals],
        "up_slopes": [list(x) for x in sl.up_intervals],
        "min_slope": sl.min_slope,
        "projective_index": projective_index(r),
        "almost_consecutive": [list(d) for d in almost_consecutive_decompositions(r)],
    }
    if payload["almost_consecutive"] and not is_projective(r):
        payload["syzygy_rim"] = list(syzygy_rim(r).elements)
    lines = [f"rim {r} over (k,n)=({r.k},{r.n})",
             f"  peaks: {payload['peaks']}",
             f"  slopes: down {payload['down_slopes']} up {payload['up_slopes']}"
             f" (min {sl.min_slope})"]
    if payload["projective_index"] is not None:
        lines.append(f"  projective: P_{payload['projective_index']}")
    if payload["almost_consecutive"]:
        lines.append(f"  almost consecutive (i,j): {payload['almost_consecutive']}")
        if "syzygy_rim" in payload:
            lines.append(f"  syzygy rim: {payload['syzygy_rim']}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_module(args) -> int:
    p = parse_profile(args.profile)
    rep = _module_for(p, _truncation(args, p.n))
    report = validate_relations(rep)
    av = a_vector(p)
    payload = {
        "profile": [list(r.elements) for r in p.layers],
        "rank": rep.s,
        "relations_ok": not report,
        "violations": report,
        "a_vector": list(av.entries),
        "q": str(q_form(av)),
        "root_class": classify_root_vector(av),
    }
    table = (f"module {p} rank {rep.s}: relations "
             f"{'ok' if not report else 'FAIL ' + '; '.join(report)}\n"
             f"  a-vector {list(av.entries)}  q = {q_form(av)}"
             f"  ({payload['root_class']})")
    _emit(args, payload, table)
    return 0


def cmd_hom(args) -> int:
    from .homology import hom_space
    a, b = parse_profile(args.source), parse_profile(args.target)
    N = _truncation(args, a.n)
    ha = hom_space(_module_for(a, N), _module_for(b, N))
    gens = []
    for g in ha.generators:
        gens.append({str(w): [[repr(e) for e in row] for row in g[w].data]
                     for w in sorted(g)})
    payload = {"source": a.label(), "target": b.label(), "z_rank": ha.z_rank}
    if args.verbose:
        payload["generators"] = gens
    _emit(args, payload, f"Hom({a}, {b}) is free of rank {ha.z_rank}")
    return 0


def cmd_ext(args) -> int:
    from .homology import ext1
    a, b = parse_profile(args.source), parse_profile(args.target)
    N = _truncation(args, a.n)
    dec = ext1(_module_for(a, N), _module_for(b, N))
    payload = {"source": a.label(), "target": b.label(),
               "exponents": list(dec.exponents), "total_dim": dec.total_dim}
    _emit(args, payload,
          f"Ext^1({a}, {b}) ≅ {dec.pretty()}   exponents {list(dec.exponents)}")
    return 0


def cmd_syzygy(args) -> int:
    from .tubes import tau_orbit
    p = parse_profile(args.profile)
    orbit = tau_orbit(p, trunc=_truncation(args, p.n))
    member = orbit.members[1 % len(orbit.members)]
    payload = {"input": p.label(), "syzygy": member.label(),
               "rank": member.rank, "a_vector": list(member.a_vec)}
    _emit(args, payload, f"syzygy({p}) = {member.label()} (rank {member.rank})")
    return 0


def cmd_rigid(args) -> int:
    from .homology import is_rigid, rigid_indecomposable_rank2
    p = parse_profile(args.profile)
    N = _truncation(args, p.n)
    rep = _module_for(p, N)
    rigid = is_rigid(rep)
    payload = {"profile": p.label(), "rigid": rigid}
    if len(p.layers) == 2:
        payload["rigid_indecomposable"] = (
            rigid_indecomposable_rank2(p.layers[0], p.layers[1], N) is not None)
    table = f"{p}: rigid = {rigid}"
    if "rigid_indecomposable" in payload:
        table += f", rigid indecomposable realisation = {payload['rigid_indecomposable']}"
    _emit(args, payload, table)
    return 0


def cmd_ar_seq(args) -> int:
    from .tubes import ar_sequence
    r = parse_rim(args.rim)
    seq = ar_sequence(r, trunc=_truncation(args, r.n))
    payload = {
        "left": str(seq.left), "middle": seq.middle_label(), "right": str(seq.right),
        "middle_rigid": seq.middle_rigid,
        "middle_indecomposable": seq.middle_indecomposable,
        "exact": seq.exact,
    }
    _emit(args, payload,
          f"AR sequence: {seq.left} -> {seq.middle_label()} -> {seq.right}\n"
          f"  middle rigid: {seq.middle_rigid}, indecomposable: "
          f"{seq.middle_indecomposable}, exact: {seq.exact}")
    return 0


def cmd_orbit(args) -> int:
    from .tubes import tau_orbit
    p = parse_profile(args.profile)
    orbit = tau_orbit(p, trunc=_truncation(args, p.n))
    if args.fmt != "table":
        from .diagrams import orbit_dot, orbit_tikz
        print((orbit_dot if args.fmt == "dot" else orbit_tikz)(orbit), end="")
        return 0
    payload = orbit.to_json_dict()
    table = (f"orbit of {p}: period {orbit.period} (divides 2v = {2 * orbit.v})\n  "
             + " -> ".join(m.label() for m in orbit.members))
    _emit(args, payload, table)
    return 0


def cmd_tubes(args) -> int:
    """Compute the tube census (and the census it seeds from) and write its
    report into ``--out``; no file already there is read."""
    from .tubes import tube_census, write_tube_report
    rep = tube_census(args.k, args.n, trunc=_truncation(args, args.n))
    path = write_tube_report(rep, args.out)
    mism = [c for c in rep.fixture_checks if c.status == "MISMATCH"]
    payload = rep.to_json_dict()
    payload["written"] = str(path)
    lines = []
    if rep.banner:
        lines.append(rep.banner)
    lines.append(f"tubes ({args.k},{args.n}): {len(rep.orbits)} orbits, "
                 f"{len(rep.families)} families up to rotation")
    lines.append(f"  periods: " + ", ".join(
        f"{c} of period {p}" for p, c in sorted(rep.periods.items())))
    if rep.mouth_family_periods:
        lines.append("  mouth rows matched by period: " + ", ".join(
            f"{c} of period {p}" for p, c in sorted(rep.mouth_family_periods.items())))
    lines.append(f"  fixture checks: {len(rep.fixture_checks)}, "
                 f"mismatches: {len(mism)}")
    lines.append(f"  report written to {path}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_FIXTURE_MISMATCH if mism else 0


def cmd_roots(args) -> int:
    vecs = enumerate_degree2_real_roots(args.k, args.n)
    payload = {
        "k": args.k, "n": args.n, "degree": 2, "count": len(vecs),
        "expected_rigid_rank2": expected_rigid_rank2_count(args.k, args.n),
        "roots": [list(v.entries) for v in vecs],
    }
    lines = [f"degree-2 real roots for (k,n)=({args.k},{args.n}): {len(vecs)}"]
    for v in vecs if args.verbose else vecs[:10]:
        rc = root_coordinates(v)
        lines.append(f"  {list(v.entries)}  c={list(rc.c)} d={rc.d}")
    if not args.verbose and len(vecs) > 10:
        lines.append(f"  ... ({len(vecs) - 10} more; use --verbose)")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_census(args) -> int:
    from .census import conjecture_verdicts, run_census
    full = args.sample is None
    if not full and args.orbits:
        raise ValueError("--orbits needs a full census")
    rep = run_census(args.k, args.n, trunc=_truncation(args, args.n),
                     sample=args.sample, progress=not args.json)
    if args.orbits and full:
        from .tubes import attach_orbit_ids
        attach_orbit_ids(rep)
    counts = rep.counts()
    payload = rep.to_json_dict()
    if full:
        payload["conjectures"] = conj = conjecture_verdicts(rep)
        lines = [f"census (k,n)=({args.k},{args.n})",
                 f"  rank1: {counts['rank1']}, rank2 rigid: {counts['rank2_rigid']} "
                 f"({counts['real']} real + {counts['imaginary']} imaginary)",
                 "  conjectures: " + ", ".join(f"{k}={v}" for k, v in conj.items())]
    else:
        # a sampled run groups no classes: it reports its candidates' verdicts
        lines = [f"census (k,n)=({args.k},{args.n}) [sampled]",
                 f"  rank1: {counts['rank1']}, rigid among {rep.candidates_tested} "
                 f"sampled candidates: {sum(rep.candidate_verdicts.values())}"]
    if rep.fixture_diffs:
        lines.append("  FIXTURE DIFFS: " + "; ".join(rep.fixture_diffs))
    _emit(args, payload, "\n".join(lines))
    if full and rep.fixture_diffs:
        return EXIT_FIXTURE_MISMATCH
    return 0


def cmd_diagram(args) -> int:
    from .diagrams import lattice_svg, lattice_tikz
    p = parse_profile(args.profile)
    text = lattice_svg(p) if args.fmt == "svg" else lattice_tikz(p)
    if args.write:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"diagram-{p.label().replace('|', '_')}.{args.fmt}"
        path.write_text(text)
        print(f"written {path}")
    else:
        print(text, end="")
    return 0


_K_N = {"k": {"type": int}, "n": {"type": int}}

# each command: its handler, its one-line help and its arguments (name or
# flag -> add_argument keywords); main builds the parser of the one it runs
COMMANDS = {
    "rim": (cmd_rim, "peaks, slopes and decompositions of a rim",
            {"rim": {"help": "compact form like 145@(3,8)"}}),
    "module": (cmd_module, "build a module and validate its relations",
               {"profile": {"help": "rim or profile like 246|135@(3,9)"}}),
    "hom": (cmd_hom, "Hom space between two modules", {"source": {}, "target": {}}),
    "ext": (cmd_ext, "first extension group between two modules",
            {"source": {}, "target": {}}),
    "syzygy": (cmd_syzygy, "syzygy of a module, identified", {"profile": {}}),
    "rigid": (cmd_rigid, "rigidity of a module", {"profile": {}}),
    "ar-seq": (cmd_ar_seq, "AR sequence at an almost consecutive rim", {"rim": {}}),
    "orbit": (cmd_orbit, "syzygy orbit of a rim or profile", {
        "profile": {},
        "--format": {"dest": "fmt", "default": "table", "choices": ["table", "dot", "tikz"]}}),
    "tubes": (cmd_tubes, "tube census over one ambient", _K_N),
    "roots": (cmd_roots, "degree-2 real root enumeration", _K_N),
    "census": (cmd_census, "rigid rank-2 census", {
        **_K_N,
        "--sample": {"type": float, "default": None,
                     "help": "probabilistic smoke run, e.g. 0.05"},
        "--refresh": {"action": "store_true",
                      "help": "no effect: every census is computed"},
        "--orbits": {"action": "store_true",
                     "help": "attach a syzygy-orbit id to every census entry"}}),
    "diagram": (cmd_diagram, "lattice diagram emitter", {
        "profile": {},
        "--format": {"dest": "fmt", "default": "svg", "choices": ["svg", "tikz"]},
        "--write": {"action": "store_true",
                    "help": "write into the output directory instead of stdout"}}),
}


def _top_parser() -> argparse.ArgumentParser:
    """The global options and the command name; the command's own arguments
    are left unparsed in ``args``."""
    ap = argparse.ArgumentParser(
        prog="grasscat", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Exact Cohen-Macaulay module computations over the "
                    "circular boundary algebra",
        epilog="commands (grasscat <command> -h for its arguments):\n" + "\n".join(
            f"  {name:<9} {entry[1]}" for name, entry in COMMANDS.items()))
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    # argparse converts a string default with the option's type
    ap.add_argument("--trunc", type=int, default=os.environ.get("GRASSCAT_TRUNCATION") or None,
                    help="working t-adic truncation (default $GRASSCAT_TRUNCATION, else 2n)")
    ap.add_argument("--out", type=Path, default=os.environ.get("GRASSCAT_OUT") or "out",
                    help="output directory (default $GRASSCAT_OUT, else out)")
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("command", choices=COMMANDS, metavar="command")
    ap.add_argument("args", nargs=argparse.REMAINDER, help="the command's arguments")
    return ap


def main(argv=None) -> int:
    args = _top_parser().parse_args(argv)
    fn, help_line, arguments = COMMANDS[args.command]
    sub = argparse.ArgumentParser(prog=f"grasscat {args.command}", description=help_line)
    for name, options in arguments.items():
        sub.add_argument(name, **options)
    sub.parse_args(args.args, namespace=args)
    if args.json and getattr(args, "fmt", "table") != "table":
        sub.error(f"--json does not apply to {args.command} --format {args.fmt}")
    # hom reads --verbose only with --json, roots only without it
    if args.verbose and (args.command, args.json) not in (("hom", True), ("roots", False)):
        sub.error(f"--verbose applies to --json hom and to roots without --json only, "
                  f"not to {'--json ' if args.json else ''}{args.command}")
    try:
        return fn(args)
    except TruncationUnstable as exc:
        print(f"truncation instability: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (GrasscatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
