"""Command-line interface: AR quivers, convex orders, denominator zero sets,
spectral-point quivers, surjection verdicts, pair embeddings, and the
verification suite.  Output is deterministic JSON (or DOT for quivers)."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# Each handler imports the library modules it runs, so a query loads only those.
if TYPE_CHECKING:
    from .quiver import ARData, DynkinQuiver
    from .rootsys import FiniteType
    from .spectral import AffineType, SpectralParam

# The one rule for every integer read: an optional '-' and the digits 0-9.
_INT = r"\s*-?\d+\s*"
_ARROW_RE = re.compile(r"(\d+)>(\d+)", re.ASCII)
_BASE_RE = re.compile(r"(\d+)=(-?\d+)", re.ASCII)
# Size limits from doubling steps on 2 vCPUs: D64 ar-quiver takes about 0.15 s (D128:
# 0.75 s); se-quiver at N = 16, bound 32 and every parity lattice seeded 0.2-1.3 s
# (D1 slowest); embed-pair at D1 N = 64 at most about 0.2 s (N = 128: 1.0 s);
# denominator and dorey, linear in N, under 0.2 s at N = 4096.
_MAX_RANK, _MAX_BOUND = 64, 32
_MAX_N = {"denominator": 4096, "se-quiver": 16, "dorey": 4096, "embed-pair": 64}


def _int(text: str) -> int:
    """int(text) under _INT; text that is no number raises int()'s error."""
    value = int(text)
    if not re.fullmatch(_INT, text, re.ASCII):
        raise ValueError(f"invalid integer {text!r}: use an optional '-' and the digits 0-9")
    return value


_int.__name__ = "int"  # argparse's message stays "invalid int value: ..."


def _capped(option: str, value: int, cap: int) -> int:
    if value > cap:
        raise ValueError(f"--{option} must be at most {cap}, got {value}")
    return value


def _parse_affine(args: argparse.Namespace) -> AffineType:
    from .spectral import AffineType
    return AffineType.from_code(args.g, _capped("n", args.n, _MAX_N[args.command]))


def _parse_orientation(args: argparse.Namespace) -> DynkinQuiver:
    """The oriented diagram of --type, --rank and --orientation; the rank is
    checked before the arrows."""
    from .quiver import DynkinQuiver
    from .rootsys import FiniteType
    t = FiniteType(args.type, _capped("rank", args.rank, _MAX_RANK))
    arrows = []
    for part in args.orientation.split(","):
        m = _ARROW_RE.fullmatch(part.strip())
        if not m:
            raise ValueError(f"bad arrow {part.strip()!r}; expected 'a>b'")
        arrows.append((int(m.group(1)), int(m.group(2))))
    return DynkinQuiver(t, tuple(arrows))


def _parse_ar(args: argparse.Namespace) -> ARData:
    """The AR quiver of the orientation, heights normalized by --base."""
    from .quiver import ar_quiver, height_function
    q = _parse_orientation(args)
    base = "1=0" if args.base is None else args.base
    m = _BASE_RE.fullmatch(base.strip())
    if not m:
        raise ValueError(f"bad base {base!r}; expected 'vertex=value'")
    return ar_quiver(q, height_function(q, int(m.group(1)), int(m.group(2))))


def _parse_vertex(text: str) -> tuple[int, SpectralParam]:
    from .spectral import SpectralParam
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"bad vertex {text!r}; expected 'i:param'")
    return _int(head), SpectralParam.parse(tail)


def _parse_root(t: FiniteType, text: str) -> tuple[int, ...]:
    coeffs = tuple(_int(c) for c in text.split(","))
    if len(coeffs) != t.rank:
        raise ValueError(f"root {text!r} needs {t.rank} coefficients")
    return coeffs


def _root_str(root: Sequence[int]) -> str:
    return ",".join(str(c) for c in root)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is not None:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        print(text, end="", flush=True)  # flushed here, a closed reader raises in main


def _dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _render_quiver(
    vertices: Sequence[tuple[str, str]], arrows: Sequence[tuple[str, str, int]], fmt: str
) -> str:
    if fmt == "json":
        return _dumps(
            {
                "vertices": [{"id": vid, "label": label} for vid, label in vertices],
                "arrows": [{"src": a, "dst": b, "mult": m} for a, b, m in arrows],
            }
        )
    lines = ["digraph G {"]
    for vid, label in vertices:
        lines.append(f'  "{vid}" [label="{label}"];')
    for a, b, m in arrows:
        lines.extend([f'  "{a}" -> "{b}";'] * m)
    lines.append("}")
    return "\n".join(lines)


def _cmd_ar_quiver(args: argparse.Namespace) -> str:
    from .rootsys import format_root
    ar = _parse_ar(args)
    vertices = [
        (f"{i},{p}", format_root(ar.phi[(i, p)][0])) for i, p in sorted(ar.gamma_vertices)
    ]
    arrows = [
        (f"{a[0]},{a[1]}", f"{b[0]},{b[1]}", 1) for a, b in ar.gamma_arrows
    ]
    return _render_quiver(vertices, arrows, args.format)


def _cmd_convex_order(args: argparse.Namespace) -> str:
    from .quiver import _w0_order, adapted_word
    q = _parse_orientation(args)
    word, seq = adapted_word(q, "w0"), _w0_order(q)
    return _dumps({"word": list(word), "order": [_root_str(r) for r in seq]})


def _cmd_minimal_pairs(args: argparse.Namespace) -> str:
    from .quiver import _w0_order, minimal_pairs
    q = _parse_orientation(args)
    alpha = _parse_root(q.ftype, args.root)
    pairs = minimal_pairs(_w0_order(q), alpha)
    return _dumps(
        {
            "alpha": _root_str(alpha),
            "pairs": [{"beta": _root_str(b), "gamma": _root_str(g)} for b, g in pairs],
        }
    )


def _cmd_denominator(args: argparse.Namespace) -> str:
    from .spectral import denominator
    g = _parse_affine(args)
    d = denominator(g, args.k, args.l)
    return _dumps(
        {
            "g": g.code,
            "N": g.N,
            "k": args.k,
            "l": args.l,
            "degree": d.degree,
            "factors": list(d.factors),
            "roots": [{"root": str(x), "mult": mult} for x, mult in d.roots],
        }
    )


def _cmd_se_quiver(args: argparse.Namespace) -> str:
    from .sequiver import se0_seed, se_window, vertex_class
    g = _parse_affine(args)
    bound = _capped("bound", args.bound, _MAX_BOUND) if args.bound is not None else 2 * g.N
    if args.se0:
        seeds = [se0_seed(g)]
    elif args.seed:
        seeds = [vertex_class(g, *_parse_vertex(s)) for s in args.seed]
    else:
        raise ValueError("provide --seed at least once or use --se0")
    quiver, _ = se_window(g, seeds, bound)
    return _render_quiver(quiver.vertices, quiver.arrows, args.format)


def _cmd_schur_weyl(args: argparse.Namespace) -> str:
    from .sequiver import schur_weyl_quiver
    sw = schur_weyl_quiver(_parse_ar(args), args.t)
    return _render_quiver(sw.quiver.vertices, sw.quiver.arrows, args.format)


def _cmd_dorey(args: argparse.Namespace) -> str:
    from .dorey import DoreyTriple, dorey, multiple_pole_class
    g = _parse_affine(args)
    triple = DoreyTriple(
        g, _parse_vertex(args.a), _parse_vertex(args.b), _parse_vertex(args.c)
    )
    verdict = dorey(triple)
    obj: dict[str, object] = {"holds": verdict.holds}
    if verdict.holds and g.twist == 1:
        obj["condition"] = verdict.condition
        obj["pole"] = multiple_pole_class(triple)
    if verdict.holds and g.twist == 2:
        obj["witness"] = [f"{i}:{x}" for i, x in verdict.witness]
    return _dumps(obj)


def _cmd_embed_pair(args: argparse.Namespace) -> str:
    from .dorey import embed_pair_in_AR
    from .sequiver import vertex_class
    g = _parse_affine(args)
    v = vertex_class(g, *_parse_vertex(args.v))
    w = vertex_class(g, *_parse_vertex(args.w))
    res = embed_pair_in_AR(g, v, w)
    if res.found:
        obj: dict[str, object] = {
            "found": True,
            "orientation": ",".join(f"{a}>{b}" for a, b in res.quiver.arrows),
            "height": {str(i): h for i, h in sorted(res.height.items())},
            "shift": str(res.shift),
            "positions": [list(res.positions[0]), list(res.positions[1])],
        }
    else:
        obj = {"found": False, "reason": res.reason}
    return _dumps(obj)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all
    names = [args.check] if args.check else None
    failed = False
    for report in run_all(names):
        line = f"{'PASS' if report.passed else 'FAIL'} {report.check_name} [{report.universe}]"
        if not report.passed:
            failed = True
            line += f" :: {report.counterexample}"
        print(line, flush=True)
        print(f"# {report.check_name} {report.elapsed_ms}ms", file=sys.stderr)
    return 1 if failed else 0


def _add_classical(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", choices=("A", "D"), required=True, help="Dynkin family")
    p.add_argument(
        "--rank", type=_int, required=True, help=f"number of vertices (at most {_MAX_RANK})"
    )
    p.add_argument(
        "--orientation",
        required=True,
        help="comma-separated arrows covering every edge, e.g. '1>2,3>2'",
    )


def _add_affine(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument(
        "--g", choices=("A1", "A2", "D1", "D2"), required=True, help="family and twist"
    )
    cap = _MAX_N[command]
    p.add_argument(
        "--n", type=_int, required=True, help=f"the integer N of the type name (at most {cap})"
    )


def _add_base(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", help="height normalization 'vertex=value' (default '1=0')")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "dot"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arquiver",
        description="Exact AR-quiver and R-matrix denominator combinatorics for types A and D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ar-quiver", help="AR quiver of an oriented Dynkin diagram")
    _add_classical(p)
    _add_base(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_ar_quiver)

    p = sub.add_parser("convex-order", help="adapted longest-element order on positive roots")
    _add_classical(p)
    p.set_defaults(handler=_cmd_convex_order)

    p = sub.add_parser("minimal-pairs", help="minimal pairs of a positive root")
    _add_classical(p)
    p.add_argument("--root", required=True, help="comma-separated coefficients, e.g. '1,1,0'")
    p.set_defaults(handler=_cmd_minimal_pairs)

    p = sub.add_parser("denominator", help="zero multiset of a denominator d_{k,l}(z)")
    _add_affine(p, "denominator")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--l", type=_int, required=True)
    p.set_defaults(handler=_cmd_denominator)

    p = sub.add_parser("se-quiver", help="window of the spectral-point quiver")
    _add_affine(p, "se-quiver")
    p.add_argument("--seed", action="append", help="lattice seed 'i:param' (repeatable)")
    p.add_argument("--se0", action="store_true", help="seed with the distinguished component")
    p.add_argument(
        "--bound", type=_int, help=f"|q-power| window bound (default 2N, at most {_MAX_BOUND})"
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_se_quiver)

    p = sub.add_parser("schur-weyl", help="quiver on the simple-root slots of an AR quiver")
    _add_classical(p)
    _add_base(p)
    p.add_argument("--t", type=_int, choices=(1, 2), required=True, help="untwisted or twisted")
    _add_format(p)
    p.set_defaults(handler=_cmd_schur_weyl)

    p = sub.add_parser("dorey", help="tensor-surjection verdict for a triple")
    _add_affine(p, "dorey")
    p.add_argument("--a", required=True, help="first factor 'i:param'")
    p.add_argument("--b", required=True, help="second factor 'i:param'")
    p.add_argument("--c", required=True, help="target 'i:param'")
    p.set_defaults(handler=_cmd_dorey)

    p = sub.add_parser("embed-pair", help="realize an adjacent pair inside one AR quiver")
    _add_affine(p, "embed-pair")
    p.add_argument("--v", required=True, help="first point 'i:param'")
    p.add_argument("--w", required=True, help="second point 'i:param'")
    p.set_defaults(handler=_cmd_embed_pair)

    # Every query handler returns its text; --out, the last option of each, redirects it.
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--check", help="run a single named check")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # verify prints a line per check as it runs and returns its exit status.
        if args.command == "verify":
            return _cmd_verify(args)
        _emit(args.handler(args), args.out)
        return 0
    except BrokenPipeError:  # the reader left: quiet the exit flush too (Python docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = round((time.perf_counter() - start) * 1000)
        print(f"# {args.command} {elapsed}ms", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
