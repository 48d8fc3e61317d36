"""Command-line front end: classification tables, hypothesis reports,
cohomology and spectral-page dumps, manifold comparisons, coefficient
tables, and the small-group catalog scan.

Exit codes: 0 success, 1 the mathematics refuses a valid request, 2 the
invocation is wrong; errors.py lists the exceptions behind each code.
Each subcommand imports the layers it runs inside its handler, so a
request loads only those; compare, for one, loads no numpy, and a
malformed group expression is refused before any layer loads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .errors import DomainError, FeasibilityError, HypothesisFailure, \
    ManifoldError, ParseError, UsageError

__all__ = ["main", "build_parser", "builtin_catalog_specs"]

_SCHEMA = 1
_CATALOG_BOUND = 300


# ---------------------------------------------------------------------------
# Output plumbing


def _emit(args, result, citations, text_lines, started):
    payload = {
        "schema": _SCHEMA,
        "command": args.command_echo,
        "result": result,
        "citations": sorted(set(citations)),
        "timing": round(time.perf_counter() - started, 6),
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


def _check_spec(spec):
    """Refuse a malformed group expression before the handler imports its
    layers, so that ``classify C2xx`` loads no numpy."""
    from .specs import split_product
    split_product(spec)


def _first_twist(group):
    from .groups import orientation_characters
    chars = orientation_characters(group)
    if not chars:
        raise DomainError(
            f"{group.name} has no surjection onto the order-2 group; "
            "no orientation character exists")
    return chars[0]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_classify(args, started):
    _check_spec(args.group)
    from .classify import classification_json, classify_group
    from .groups import parse_group
    group = parse_group(args.group)
    tables = classify_group(group, args.category)
    result = classification_json(group, args.category, tables)
    lines = [f"classification of {group.name} ({args.category})"]
    citations = []
    for t in tables:
        lines.append(f"  {t.normal_type.flavor} -> {t.normal_type.structure}"
                     f": {t.count} classes [{t.bordism}]")
        for c in t.classes:
            lines.append(f"    {c.label}")
        citations.extend(t.citations)
    counts = [t.count for t in tables]
    lines.append(f"  total: {sum(counts)} classes ({'/'.join(map(str, counts))})")
    return _emit(args, result, citations, lines, started)


def _cmd_check_hypothesis(args, started):
    _check_spec(args.group)
    from .groups import parse_group
    from .hypothesis import thom_simplification_applicable
    group = parse_group(args.group)
    report = thom_simplification_applicable(group, args.max_degree)
    lines = [f"hypothesis report for {group.name}:", f"  {report.conclusion}"]
    if report.verdict is not None:
        lines.append(f"  verdict: {report.verdict.kind}")
        if report.verdict.degree is not None:
            lines.append(f"  witness degree: {report.verdict.degree}")
    return _emit(args, report.to_json(), [], lines, started)


def _cmd_cohomology(args, started):
    _check_spec(args.group)
    from .cohomology import cohomology
    from .groups import parse_group
    from .modules import mod2_integers, trivial_integers, twisted_integers
    from .resolutions import default_resolution
    group = parse_group(args.group)
    if args.coeff == "Z":
        module, desc = trivial_integers(group), "Z"
    elif args.coeff == "Z2":
        module, desc = mod2_integers(group), "Z/2"
    else:
        module, desc = twisted_integers(_first_twist(group)), \
            "Z twisted by the first orientation character"
    res = default_resolution(group, args.degree)
    values = [cohomology(group, module, n, res)
              for n in range(args.degree + 1)]
    result = {"group": group.name, "coefficients": args.coeff,
              "groups": [v.to_json() for v in values]}
    lines = [f"H^n({group.name}; {desc}):"]
    lines += [f"  H^{n} = {v}" for n, v in enumerate(values)]
    return _emit(args, result, [], lines, started)


def _cmd_lhs(args, started):
    _check_spec(args.group)
    from .groups import odd_normal_complement, parse_group
    from .spectral import lhs_e2_page
    group = parse_group(args.group)
    decomp = odd_normal_complement(group)
    if decomp is None:
        raise DomainError(
            f"{group.name} has no odd normal complement; no extension "
            "page to build")
    twist = _first_twist(decomp.quotient)
    page = lhs_e2_page(decomp, twist, args.range)
    lines = [f"LHS E2 page for {group.name} (quotient "
             f"{decomp.quotient.name}, kernel {decomp.kernel.name}):"]
    for (p, q) in sorted(page.entries):
        lines.append(f"  E2^{{{p},{q}}} = {page.entries[(p, q)]}")
    lines += [f"  flag: {f}" for f in page.flags]
    return _emit(args, page.to_json(), [], lines, started)


def _cmd_ahss(args, started):
    if args.diagonal is not None and args.diagonal >= args.range:
        raise UsageError(f"--diagonal {args.diagonal} must be below "
                         f"--range {args.range}")
    _check_spec(args.group)
    from .groups import parse_group
    from .spectral import ahss_e2_page, diagonal_report, \
        twisted_thom_homology
    group = parse_group(args.group)
    twist = _first_twist(group)
    page = ahss_e2_page(lambda n: twisted_thom_homology(group, twist, n),
                        args.coeff, args.range)
    result = page.to_json()
    lines = [f"AHSS E2 page over twisted Thom homology of {group.name}, "
             f"coefficients {args.coeff}:"]
    for (p, q) in sorted(page.entries):
        lines.append(f"  E2_{{{p},{q}}} = {page.entries[(p, q)]}")
    citations = [n.split("[", 1)[1].rstrip("]")
                 for n in page.notes.values() if "[" in n]
    if args.diagonal is not None:
        rep = diagonal_report(page, args.diagonal)
        result = {"page": result, "diagonal": rep.to_json()}
        lines.append(f"  diagonal {args.diagonal}: order bound "
                     f"{rep.order_bound}, collapse certified: "
                     f"{rep.collapse_certified}")
        lines += [f"    {r}" for r in rep.reasons]
    return _emit(args, result, citations, lines, started)


def _cmd_compare(args, started):
    from .manifolds import parse_manifold, stably_equivalent
    e1 = parse_manifold(args.left)
    e2 = parse_manifold(args.right)
    verdict = stably_equivalent(e1, e2, args.category, args.structure)
    word = "stably equivalent" if verdict.equivalent else \
        "NOT stably equivalent"
    lines = [f"{e1} vs {e2} ({args.category}, {args.structure}): {word}"]
    for name, a, b, ok in verdict.witness:
        lines.append(f"  {name}: {a} vs {b} "
                     f"({'agree' if ok else 'differ'})")
    lines.append(f"  note: {verdict.trust_note}")
    return _emit(args, verdict.to_json(), [], lines, started)


def _cmd_tables(args, started):
    from .bordism import coefficient_table, structures
    result = {s: [e.to_json() for e in coefficient_table(s)]
              for s in structures()}
    lines = []
    citations = []
    for s in structures():
        entries = coefficient_table(s)
        row = ", ".join(f"{e.degree}: {e.group}" for e in entries)
        lines.append(f"{s}: {row}")
        citations.extend(e.citation for e in entries)
    return _emit(args, result, citations, lines, started)


def builtin_catalog_specs(max_order: int) -> list:
    """Built-in specs of order = 2 mod 4 up to max_order: the cyclic and
    dihedral families plus direct products with odd cyclic groups
    (products isomorphic to an already-listed cyclic group are skipped;
    the list is documented as non-exhaustive beyond these families)."""
    specs = {}

    def add(spec, order):
        specs.setdefault(spec, order)

    for n in range(2, max_order + 1, 4):
        add(f"C{n}", n)
    for k in range(3, max_order // 2 + 1, 2):
        add(f"D{k}", 2 * k)
    for base, border in list(specs.items()):
        for m in range(3, max_order // border + 1, 2):
            if base.startswith("C") and math.gcd(border, m) == 1:
                continue   # isomorphic to the cyclic group C(border*m)
            add(f"{base}xC{m}", border * m)
    return [s for s, _ in sorted(specs.items(),
                                 key=lambda kv: (kv[1], kv[0]))]


def _cmd_catalog(args, started):
    if args.max_order > _CATALOG_BOUND:
        raise UsageError(f"--max-order exceeds the configured bound "
                         f"{_CATALOG_BOUND}")
    from .classify import CATEGORIES, classify_group
    from .groups import parse_group
    from .hypothesis import thom_simplification_applicable
    rows = []
    lines = [f"catalog of built-in groups of order = 2 mod 4 up to "
             f"{args.max_order}:"]
    for spec in builtin_catalog_specs(args.max_order):
        group = parse_group(spec)
        report = thom_simplification_applicable(group)
        row = {"spec": spec, "order": group.order,
               "applicable": report.applicable,
               "conclusion": report.conclusion}
        if report.applicable:
            counts = {}
            for cat in CATEGORIES:
                counts[cat] = [t.count
                               for t in classify_group(group, cat, report)]
            row["counts"] = counts
            smooth, top = sum(counts["smooth"]), sum(counts["top"])
            lines.append(f"  {spec:<10} order {group.order:>3}  PASS  "
                         f"smooth {smooth} / top {top}")
        else:
            lines.append(f"  {spec:<10} order {group.order:>3}  fail  "
                         f"({report.conclusion.split(':')[0]})")
        rows.append(row)
    return _emit(args, {"max_order": args.max_order, "rows": rows}, [],
                 lines, started)


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _nonnegative_int(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="u4class", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"),
                       default="text")

    p = sub.add_parser("classify", help="stable class tables for a group")
    p.add_argument("group")
    p.add_argument("--category", choices=("smooth", "top"),
                   default="smooth")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check-hypothesis",
                       help="reduction-hypothesis report")
    p.add_argument("group")
    p.add_argument("--max-degree", type=_nonnegative_int, default=4)
    common(p)
    p.set_defaults(func=_cmd_check_hypothesis)

    p = sub.add_parser("cohomology", help="group cohomology values")
    p.add_argument("group")
    p.add_argument("--coeff", choices=("Z", "Z2", "Zw"), required=True)
    p.add_argument("--degree", type=_nonnegative_int, default=4)
    common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("lhs", help="extension spectral page")
    p.add_argument("group")
    p.add_argument("--range", type=_nonnegative_int, default=5)
    common(p)
    p.set_defaults(func=_cmd_lhs)

    p = sub.add_parser("ahss", help="bordism spectral page")
    p.add_argument("group")
    p.add_argument("--coeff", required=True,
                   help="bordism structure name, or 'point'")
    p.add_argument("--range", type=_nonnegative_int, default=5)
    p.add_argument("--diagonal", type=_nonnegative_int, default=None)
    common(p)
    p.set_defaults(func=_cmd_ahss)

    p = sub.add_parser("compare", help="stable equivalence of manifolds")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--category", choices=("smooth", "top"),
                   required=True)
    p.add_argument("--structure", choices=("pin+", "pin-", "none"),
                   required=True)
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("tables", help="bordism coefficient tables")
    common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("catalog", help="scan built-in small groups")
    p.add_argument("--max-order", type=_nonnegative_int,
                   default=_CATALOG_BOUND)
    common(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        args.command_echo = argv
        return args.func(args, started)
    except (UsageError, ParseError, ManifoldError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, HypothesisFailure, FeasibilityError,
            NotImplementedError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
