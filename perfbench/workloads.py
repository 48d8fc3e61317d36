"""The four perfbench workloads.

A library workload yields ``(key, thunk)`` operations in an order drawn
from the pass's random generator; the thunk returns the operation's
canonical answer as a string, or raises when an oracle disagrees.  Keys
and answers never depend on that order, so a pass's digest (the sorted
key/answer hashes) is the same for every seed.  ``cli-requests`` is a
list of command lines that the orchestrator runs as subprocesses.

``u4class`` is imported inside the functions: the orchestrator loads this
module and must stay free of the package it measures.  Workload code calls
library functions through their module attributes so that the tracer's
wrappers see the calls.
"""

import functools
import hashlib
import json

class OracleMismatch(AssertionError):
    """Two independent routes to one answer disagree."""


def answer_hash(answer):
    return hashlib.sha256(answer.encode()).hexdigest()[:16]


def pass_digest(hashes):
    """Order-independent digest of {key: answer hash}."""
    lines = sorted(f"{key}={h}" for key, h in hashes.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# oracle-cyclic: bar vs periodic H^n of cyclic groups, the criterion-1 shape

ORACLE_MAX_ORDER = {"full": 8, "smoke": 5}


def _bar_vs_periodic(group, module, n, bar, per):
    from u4class import cohomology
    a = cohomology.cohomology(group, module, n, bar)
    b = cohomology.cohomology(group, module, n, per)
    if a != b:
        raise OracleMismatch(f"{group.name} H^{n}: bar {a} != periodic {b}")
    return str(a)


def oracle_cyclic_ops(rng, size):
    from u4class import groups, modules, resolutions
    orders = list(range(1, ORACLE_MAX_ORDER[size] + 1))
    rng.shuffle(orders)
    for m in orders:
        group = groups.cyclic_group(m)
        bar = resolutions.BarResolution(group, 4)
        per = resolutions.PeriodicResolution(group, 4)
        # the seed permutes groups only: within a group the gate's order,
        # mod 2 first, lets homology_at's rank sandwich reuse the cached
        # mod-2 ranks and skip the integer elimination for Z
        coeffs = [("Z2", modules.mod2_integers(group)),
                  ("Z", modules.trivial_integers(group))]
        if m % 2 == 0:
            coeffs.append(("Zw", modules.twisted_integers(
                groups.orientation_characters(group)[0])))
        for label, module in coeffs:
            for n in range(5):
                yield (f"C{m}/{label}/H{n}",
                       functools.partial(_bar_vs_periodic, group, module, n,
                                         bar, per))


def oracle_cyclic_warm_up():
    """D3 over the bar resolution and C11 over the periodic one: neither
    group is in the workload."""
    from u4class import cohomology, groups, modules, resolutions
    d3 = groups.parse_group("D3")
    for module in (modules.mod2_integers(d3), modules.trivial_integers(d3),
                   modules.twisted_integers(
                       groups.orientation_characters(d3)[0])):
        for n in range(3):
            cohomology.cohomology(d3, module, n)
    c11 = groups.cyclic_group(11)
    per = resolutions.PeriodicResolution(c11, 4)
    for n in range(5):
        cohomology.cohomology(c11, modules.trivial_integers(c11), n, per)


# ---------------------------------------------------------------------------
# catalog-scan: the calls `u4class catalog --max-order 100` makes per spec

CATALOG_MAX_ORDER = {"full": 100, "smoke": 30}


def _catalog_row(spec):
    from u4class import classify, groups, hypothesis
    group = groups.parse_group(spec)
    report = hypothesis.thom_simplification_applicable(group)
    row = {"spec": spec, "order": group.order,
           "applicable": report.applicable, "conclusion": report.conclusion}
    if report.applicable:
        row["counts"] = {cat: [t.count for t in
                               classify.classify_group(group, cat)]
                         for cat in classify.CATEGORIES}
    return json.dumps(row, sort_keys=True)


def catalog_scan_ops(rng, size):
    from u4class import cli
    specs = cli.builtin_catalog_specs(CATALOG_MAX_ORDER[size])
    rng.shuffle(specs)
    for spec in specs:
        yield spec, functools.partial(_catalog_row, spec)


def catalog_scan_warm_up():
    """D3xC2 (order 12) takes the witness path, C102 the classify path;
    both lie outside the catalog."""
    _catalog_row("D3xC2")
    _catalog_row("C102")


# ---------------------------------------------------------------------------
# ring-inflation: inflation from the order-2 quotient and mod-2 rings, the
# criterion-3 shape

INFLATION_ROUTES = {"full": {"C2": "bar", "C6": "bar", "C10": "bar",
                             "C3xC6": "closed-form",
                             "C5xC10": "closed-form"},
                    "smoke": {"C2": "bar", "C6": "bar",
                              "C3xC6": "closed-form"}}
RING_GROUPS = {"full": ("C2", "C6", "C10", "D3"), "smoke": ("C2", "D3")}
# a mod-2 ring the bar resolution cannot reach within the default bound
INFEASIBLE_RING = "C3xC6"


def _inflation(spec, route):
    from u4class import cohomology, groups
    group = groups.parse_group(spec)
    inf = cohomology.inflation_map(
        groups.orientation_characters(group)[0].hom, 4)
    if inf.route != route or inf.isomorphism_degrees() != (0, 1, 2, 3, 4):
        raise OracleMismatch(f"inflation over {spec}: route {inf.route}, "
                             f"isomorphic in {inf.isomorphism_degrees()}")
    return json.dumps(inf.to_json(), sort_keys=True)


def _ring(spec):
    from u4class import cohomology, groups
    return json.dumps(cohomology.mod2_ring(groups.parse_group(spec), 4)
                      .to_json(), sort_keys=True)


def _infeasible_ring(spec):
    from u4class import cohomology, groups, resolutions
    try:
        cohomology.mod2_ring(groups.parse_group(spec), 4)
    except resolutions.FeasibilityError:
        return "FeasibilityError"
    raise OracleMismatch(f"mod2_ring({spec}, 4) did not raise "
                         "FeasibilityError")


def ring_inflation_ops(rng, size):
    ops = [(f"inflation/{spec}", functools.partial(_inflation, spec, route))
           for spec, route in INFLATION_ROUTES[size].items()]
    ops += [(f"ring/{spec}", functools.partial(_ring, spec))
            for spec in RING_GROUPS[size]]
    ops.append((f"ring/{INFEASIBLE_RING}",
                functools.partial(_infeasible_ring, INFEASIBLE_RING)))
    rng.shuffle(ops)
    return ops


def ring_inflation_warm_up():
    """C4 -> C2 inflation and the ring of C4, outside the workload."""
    from u4class import cohomology, groups
    c4 = groups.cyclic_group(4)
    cohomology.inflation_map(groups.orientation_characters(c4)[0].hom, 2)
    cohomology.mod2_ring(c4, 2)


LIBRARY = {
    "oracle-cyclic": (oracle_cyclic_ops, oracle_cyclic_warm_up),
    "catalog-scan": (catalog_scan_ops, catalog_scan_warm_up),
    "ring-inflation": (ring_inflation_ops, ring_inflation_warm_up),
}


# ---------------------------------------------------------------------------
# cli-requests: `python -m u4class.cli` processes, one request at a time

def _cli_mix():
    mix = [(("classify", g, "--category", cat), 0)
           for g in ("C2", "C6", "C10", "C3xC6", "C5xC10")
           for cat in ("smooth", "top")]
    mix += [(("check-hypothesis", g), 0) for g in ("D3", "D5", "D3xC5")]
    mix += [(("compare", "RP4", "Q", "--category", cat, "--structure",
              "pin+"), 0) for cat in ("smooth", "top")]
    mix += [(("ahss", "C2", "--coeff", "STop", "--diagonal", "4"), 0),
            (("lhs", "C10"), 0),
            (("tables",), 0),
            # cold bar resolution: caches start empty in every process
            (("cohomology", "D3", "--coeff", "Z", "--degree", "4"), 0),
            # refused by the mathematics, then by the parser
            (("classify", "D3"), 1),
            (("classify", "C2xx"), 2)]
    return [(argv + ("--format", "json"), code) for argv, code in mix]


CLI_MIX = {"full": _cli_mix()}
CLI_MIX["smoke"] = [CLI_MIX["full"][i] for i in (0, 11, 13, 16, 19, 20)]
CLI_WARM_UP = ("cohomology", "C3", "--coeff", "Z2", "--degree", "2",
               "--format", "json")


def cli_key(argv):
    return " ".join(argv)


def cli_answer(argv, expected_code, code, out, err):
    """Canonical answer of one CLI request: the exit code plus the JSON
    payload without its timing field, or the error line."""
    if code != expected_code:
        raise OracleMismatch(f"{cli_key(argv)}: exit {code}, expected "
                             f"{expected_code}: {err.strip()[-200:]}")
    if code:
        return f"exit {code} {err.strip()}"
    payload = json.loads(out)
    payload.pop("timing", None)
    return "exit 0 " + json.dumps(payload, sort_keys=True)
