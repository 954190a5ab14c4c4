"""Command-line front end.

Two subcommands:

* ``analyze`` — run a single analysis (Jordan type, constant rank, kernel
  bundle, sections, subquotient sheaf, projectivity, endotriviality,
  K-theory class) on a built-in or JSON-supplied module.
* ``reproduce`` — one of the paper checks in ``checks.CHECKS`` as a
  pass/fail table.

Exit codes: 0 success, 1 input error or too few sampled points
(``E_SAMPLE``), 2 mathematical counterexample or reproduction mismatch,
3 engine invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .checks import CHECKS
from .field import Field, is_prime, prime_field
from .schemes import (
    GroupSchemeDesc,
    SamplingError,
    additive_kernel,
    gln_height2,
    multi_additive,
    p1_chart,
    point_dim,
    restricted_lie_sl2,
    sl2_height2,
    validate_point,
)
from .modules import (
    ModuleRep,
    construct_duals_example,
    construct_steinberg,
    construct_syzygy_E2,
    construct_weyl_sl2,
    construct_zigzag,
    direct_sum,
    free_module_E,
    gln_natural,
    gln_tensor_power,
    module_from_dict,
    principal_indecomposable_sl2,
    random_module,
    regular_module_E,
    sl2_height2_natural,
    trivial_module,
    validate_module,
)
from .operators import constant_jrank_report, local_jtype, theta_global
from .bundles import (
    EngineInvariantError,
    endotrivial_test,
    global_sections,
    k0_class,
    kernel_graded,
    projectivity_test,
    restrict_p1,
    splitting_type,
    subquotient_mj,
)


class InputError(Exception):
    """Input problem: carries a short machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# request parsing


def parse_group(name: str, p: int) -> GroupSchemeDesc:
    name = name.strip().lower()
    if name == "u_sl2":
        return restricted_lie_sl2(p)
    if name == "sl2_2":
        return sl2_height2(p)
    if name.startswith("gl") and name.endswith("_2"):
        try:
            n = int(name[2:-2])
        except ValueError:
            raise InputError("E_GROUP", "unrecognized group %r" % name)
        return gln_height2(p, n)
    if "x" in name:
        parts = name.split("x")
        if all(part == "ga1" for part in parts):
            return multi_additive(p, len(parts))
        raise InputError("E_GROUP", "unrecognized product group %r" % name)
    if name.startswith("ga"):
        try:
            r = int(name[2:])
        except ValueError:
            raise InputError("E_GROUP", "unrecognized group %r" % name)
        if r == 1:
            return multi_additive(p, 1)
        return additive_kernel(p, r)
    raise InputError("E_GROUP", "unrecognized group %r" % name)


def _builtin_params(spec: str) -> Tuple[str, List[int]]:
    parts = spec.split(":")
    name = parts[0].strip().lower()
    try:
        params = [int(x) for x in parts[1:]]
    except ValueError:
        raise InputError("E_BUILTIN", "non-integer parameter in %r" % spec)
    return name, params


def build_module(desc: GroupSchemeDesc, spec: str, seed: int) -> ModuleRep:
    name, params = _builtin_params(spec)
    p = desc.p

    def need(k: int):
        if len(params) != k:
            raise InputError(
                "E_BUILTIN", "builtin %r takes %d parameter(s)" % (name, k))

    def need_in(what: str, lo: int, hi: Optional[int] = None) -> int:
        need(1)
        if params[0] < lo or (hi is not None and params[0] > hi):
            bound = "of at least %d" % lo if hi is None else "in %d..%d" % (lo, hi)
            raise InputError(
                "E_BUILTIN", "builtin %r needs a %s %s, got %d"
                % (name, what, bound, params[0]))
        return params[0]

    if name == "trivial":
        m = trivial_module(desc)
        for _ in range(need_in("count", 1) - 1):
            m = direct_sum(m, trivial_module(desc))
        return m
    if name == "random":
        return random_module(desc, need_in("count", 1), random.Random(seed))
    if name == "weyl" and desc.family == "restricted_lie":
        return construct_weyl_sl2(need_in("weight", 0), p)
    if name == "steinberg" and desc.family == "restricted_lie":
        need(0)
        return construct_steinberg(p)
    if name == "pim" and desc.family == "restricted_lie":
        return principal_indecomposable_sl2(need_in("weight", 0, p - 1), p)
    if desc.family == "multi_additive" and desc.r == 2:
        if name == "zigzag":
            return construct_zigzag(need_in("length", 0), p)
        if name == "syzygy":
            return construct_syzygy_E2(need_in("degree", 0), p)
        if name == "regular":
            need(0)
            return regular_module_E(p)
        if name == "free":
            return free_module_E(p, need_in("count", 1))
    if name == "duals" and desc.family == "additive_kernel" and desc.r == 2:
        need(0)
        return construct_duals_example(p)
    if name == "natural":
        need(0)
        if desc.family == "sl2_height2":
            return sl2_height2_natural(p)
        if desc.family == "gln_height2":
            return gln_natural(p, desc.n)
    if name == "tensor" and desc.family == "gln_height2":
        return gln_tensor_power(p, desc.n, need_in("count", 1))
    raise InputError(
        "E_BUILTIN",
        "builtin %r is not available for group family %r" % (name, desc.family))


def load_module_file(desc: GroupSchemeDesc, path: str) -> ModuleRep:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("E_JSON", "cannot read module file: %s" % exc)
    try:
        rep = module_from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError("E_JSON", "malformed module file: %s" % exc)
    if rep.desc != desc:
        raise InputError(
            "E_GROUP_MISMATCH",
            "module file is over %s, requested group is %s"
            % (rep.desc.label(), desc.label()))
    problems = validate_module(rep)
    if problems:
        raise InputError("E_DIM", "invalid module: " + "; ".join(problems))
    return rep


def parse_point(text: str, desc: GroupSchemeDesc, fld: Field) -> Tuple[int, ...]:
    try:
        point = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("E_POINT", "point must be comma-separated integers")
    if len(point) != point_dim(desc):
        raise InputError("E_POINT", "point must have %d coordinates for %s, got %d"
                         % (point_dim(desc), desc.label(), len(point)))
    if not all(0 <= x < fld.q for x in point):
        raise InputError("E_POINT", "point coordinates must lie in 0..%d over %s"
                         % (fld.q - 1, fld))
    if not validate_point(desc, point, fld):
        raise InputError("E_POINT", "point %r is not on V(%s)" % (point, desc.label()))
    return point


# ---------------------------------------------------------------------------
# reports


def provenance(fld: Field, seed: int, extra: Optional[dict] = None) -> dict:
    out = {
        "base_field": {"p": fld.p, "e": fld.e, "modulus": list(fld.modulus)},
        "seed": seed,
    }
    if extra:
        out.update(extra)
    return out


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines = ["# %s report" % report["request"].get("command", "analysis"), ""]
    lines.append("engine version: %s" % report["engine_version"])
    lines.append("")
    lines.append("## Request")
    for k in sorted(report["request"]):
        lines.append("- %s: %s" % (k, report["request"][k]))
    lines.append("")
    lines.append("## Results")
    results = report["results"]
    if isinstance(results, list):
        lines.append("| check | expected | computed | status |")
        lines.append("|---|---|---|---|")
        for row in results:
            lines.append("| %s | %s | %s | %s |" % (
                row["check"], row["expected"], row["computed"],
                "PASS" if row["pass"] else "FAIL"))
    else:
        for k in sorted(results):
            lines.append("- %s: %s" % (k, results[k]))
    lines.append("")
    lines.append("## Provenance")
    for k in sorted(report["provenance"]):
        lines.append("- %s: %s" % (k, report["provenance"][k]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# analyze


def run_analyze(args) -> Tuple[dict, int]:
    desc = parse_group(args.group, args.p)
    j = args.j
    if args.op != "jtype" and not 1 <= j <= args.p - 1:
        raise InputError("E_ARGS", "--j must lie in 1..%d for p=%d, got %d"
                         % (args.p - 1, args.p, j))
    if not 1 <= args.max_ext <= 4:
        raise InputError("E_ARGS", "--max-ext must lie in 1..4, got %d" % args.max_ext)
    seed = args.seed
    if args.input:
        rep = load_module_file(desc, args.input)
        source = {"input": args.input}
    elif args.builtin:
        rep = build_module(desc, args.builtin, seed)
        source = {"builtin": args.builtin}
    else:
        raise InputError("E_ARGS", "one of --builtin or --input is required")
    if rep.fld.e > 1 and args.max_ext > 1:
        raise InputError("E_ARGS", "--max-ext must be 1 for a module over %s, got %d"
                         % (rep.fld, args.max_ext))

    theta = theta_global(rep)
    request = {
        "command": "analyze", "group": args.group, "p": args.p,
        "op": args.op, "j": args.j, "max_ext": args.max_ext, **source,
    }
    prov_extra = {}
    results: dict = {}
    exit_code = 0

    if args.op == "jtype":
        if not args.point:
            raise InputError("E_ARGS", "--op jtype requires --point")
        point = parse_point(args.point, desc, rep.fld)
        jt = local_jtype(theta, point)
        results = {"point": list(point), "jordan_type": str(jt),
                   "partition": list(jt.partition())}
    elif args.op == "constant-rank":
        rpt = constant_jrank_report(theta, j, max_ext=args.max_ext,
                                    rng=random.Random(seed))
        results = {
            "constant": rpt.constant, "rank": rpt.rank,
            "generic_rank": rpt.generic_rank,
            "ranks_seen": {str(r): list(pt) for r, pt in rpt.witnesses()},
            "fields_scanned": rpt.fields_scanned,
            "points_scanned": rpt.points_scanned,
        }
        prov_extra["sampled"] = rpt.sampled
        if not rpt.constant:
            exit_code = 2
    elif args.op in ("bundle", "ktheory"):
        if p1_chart(desc) is None:
            raise InputError(
                "E_UNSUPPORTED",
                "no projective-line chart for group family %r" % desc.family)
        sub = kernel_graded(restrict_p1(theta), j)
        prov_extra["kernel_stable_from"] = sub.stable_from
        prov_extra["certified_free"] = sub.certified_free
        if args.op == "bundle":
            st = splitting_type(sub)
            results = {"splitting": list(st.twists), "display": str(st),
                       "rank": st.rank, "degree": st.degree}
        else:
            kc = k0_class(sub)
            results = {"c0": kc.c0, "c1": kc.c1, "display": str(kc),
                       "rank": kc.rank, "degree": kc.degree}
    elif args.op == "sections":
        basis, note = global_sections(theta, j)
        results = {"dimension": len(basis), "method": note}
    elif args.op == "subquotient":
        if p1_chart(desc) is None:
            raise InputError(
                "E_UNSUPPORTED",
                "no projective-line chart for group family %r" % desc.family)
        rpt = subquotient_mj(restrict_p1(theta), j)
        results = {
            "fiber_rank": rpt.fiber_rank, "degree": rpt.degree,
            "splitting": list(rpt.splitting.twists) if rpt.splitting else None,
            "note": rpt.note,
        }
        prov_extra["hilbert"] = rpt.hilbert
    elif args.op == "projective":
        rpt = projectivity_test(theta, max_ext=args.max_ext)
        results = {"projective": rpt.verdict, "note": rpt.note}
    elif args.op == "endotrivial":
        rpt = endotrivial_test(theta, max_ext=args.max_ext)
        results = {"endotrivial": rpt.verdict, "note": rpt.note}
    else:
        raise InputError("E_OP", "unknown operation %r" % args.op)

    report = {
        "request": request,
        "engine_version": __version__,
        "results": results,
        "provenance": provenance(rep.fld, seed, prov_extra),
    }
    return report, exit_code


# ---------------------------------------------------------------------------
# reproduce


def run_reproduce(args) -> Tuple[dict, int]:
    if args.preset not in CHECKS:
        raise InputError("E_PRESET", "unknown preset %r (choose from %s)"
                         % (args.preset, ", ".join(sorted(CHECKS))))
    supports, run = CHECKS[args.preset]
    if not supports(args.p):
        raise InputError("E_ARGS", "preset %r does not support p=%d"
                         % (args.preset, args.p))
    if args.n_max < 1:
        raise InputError("E_ARGS", "--n-max must be at least 1, got %d" % args.n_max)
    rows = run(args.p, args.n_max, args.seed)
    all_pass = all(row["pass"] for row in rows)
    report = {
        "request": {"command": "reproduce", "preset": args.preset,
                    "p": args.p, "n_max": args.n_max},
        "engine_version": __version__,
        "results": rows,
        "provenance": provenance(prime_field(args.p), args.seed,
                                 {"all_pass": all_pass}),
    }
    return report, 0 if all_pass else 2


# ---------------------------------------------------------------------------
# entry point


def _default_seed() -> int:
    env = os.environ.get("JB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError("E_ARGS", "JB_SEED must be an integer, got %r" % env)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanbundles",
        description="Exact analysis of p-nilpotent operators on modules over "
                    "infinitesimal group schemes.")
    subs = parser.add_subparsers(dest="command", required=True)

    pa = subs.add_parser("analyze", help="run a single analysis")
    pa.add_argument("--group", required=True,
                    help="group name: u_sl2, ga<r>, ga1xga1[, xga1...], "
                         "sl2_2, gl<n>_2")
    pa.add_argument("--p", type=int, required=True, help="base prime")
    pa.add_argument("--builtin", help="built-in module, name:params")
    pa.add_argument("--input", help="module JSON file")
    pa.add_argument("--op", required=True,
                    choices=["jtype", "constant-rank", "bundle", "sections",
                             "subquotient", "projective", "endotrivial",
                             "ktheory"])
    pa.add_argument("--j", type=int, default=1)
    pa.add_argument("--point", help="comma-separated coordinates")
    pa.add_argument("--max-ext", type=int, default=1, dest="max_ext")
    pa.add_argument("--seed", type=int, help="default: $JB_SEED, else 0")
    pa.add_argument("--format", choices=["json", "md"], default="md")

    pr = subs.add_parser("reproduce", help="run a scripted check")
    pr.add_argument("preset", help=", ".join(sorted(CHECKS)))
    pr.add_argument("--p", type=int, default=3)
    pr.add_argument("--n-max", type=int, default=4, dest="n_max")
    pr.add_argument("--seed", type=int, help="default: $JB_SEED, else 0")
    pr.add_argument("--format", choices=["json", "md"], default="md")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if not is_prime(args.p):
            raise InputError("E_ARGS", "--p must be a prime, got %d" % args.p)
        if args.command == "analyze":
            report, code = run_analyze(args)
        else:
            report, code = run_reproduce(args)
    except InputError as exc:
        print("error [%s]: %s" % (exc.code, exc), file=sys.stderr)
        return 1
    except SamplingError as exc:
        print("error [E_SAMPLE]: %s" % exc, file=sys.stderr)
        return 1
    except EngineInvariantError as exc:
        print("error [E_INTERNAL]: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, NotImplementedError) as exc:
        print("error [E_UNSUPPORTED]: %s" % exc, file=sys.stderr)
        return 1
    print(render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
