"""Command-line front end.

Two subcommands:

* ``analyze`` — run a single analysis (Jordan type, constant rank, kernel
  bundle, sections, subquotient sheaf, projectivity, endotriviality,
  K-theory class) on a built-in or JSON-supplied module.
* ``reproduce`` — scripted pass/fail checks of the engine's headline
  computations (kernel splittings, principal indecomposables, zig-zag and
  syzygy subquotients, section dimensions, the section-dimension matrix,
  Frobenius-twist invariance, external products).

Exit codes: 0 success, 1 input error, 2 mathematical counterexample or
reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .field import Field, ext_field_build, prime_field
from .polyring import Substitution
from .schemes import (
    GroupSchemeDesc,
    additive_kernel,
    enumerate_points,
    frobenius_point_map,
    generator_names,
    gln_height2,
    multi_additive,
    p1_chart,
    restricted_lie_sl2,
    sl2_height2,
)
from .modules import (
    ModuleRep,
    construct_duals_example,
    construct_steinberg,
    construct_syzygy_E2,
    construct_weyl_sl2,
    construct_zigzag,
    direct_sum,
    dual_module,
    external_product,
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
from .operators import (
    ThetaMatrix,
    constant_jrank_report,
    jordan_type,
    local_jtype,
    theta_global,
)
from .bundles import (
    EngineInvariantError,
    endotrivial_test,
    global_sections,
    k0_class,
    kernel_graded,
    projectivity_test,
    restrict_p1,
    rho_kappa_matrix,
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

    if name == "trivial":
        need(1)
        m = trivial_module(desc)
        for _ in range(params[0] - 1):
            m = direct_sum(m, trivial_module(desc))
        return m
    if name == "random":
        need(1)
        return random_module(desc, params[0], random.Random(seed))
    if name == "weyl" and desc.family == "restricted_lie":
        need(1)
        return construct_weyl_sl2(params[0], p)
    if name == "steinberg" and desc.family == "restricted_lie":
        need(0)
        return construct_steinberg(p)
    if name == "pim" and desc.family == "restricted_lie":
        need(1)
        return principal_indecomposable_sl2(params[0], p)
    if desc.family == "multi_additive" and desc.r == 2:
        if name == "zigzag":
            need(1)
            return construct_zigzag(params[0], p)
        if name == "syzygy":
            need(1)
            return construct_syzygy_E2(params[0], p)
        if name == "regular":
            need(0)
            return regular_module_E(p)
        if name == "free":
            need(1)
            return free_module_E(p, params[0])
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
        need(1)
        return gln_tensor_power(p, desc.n, params[0])
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


def parse_point(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("E_POINT", "point must be comma-separated integers")


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
    seed = args.seed
    if args.input:
        rep = load_module_file(desc, args.input)
        source = {"input": args.input}
    elif args.builtin:
        rep = build_module(desc, args.builtin, seed)
        source = {"builtin": args.builtin}
    else:
        raise InputError("E_ARGS", "one of --builtin or --input is required")

    theta = theta_global(rep)
    j = args.j
    if not 1 <= j <= args.p - 1 and args.op not in ("jtype",):
        if args.p == 2 and j == 1:
            pass
        else:
            j = max(1, min(j, args.p - 1))
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
        point = parse_point(args.point)
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
        chart = p1_chart(desc)
        if chart is None:
            raise InputError(
                "E_UNSUPPORTED",
                "no projective-line chart for group family %r" % desc.family)
        sub = kernel_graded(restrict_p1(theta, chart), j)
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
        chart = p1_chart(desc)
        if chart is None:
            raise InputError(
                "E_UNSUPPORTED",
                "no projective-line chart for group family %r" % desc.family)
        rpt = subquotient_mj(restrict_p1(theta, chart), j)
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
# reproduce presets


def _row(check: str, expected, computed) -> dict:
    return {"check": check, "expected": str(expected),
            "computed": str(computed), "pass": str(expected) == str(computed)}


def preset_sl2_kernels(p: int, n_max: int, seed: int) -> List[dict]:
    rows = []
    for m in range(0, 2 * p - 1):
        rep = construct_weyl_sl2(m, p)
        st = splitting_type(kernel_graded(restrict_p1(theta_global(rep)), 1))
        if m <= p - 1:
            expected = "O(%d)" % (-m)
        else:
            expected = str(sorted((-m, m - 2 * (p - 1)), reverse=True))
            expected = " + ".join(
                "O(%d)" % t for t in sorted((-m, m - 2 * (p - 1)), reverse=True))
        rows.append(_row("Ker on V_%d" % m, expected, str(st)))
    return rows


def preset_pim(p: int, n_max: int, seed: int) -> List[dict]:
    rows = []
    for lam in range(p):
        rep = principal_indecomposable_sl2(lam, p)
        st = splitting_type(kernel_graded(restrict_p1(theta_global(rep)), 1))
        if lam == p - 1:
            expected = "O(%d)" % (1 - p)
        else:
            expected = " + ".join(
                "O(%d)" % t
                for t in sorted((lam - 2 * (p - 1), -lam), reverse=True))
        rows.append(_row("Ker on P_%d" % lam, expected, str(st)))
    return rows


def preset_zigzag(p: int, n_max: int, seed: int) -> List[dict]:
    rows = []
    for n in range(1, n_max + 1):
        rep = construct_zigzag(n, p)
        b = restrict_p1(theta_global(rep))
        sub = subquotient_mj(b, 1, im_power=1)
        rows.append(_row("X_%d subquotient" % n, "O(%d)" % (-n),
                         str(sub.splitting) if sub.splitting else sub.note))
        bd = restrict_p1(theta_global(dual_module(rep)))
        subd = subquotient_mj(bd, 1, im_power=1)
        rows.append(_row("X_%d dual subquotient" % n, "O(%d)" % n,
                         str(subd.splitting) if subd.splitting else subd.note))
    return rows


def preset_syzygy(p: int, n_max: int, seed: int) -> List[dict]:
    rows = []
    for n in range(1, n_max + 1):
        rep = construct_syzygy_E2(n, p)
        b = restrict_p1(theta_global(rep))
        sub = subquotient_mj(b, 1)
        if n % 2 == 0:
            expected = "O(%d)" % (-(n * p) // 2)
        else:
            expected = "O(%d)" % (-((n + 1) * p // 2 - 1))
        rows.append(_row("Omega^%d subquotient" % n, expected,
                         str(sub.splitting) if sub.splitting else sub.note))
    return rows


def preset_duals_sections(p: int, n_max: int, seed: int) -> List[dict]:
    rep = construct_duals_example(p)
    basis, _ = global_sections(theta_global(rep), 1)
    basis_d, _ = global_sections(theta_global(dual_module(rep)), 1)
    return [
        _row("sections of M", 2, len(basis)),
        _row("sections of M dual", 1, len(basis_d)),
    ]


def preset_rho_kappa(p: int, n_max: int, seed: int) -> List[dict]:
    mat = rho_kappa_matrix(p)
    rows = [_row("diagonal", list(range(1, p + 1)),
                 [mat[j][j] for j in range(p)])]
    tri = all(mat[j][lam] == 0 for j in range(p) for lam in range(p) if j < lam)
    rows.append(_row("triangular", True, tri))
    nonsing = all(mat[j][j] != 0 for j in range(p))
    rows.append(_row("non-singular diagonal", True, nonsing))
    return rows


def preset_twist(p: int, n_max: int, seed: int) -> List[dict]:
    fld2 = ext_field_build(p, 2)
    rng = random.Random(seed)
    rows = []
    checked = 0
    failures = 0
    for idx in range(50):
        r = 2 if idx % 2 == 0 else 3
        desc = additive_kernel(p, r)
        rep = random_module(desc, rng.randint(2, 4), rng)
        theta = theta_global(rep)
        for s in range(1, r):
            from .modules import frobenius_twist_gar

            theta_s = theta_global(frobenius_twist_gar(rep, s))
            for point in enumerate_points(desc, fld2):
                jt1 = jordan_type(fld2, theta_s.mat.evaluate(point, fld2), p)
                moved = frobenius_point_map(desc, point, s, fld2)
                jt2 = jordan_type(fld2, theta.mat.evaluate(moved, fld2), p)
                checked += 1
                if jt1 != jt2:
                    failures += 1
    rows.append(_row("twist identity failures (of %d checks)" % checked,
                     0, failures))
    return rows


def preset_ext_prod(p: int, n_max: int, seed: int) -> List[dict]:
    rng = random.Random(seed)
    rows = []
    pairs = [
        (construct_zigzag(1, p), random_module(multi_additive(p, 2), 2, rng)),
        (random_module(multi_additive(p, 2), 3, rng),
         random_module(multi_additive(p, 2), 2, rng)),
        (random_module(multi_additive(p, 2), 2, rng), construct_zigzag(1, p)),
    ]
    for idx, (m1, m2) in enumerate(pairs):
        prod = external_product(m1, m2)
        theta4 = theta_global(prod)
        ring2 = theta_global(m1).ring
        images = (ring2.var(0), ring2.var(1), ring2.const(0), ring2.const(0))
        sub = Substitution(theta4.ring, ring2, images, 1)
        names4 = generator_names(prod.desc)
        names2 = generator_names(m1.desc)
        pulled = ModuleRep(
            m1.desc, prod.fld, prod.dim,
            {names2[i]: prod.action[names4[i]] for i in range(2)})
        pulled_theta = ThetaMatrix(pulled, ring2, theta4.mat.substitute(sub), 1)
        for j in range(1, p):
            st = splitting_type(kernel_graded(restrict_p1(pulled_theta), j))
            st1 = splitting_type(kernel_graded(restrict_p1(theta_global(m1)), j))
            expected = tuple(sorted(
                [t for t in st1.twists for _ in range(m2.dim)], reverse=True))
            rows.append(_row("pair %d, j=%d pullback kernel" % (idx, j),
                             list(expected), list(st.twists)))
    return rows


PRESETS = {
    "sl2-kernels": (preset_sl2_kernels, lambda p: p % 2 == 1),
    "pim": (preset_pim, lambda p: p % 2 == 1),
    "zigzag": (preset_zigzag, lambda p: p % 2 == 1),
    "syzygy": (preset_syzygy, lambda p: True),
    "duals-sections": (preset_duals_sections, lambda p: True),
    "rho-kappa": (preset_rho_kappa, lambda p: p % 2 == 1),
    "twist": (preset_twist, lambda p: True),
    "ext-prod": (preset_ext_prod, lambda p: True),
}


def run_reproduce(args) -> Tuple[dict, int]:
    if args.preset not in PRESETS:
        raise InputError("E_PRESET", "unknown preset %r (choose from %s)"
                         % (args.preset, ", ".join(sorted(PRESETS))))
    fn, p_ok = PRESETS[args.preset]
    if not p_ok(args.p):
        raise InputError("E_ARGS", "preset %r does not support p=%d"
                         % (args.preset, args.p))
    rows = fn(args.p, args.n_max, args.seed)
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
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return 0


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
    pa.add_argument("--seed", type=int, default=_default_seed())
    pa.add_argument("--format", choices=["json", "md"], default="md")

    pr = subs.add_parser("reproduce", help="run a scripted check")
    pr.add_argument("preset", help=", ".join(sorted(PRESETS)))
    pr.add_argument("--p", type=int, default=3)
    pr.add_argument("--n-max", type=int, default=4, dest="n_max")
    pr.add_argument("--seed", type=int, default=_default_seed())
    pr.add_argument("--format", choices=["json", "md"], default="md")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            report, code = run_analyze(args)
        else:
            report, code = run_reproduce(args)
    except InputError as exc:
        print("error [%s]: %s" % (exc.code, exc), file=sys.stderr)
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
