"""Command-line interface: parsing, reports, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import jordanbundles
from jordanbundles.checks import CHECKS
from jordanbundles.cli import main, parse_group
from jordanbundles.schemes import (
    additive_kernel,
    gln_height2,
    multi_additive,
    restricted_lie_sl2,
    sl2_height2,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(args, timeout=None, **env):
    """The CLI in a fresh interpreter that imports the package under test."""
    src = os.path.dirname(os.path.dirname(jordanbundles.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "jordanbundles.cli", *args],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path, **env))


RANDOM_BUNDLE = ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin",
                 "random:2", "--op", "bundle", "--format", "json"]


def test_parse_group_names():
    assert parse_group("u_sl2", 3) == restricted_lie_sl2(3)
    assert parse_group("ga2", 3) == additive_kernel(3, 2)
    assert parse_group("ga1", 3) == multi_additive(3, 1)
    assert parse_group("ga1xga1", 3) == multi_additive(3, 2)
    assert parse_group("ga1xga1xga1", 2) == multi_additive(2, 3)
    assert parse_group("sl2_2", 3) == sl2_height2(3)
    assert parse_group("gl2_2", 3) == gln_height2(3, 2)


def test_analyze_bundle_weyl(capsys):
    code, out, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "weyl:4",
         "--op", "bundle", "--j", "1", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert sorted(report["results"]["splitting"]) == [-4, 0]
    assert report["provenance"]["certified_free"] is True


def test_analyze_jtype_zigzag(capsys):
    code, out, err = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "zigzag:2",
         "--op", "jtype", "--point", "1,1", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["jordan_type"] == "2[2] + [1]"


def test_analyze_constant_rank_trivial(capsys):
    code, out, err = run_cli(
        ["analyze", "--group", "ga2", "--p", "3", "--builtin", "trivial:1",
         "--op", "constant-rank", "--j", "1", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["constant"] is True
    assert report["results"]["rank"] == 0


def test_analyze_nonconstant_rank_exits_2(capsys):
    code, out, err = run_cli(
        ["analyze", "--group", "sl2_2", "--p", "3", "--builtin", "natural",
         "--op", "constant-rank", "--j", "1", "--format", "json"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["results"]["constant"] is False


def test_analyze_sections_duals(capsys):
    code, out, err = run_cli(
        ["analyze", "--group", "ga2", "--p", "3", "--builtin", "duals",
         "--op", "sections", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["dimension"] == 2


def test_analyze_projective_endotrivial(capsys):
    code, out, _ = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "free:1",
         "--op", "projective", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["results"]["projective"] is True
    code, out, _ = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "syzygy:1",
         "--op", "endotrivial", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["results"]["endotrivial"] is True


def test_analyze_ktheory(capsys):
    code, out, _ = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "steinberg",
         "--op", "ktheory", "--format", "json"], capsys)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["rank"] == 1 and res["degree"] == -2  # O(-2) = 1-p


def test_input_errors_exit_1(capsys):
    code, _, err = run_cli(
        ["analyze", "--group", "nope", "--p", "3", "--builtin", "trivial:1",
         "--op", "sections"], capsys)
    assert code == 1 and "E_GROUP" in err
    code, _, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--op", "sections"],
        capsys)
    assert code == 1 and "E_ARGS" in err
    code, _, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "zigzag:1",
         "--op", "sections"], capsys)
    assert code == 1 and "E_BUILTIN" in err
    code, _, err = run_cli(["reproduce", "nope"], capsys)
    assert code == 1 and "E_PRESET" in err


ZIGZAG = ["analyze", "--group", "ga1xga1", "--builtin", "zigzag:1"]
GA2_P3 = ["analyze", "--group", "ga1xga1", "--p", "3"]
U_SL2_P3 = ["analyze", "--group", "u_sl2", "--p", "3"]


@pytest.mark.parametrize("argv,code", [
    # a composite p has no field; building Z/4 once looped for ever
    (ZIGZAG + ["--p", "4", "--op", "bundle"], "E_ARGS"),
    (ZIGZAG + ["--p", "9", "--op", "bundle"], "E_ARGS"),
    (["reproduce", "syzygy", "--p", "4"], "E_ARGS"),
    (ZIGZAG + ["--p", "1", "--op", "bundle"], "E_ARGS"),
    (ZIGZAG + ["--p", "0", "--op", "bundle"], "E_ARGS"),
    (ZIGZAG + ["--p", "-3", "--op", "bundle"], "E_ARGS"),
    # scans and tables with no entries give no verdict
    (GA2_P3 + ["--builtin", "zigzag:1", "--op", "constant-rank", "--max-ext", "0"], "E_ARGS"),
    (GA2_P3 + ["--builtin", "zigzag:1", "--op", "constant-rank", "--max-ext", "-1"], "E_ARGS"),
    (GA2_P3 + ["--builtin", "zigzag:1", "--op", "projective", "--max-ext", "0"], "E_ARGS"),
    (GA2_P3 + ["--builtin", "zigzag:1", "--op", "constant-rank", "--max-ext", "5"], "E_ARGS"),
    (["reproduce", "zigzag", "--n-max", "0"], "E_ARGS"),
    (["reproduce", "syzygy", "--n-max", "-2"], "E_ARGS"),
    # built-in counts below 1 are not clamped
    (GA2_P3 + ["--builtin", "trivial:0", "--op", "sections"], "E_BUILTIN"),
    (GA2_P3 + ["--builtin", "trivial:-2", "--op", "sections"], "E_BUILTIN"),
    (GA2_P3 + ["--builtin", "free:0", "--op", "sections"], "E_BUILTIN"),
    (GA2_P3 + ["--builtin", "random:0", "--op", "sections"], "E_BUILTIN"),
    (["analyze", "--group", "gl2_2", "--p", "3", "--builtin", "tensor:0", "--op", "sections"],
     "E_BUILTIN"),
    # a point outside GF(3), or of the wrong length
    (GA2_P3 + ["--builtin", "zigzag:1", "--op", "jtype", "--point", "5,7"], "E_POINT"),
    (GA2_P3 + ["--builtin", "zigzag:1", "--op", "jtype", "--point", "1"], "E_POINT"),
    # a point off V(G), and built-in parameters out of range, are input
    # errors, not unsupported requests
    (U_SL2_P3 + ["--builtin", "weyl:1", "--op", "jtype", "--point", "1,1,1"], "E_POINT"),
    (U_SL2_P3 + ["--builtin", "weyl:-1", "--op", "bundle"], "E_BUILTIN"),
    (GA2_P3 + ["--builtin", "zigzag:-2", "--op", "bundle"], "E_BUILTIN"),
    (GA2_P3 + ["--builtin", "syzygy:-1", "--op", "bundle"], "E_BUILTIN"),
    (U_SL2_P3 + ["--builtin", "pim:7", "--op", "bundle"], "E_BUILTIN"),
])
def test_bad_input_exits_1_with_its_code(argv, code):
    proc = run_cli_process(argv + ["--format", "json"], timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error [%s]:" % code)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("j", [0, 3, 7])
def test_out_of_range_j_exits_1(capsys, j):
    # j must lie in 1..p-1 for every op that reads it
    for op in ("bundle", "subquotient", "sections", "constant-rank"):
        code, out, err = run_cli(
            ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "weyl:4",
             "--op", op, "--j", str(j)], capsys)
        assert code == 1 and out == "" and "E_ARGS" in err
    # jtype does not read j
    code, out, _ = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "zigzag:2",
         "--op", "jtype", "--point", "1,1", "--j", str(j), "--format", "json"],
        capsys)
    assert code == 0 and json.loads(out)["request"]["j"] == j


def test_max_ext_over_an_extension_field_exits_1(tmp_path, capsys):
    # a module over GF(9) is scanned over GF(9) alone, so --max-ext 3 is an
    # input error, not a silent clamp to GF(9)
    import random

    from jordanbundles.field import ext_field_build
    from jordanbundles.modules import module_to_dict, random_module

    path = tmp_path / "m9.json"
    rep = random_module(multi_additive(3, 2), 2, random.Random(1), ext_field_build(3, 2))
    path.write_text(json.dumps(module_to_dict(rep)))
    argv = ["analyze", "--group", "ga1xga1", "--p", "3", "--input", str(path),
            "--op", "constant-rank", "--format", "json"]
    code, out, err = run_cli(argv + ["--max-ext", "3"], capsys)
    assert code == 1 and out == "" and err.startswith("error [E_ARGS]:")
    assert "--max-ext" in err and "GF(3^2)" in err
    code, out, _ = run_cli(argv + ["--max-ext", "1"], capsys)
    assert json.loads(out)["results"]["fields_scanned"] == [[3, 2]]


def test_module_file_roundtrip(tmp_path, capsys):
    from jordanbundles.modules import construct_zigzag, module_to_dict

    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module_to_dict(construct_zigzag(1, 3))))
    code, out, _ = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--input", str(path),
         "--op", "bundle", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["rank"] == 2


def test_malformed_module_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(
        ["analyze", "--group", "ga2", "--p", "3", "--input", str(path),
         "--op", "sections"], capsys)
    assert code == 1 and "E_JSON" in err


def test_reproduce_duals_sections(capsys):
    code, out, _ = run_cli(
        ["reproduce", "duals-sections", "--p", "3", "--format", "json"],
        capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert all(row["pass"] for row in rows)


def test_reproduce_rho_kappa(capsys):
    code, out, _ = run_cli(
        ["reproduce", "rho-kappa", "--p", "3", "--format", "json"], capsys)
    assert code == 0


def test_reproduce_zigzag_markdown_table(capsys):
    code, out, _ = run_cli(
        ["reproduce", "zigzag", "--p", "3", "--n-max", "2"], capsys)
    assert code == 0
    assert "| PASS |" in out
    assert "O(-1)" in out and "O(1)" in out


def test_reports_deterministic(capsys):
    args = ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin",
            "random:3", "--op", "bundle", "--seed", "5", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    _, out3, _ = run_cli(args[:-3] + ["6", "--format", "json"], capsys)
    # a different seed gives a different random module (usually a different
    # report; at minimum the echoed request does not change)
    assert json.loads(out3)["provenance"]["seed"] == 6


def test_jb_seed_env_fallback():
    proc = run_cli_process(RANDOM_BUNDLE, JB_SEED="9")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["provenance"]["seed"] == 9


def test_jb_seed_not_an_integer_exits_1():
    proc = run_cli_process(RANDOM_BUNDLE, JB_SEED="nine")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error [E_ARGS]:")


# The paper's values as literals, apart from the formulas in
# ``jordanbundles.checks``: the CLI and the acceptance criteria share those
# formulas, so a wrong edit to one would pass both of them but not this.
FROZEN_EXPECTED = {
    ("sl2-kernels", 3): ["O(0)", "O(-1)", "O(-2)", "O(-1) + O(-3)",
                         "O(0) + O(-4)"],
    ("sl2-kernels", 5): ["O(0)", "O(-1)", "O(-2)", "O(-3)", "O(-4)",
                         "O(-3) + O(-5)", "O(-2) + O(-6)", "O(-1) + O(-7)",
                         "O(0) + O(-8)"],
    ("pim", 3): ["O(0) + O(-4)", "O(-1) + O(-3)", "O(-2)"],
    ("pim", 5): ["O(0) + O(-8)", "O(-1) + O(-7)", "O(-2) + O(-6)",
                 "O(-3) + O(-5)", "O(-4)"],
    ("syzygy", 3): ["O(-2)", "O(-3)", "O(-5)", "O(-6)"],
    ("syzygy", 5): ["O(-4)", "O(-5)", "O(-9)", "O(-10)"],
}


@pytest.mark.parametrize("name,p", sorted(FROZEN_EXPECTED))
def test_reproduce_expected_column_is_frozen(capsys, name, p):
    code, out, _ = run_cli(
        ["reproduce", name, "--p", str(p), "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert [row["expected"] for row in rows] == FROZEN_EXPECTED[name, p]


# twist is left out: acceptance criterion 07 runs it through the same table
@pytest.mark.parametrize("name", sorted(set(CHECKS) - {"twist"}))
def test_reproduce_every_check(capsys, name):
    code, out, _ = run_cli(
        ["reproduce", name, "--p", "3", "--n-max", "2", "--format", "json"],
        capsys)
    assert code == 0
    assert json.loads(out)["provenance"]["all_pass"] is True


def test_console_script_help():
    proc = run_cli_process(["--help"])
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "reproduce" in proc.stdout


def test_engine_invariant_failure_exits_3(capsys, monkeypatch):
    # a point rank and a generic rank that are too small make the kernel
    # count pass Forney's bound: an engine fault, reported apart from input
    # errors
    import jordanbundles.bundles as bundles

    monkeypatch.setattr(bundles, "_point_rank", lambda fld, power, j, p: 0)
    monkeypatch.setattr(bundles, "generic_rank", lambda mat: 0)
    code, out, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "weyl:4",
         "--op", "bundle", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:")


def test_non_invariant_spin_exits_3(capsys, monkeypatch):
    # a syzygy is spun from its generators; a spin whose images all come
    # out zero leaves a span that is not invariant, an engine fault
    import jordanbundles.modules as modules

    monkeypatch.setattr(modules, "_mat_mul_nz", lambda fld, a, b_nz, m: [[0] * m for _ in a])
    code, out, err = run_cli(GA2_P3 + ["--builtin", "syzygy:2", "--op", "projective",
                                       "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:") and "not invariant" in err


def test_nonzero_p_th_power_in_subquotient_exits_3(capsys, monkeypatch):
    # ker theta^j / im theta^(p-j) needs theta^p = 0 on the chart, which
    # holds for every validated module: a product check that fails is an
    # engine fault
    from jordanbundles.polyring import PolyMatrix

    monkeypatch.setattr(PolyMatrix, "is_zero", lambda self: False)
    code, out, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "5", "--builtin", "weyl:6",
         "--op", "subquotient", "--j", "2", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:") and "not contained" in err


def test_missing_projective_summand_exits_3(capsys, monkeypatch):
    # the Casimir block of St (x) V_{p-1-lam} is always P_lam, of dimension
    # 2p; a kernel that loses a dimension is an engine fault
    import jordanbundles.modules as modules

    real = modules.kernel_basis

    def short_kernel(fld, a, ncols=None):
        return real(fld, a, ncols)[1:]

    monkeypatch.setattr(modules, "kernel_basis", short_kernel)
    code, out, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "pim:0",
         "--op", "bundle", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:") and "P_0 not found" in err


@pytest.mark.parametrize("p,lam", [(3, 0), (5, 2)])
def test_non_invariant_casimir_block_exits_3(capsys, monkeypatch, p, lam):
    # the Casimir block of St (x) V_{p-1-lam} is invariant; one of the right
    # dimension that is not is an engine fault, not restrict_subspace's
    # ValueError (exit 1)
    import jordanbundles.modules as modules
    from jordanbundles.field import identity, reduce_vector, row_reduce

    real = modules.kernel_basis

    def off_block(fld, a, ncols=None):
        rows = real(fld, a, ncols)
        basis, pivots = row_reduce(fld, rows)
        unit = next(e for e in identity(fld, ncols)
                    if any(reduce_vector(fld, basis, pivots, e)))
        return [unit] + rows[1:]

    monkeypatch.setattr(modules, "kernel_basis", off_block)
    code, out, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", str(p), "--builtin", "pim:%d" % lam,
         "--op", "bundle", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:")
    assert "Casimir block of P_%d is not invariant" % lam in err


@pytest.mark.parametrize("fault", ["dependent", "reordered"])
def test_broken_jordan_basis_exits_3(capsys, monkeypatch, fault):
    # a random (G_a)^2 module draws its second matrix from the commutant of
    # the first, solved in a Jordan basis of it; chains that are not a
    # basis, or do not conjugate the matrix to its Jordan form, are an
    # engine fault, not inverse's ValueError (exit 1)
    import jordanbundles.field as field

    real = field.jordan_chains

    def broken(fld, n):
        chains = real(fld, n)
        if fault == "dependent":
            # still chains of n, but the last repeats the start of the first
            chains[-1] = [list(v) for v in chains[0][:len(chains[-1])]]
        else:
            chains[0].reverse()
        return chains

    monkeypatch.setattr(field, "jordan_chains", broken)
    code, out, err = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "random:4",
         "--op", "bundle", "--seed", "0", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:")
    assert ("form a basis" if fault == "dependent" else "conjugate") in err


def test_sampling_failure_exits_1(capsys, monkeypatch):
    # a scan over F_25 samples its points; draws that find too few are
    # reported with their own code, not as a traceback
    import jordanbundles.operators as operators
    from jordanbundles.schemes import SamplingError

    def no_points(desc, fld, count, rng):
        raise SamplingError("could not sample enough points of %s" % desc.label())

    monkeypatch.setattr(operators, "sample_points", no_points)
    code, out, err = run_cli(
        ["analyze", "--group", "sl2_2", "--p", "5", "--builtin", "natural",
         "--op", "constant-rank", "--max-ext", "2", "--format", "json"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error [E_SAMPLE]:")


def test_inhomogeneous_theta_exits_3(capsys, monkeypatch):
    # an orbit scan over a Theta whose entries have no common weighted
    # degree is an engine fault, not an input error
    import jordanbundles.cli as cli
    from jordanbundles.operators import ThetaMatrix, theta_global
    from jordanbundles.polyring import PolyMatrix

    def bad_theta(rep):
        th = theta_global(rep)
        u0 = th.ring.var(0)
        rows = [list(r) for r in th.mat.rows]
        rows[0][0] = rows[0][0] + u0 * u0
        return ThetaMatrix(rep, th.ring, PolyMatrix(th.ring, rows), 1)

    monkeypatch.setattr(cli, "theta_global", bad_theta)
    code, out, err = run_cli(
        ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "zigzag:1",
         "--op", "constant-rank", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:") and "homogeneous" in err


def test_inhomogeneous_chart_restriction_exits_3(capsys, monkeypatch):
    # Theta restricted to the built-in P^1 chart is homogeneous by
    # construction; a restriction that is not is an engine fault
    from jordanbundles.polyring import PolyMatrix

    monkeypatch.setattr(PolyMatrix, "entries_homogeneous_of_degree", lambda self: None)
    code, out, err = run_cli(
        ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "weyl:2",
         "--op", "bundle", "--format", "json"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error [E_INTERNAL]:") and "built-in P^1 chart" in err


def test_twist_check_counts_every_nonzero_point():
    # one check per orbit representative, counted for the q - 1 points of
    # its orbit: 25 G_a(2) modules at the 80 nonzero points of F_9^2, and
    # 25 G_a(3) modules, twisted once and twice, at the 728 of F_9^3
    rows = CHECKS["twist"][1](3, 4, 2026)
    assert rows[0]["check"] == "twist identity failures (of %d checks)" % (
        25 * 80 + 25 * 2 * 728)
    assert rows[0]["pass"]


def test_sl2_height2_scan_over_f25_reports(capsys):
    # SL2(2) points over F_25 are drawn by structure, so the scan that the
    # rejection sampler could not finish now reports: the natural module is
    # not of constant rank (exit 2)
    code, out, err = run_cli(
        ["analyze", "--group", "sl2_2", "--p", "5", "--builtin", "natural",
         "--op", "constant-rank", "--max-ext", "2", "--format", "json"], capsys)
    assert code == 2 and err == ""
    report = json.loads(out)
    assert report["results"]["constant"] is False
    assert report["results"]["fields_scanned"] == [[5, 1], [5, 2]]
    assert report["provenance"]["sampled"] is True


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "zigzag:1",
     "--op", "jtype", "--point", "1,0"],
    ["analyze", "--group", "u_sl2", "--p", "3", "--builtin", "weyl:2", "--op", "projective"],
    ["analyze", "--group", "ga1xga1", "--p", "3", "--builtin", "syzygy:1",
     "--op", "endotrivial"],
    ["reproduce", "twist", "--p", "2"],
], ids=["jtype", "projective", "endotrivial", "twist"])
def test_non_nilpotent_local_operator_exits_3(capsys, monkeypatch, argv):
    # Theta(x) is p-nilpotent at every point of V(G); an evaluation that
    # breaks this is an engine fault (exit 3), not an input error (exit 1)
    from jordanbundles.polyring import PolyMatrix

    def identity(self, point, fld=None):
        return [[int(i == j) for j in range(self.ncols)] for i in range(self.nrows)]

    monkeypatch.setattr(PolyMatrix, "evaluate", identity)
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error [E_INTERNAL]:") and "not p-nilpotent" in err
