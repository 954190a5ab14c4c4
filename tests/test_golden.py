"""Golden reports: fixed ``analyze``/``reproduce`` requests, run in process
with ``--format json --seed 0``, against the report bytes kept in
``tests/golden/<name>.json``.

The requests build Theta for every group family, take a generic rank by
each route (the kernel count on a P^1 chart, Bareiss on G_a(r) and on
(G_a)^r with r != 2, none on the height-2 families), read sections on
the sl2 chart, pull Theta back by a substitution (``ext-prod``), and split
subquotient sheaves of rank 2 and 3 by the dual count, or report their
torsion.  The files were written by the engine before Theta and its
restrictions were built through their coefficient form, except the
rank-3 and torsion subquotients, written when the dual count replaced the
rank-2 section walk, and the rank-0 torsion subquotient, written when
rank-0 sheaves kept their K_0 degree, and the endotriviality of V_1 at
p = 5 (type [2] at every point, so not endotrivial), written when the
test began to require N mod p in {1, p - 1}, and the rank-3 subquotient
with distinct twists O(3) + O(0) + O(-2), whose dual sources start in
different degrees, written before the dual count moved onto the kernels'
sliding echelon.  A change that means to alter a report rewrites its file
and says why.  A request runs with ``--seed 0`` unless it names its own
seed."""

import os

import pytest

from jordanbundles.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

REQUESTS = {
    "ga1-random3-constant-rank":
        "analyze --group ga1 --p 3 --builtin random:3 --op constant-rank",
    "ga1xga1-zigzag2-constant-rank":
        "analyze --group ga1xga1 --p 3 --builtin zigzag:2 --op constant-rank",
    "ga1xga1xga1-random3-constant-rank":
        "analyze --group ga1xga1xga1 --p 2 --builtin random:3 --op constant-rank --max-ext 2",
    "ga2-random3-constant-rank":
        "analyze --group ga2 --p 3 --builtin random:3 --op constant-rank --max-ext 2",
    "ga3-random3-constant-rank":
        "analyze --group ga3 --p 2 --builtin random:3 --op constant-rank --max-ext 2",
    "u_sl2-weyl3-constant-rank":
        "analyze --group u_sl2 --p 3 --builtin weyl:3 --op constant-rank --j 2 --max-ext 2",
    "sl2_2-natural-constant-rank":
        "analyze --group sl2_2 --p 3 --builtin natural --op constant-rank",
    "gl2_2-natural-constant-rank":
        "analyze --group gl2_2 --p 3 --builtin natural --op constant-rank",
    "gl2_2-tensor2-constant-rank":
        "analyze --group gl2_2 --p 3 --builtin tensor:2 --op constant-rank",
    "ga1xga1-syzygy3-endotrivial":
        "analyze --group ga1xga1 --p 3 --builtin syzygy:3 --op endotrivial --max-ext 2",
    "ga1xga1-syzygy2-ktheory":
        "analyze --group ga1xga1 --p 3 --builtin syzygy:2 --op ktheory --j 2",
    "ga1xga1-syzygy2-subquotient-p5":
        "analyze --group ga1xga1 --p 5 --builtin syzygy:2 --op subquotient",
    "ga2-duals-sections":
        "analyze --group ga2 --p 3 --builtin duals --op sections",
    "u_sl2-pim1-sections":
        "analyze --group u_sl2 --p 5 --builtin pim:1 --op sections --j 2",
    "u_sl2-weyl1-endotrivial-p5":
        "analyze --group u_sl2 --p 5 --builtin weyl:1 --op endotrivial",
    "u_sl2-steinberg-projective":
        "analyze --group u_sl2 --p 3 --builtin steinberg --op projective",
    "u_sl2-weyl7-subquotient":
        "analyze --group u_sl2 --p 5 --builtin weyl:7 --op subquotient --j 2",
    "u_sl2-weyl9-subquotient-rank3":
        "analyze --group u_sl2 --p 7 --builtin weyl:9 --op subquotient --j 3",
    "ga1xga1-random4-subquotient-torsion":
        "analyze --group ga1xga1 --p 3 --builtin random:4 --op subquotient --j 2",
    "ga1xga1-random3-subquotient-rank0-torsion":
        "analyze --group ga1xga1 --p 3 --builtin random:3 --op subquotient --j 1 --seed 1",
    "ga1xga1-random9-subquotient-mixed-twists":
        "analyze --group ga1xga1 --p 5 --builtin random:9 --op subquotient --j 2",
    "reproduce-rho-kappa-p3": "reproduce rho-kappa --p 3",
    "reproduce-ext-prod-p3": "reproduce ext-prod --p 3",
    "reproduce-twist-p2": "reproduce twist --p 2",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_matches_golden_file(name, capsys):
    args = REQUESTS[name].split()
    if "--seed" not in args:
        args += ["--seed", "0"]
    main(args + ["--format", "json"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()
