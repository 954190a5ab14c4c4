"""Case runner, per-case caps, span tracer and metric arithmetic.

The benchmark calls the library only through an ``Api`` namespace.  Each
attribute is a public function of one package module (a *layer*).  Untraced,
the attribute is the function itself; traced, it is a wrapper that records a
span (name, start, end, parent, case id) and counts taken from the return
value.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass
from statistics import median
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

# Public functions the workloads call, by layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "field": ("ext_field_build", "prime_field", "row_reduce", "rank",
              "kernel_basis", "mat_mul"),
    "polyring": ("generic_rank",),
    "schemes": ("additive_kernel", "multi_additive", "restricted_lie_sl2",
                "frobenius_point_map", "sample_points", "generator_names"),
    "modules": ("random_module", "frobenius_twist_gar",
                "principal_indecomposable_sl2", "decompose_summands",
                "construct_weyl_sl2", "construct_zigzag", "construct_syzygy_E2",
                "construct_steinberg", "construct_duals_example",
                "sl2_height2_natural", "gln_tensor_power", "dual_module",
                "direct_sum", "external_product", "ModuleRep"),
    "operators": ("theta_global", "theta_local", "jordan_type",
                  "jordan_type_chain_oracle", "constant_jrank_report",
                  "jtype_scan", "ThetaMatrix"),
    "bundles": ("restrict_p1", "kernel_graded", "splitting_type",
                "subquotient_mj", "global_sections", "rho_kappa_matrix"),
}

# Field routines whose span name records the field kind (prime or ext).
_FIELD_KINDED = {"row_reduce", "rank", "kernel_basis", "mat_mul"}


def make_api(pkg: SimpleNamespace, tracer: Optional["Tracer"]) -> SimpleNamespace:
    """Bind the layer functions of one import of the package."""
    api = SimpleNamespace(pkg=pkg)
    for layer, names in LAYERS.items():
        mod = getattr(pkg, layer)
        for name in names:
            setattr(api, name, _bind(tracer, layer, name, getattr(mod, name)))

    def run_cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pkg.cli.main(argv)
        return code, out.getvalue()

    # Methods and generators are adapted so that a span covers the work.
    adapters = {
        ("polyring", "evaluate"): lambda mat, point, fld: mat.evaluate(point, fld),
        ("polyring", "power"): lambda mat, j: mat.power(j),
        ("schemes", "enumerate_points"):
            lambda desc, fld: list(pkg.schemes.enumerate_points(desc, fld)),
        ("cli", "main"): run_cli,
    }
    for (layer, name), fn in adapters.items():
        setattr(api, name, _bind(tracer, layer, name, fn))
    return api


def _bind(tracer, layer, name, fn):
    if tracer is None:
        return fn
    return tracer.wrap(layer, name, fn)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[Tuple[str, float, float, Optional[int], str, bool]] = []
        self.counts: Dict[Tuple[bool, str], float] = {}
        self.case = "setup"
        self._stack: List[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        slot = (self.case == "setup", key)
        self.counts[slot] = self.counts.get(slot, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.case, False))
        self._stack.append(idx)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._stack.pop()
            name, start, _, parent, case, _ = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent, case, ok)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if name in _FIELD_KINDED:
                kind = "prime" if args[0].e == 1 else "ext"
                label = "field.%s.%s" % (kind, name)
            else:
                kind = None
                label = "%s.%s" % (layer, name)
            try:
                with self.span(label):
                    result = fn(*args, **kwargs)
            except Exception:
                self.count(label + ".failed")
                raise
            if hook is not None:
                hook(self, kind, args, result)
            return result

        traced.__name__ = name
        return traced

    # Per-pass values: set-up spans and counts once, pass ones averaged.

    def busy(self, name: str, passes: int) -> float:
        return self._per_pass([(s[4] == "setup", s[2] - s[1])
                               for s in self.spans if s[0] == name], passes)

    def calls(self, name: str, passes: int) -> float:
        return self._per_pass([(s[4] == "setup", 1) for s in self.spans if s[0] == name],
                              passes)

    def total(self, key: str, passes: int) -> float:
        return self._per_pass([(in_setup, v) for (in_setup, k), v in self.counts.items()
                               if k == key], passes)

    @staticmethod
    def _per_pass(items, passes: int) -> float:
        return sum(v if in_setup else v / passes for in_setup, v in items)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, case, ok in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": round(start - self.t0, 6),
                    "end": round(end - self.t0, 6), "parent": parent,
                    "case": case, "ok": ok}) + "\n")


def _elim(tracer, kind, args, result):
    a = args[1]
    rows, cols = len(a), (len(a[0]) if a else 0)
    if isinstance(result, int):
        rk = result
    elif isinstance(result, tuple):
        rk = len(result[1])
    else:  # kernel_basis: rank = ncols - nullity
        rk = cols - len(result)
    tracer.count("field.%s.elim_ops" % kind, rows * cols * rk)


def _kernel(tracer, kind, args, sub):
    tracer.count("bundles.kernel.degrees_visited", len(sub.hilbert))
    tracer.count("bundles.kernel.top_degrees", max(sub.degrees, default=-1) + 1)
    tracer.count("bundles.kernel.certified", int(sub.certified_free))


def _subquotient(tracer, kind, args, rpt):
    tracer.count("bundles.subquotient.degrees_visited", len(rpt.hilbert))
    tracer.count("bundles.subquotient.identified", int(rpt.splitting is not None))


def _decompose(tracer, kind, args, result):
    parts, report = result
    tracer.count("modules.decompose.parts", len(parts))
    tracer.count("modules.decompose.certified", int(report.certified))


_HOOKS = {
    "row_reduce": _elim,
    "rank": _elim,
    "kernel_basis": _elim,
    "evaluate": lambda t, k, a, m: t.count("polyring.evaluate.entries",
                                           len(m) * len(m[0]) if m else 0),
    "enumerate_points": lambda t, k, a, pts: t.count("schemes.points", len(pts)),
    "constant_jrank_report": lambda t, k, a, r: t.count("operators.points_scanned",
                                                        r.points_scanned),
    "kernel_graded": _kernel,
    "subquotient_mj": _subquotient,
    "decompose_summands": _decompose,
    "main": lambda t, k, a, r: t.count("cli.report_bytes", len(r[1])),
}


# ---------------------------------------------------------------------------
# cases


class CaseTimeout(BaseException):
    """Raised by SIGALRM when a case passes its cap.  A BaseException, so
    that no ``except Exception`` inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


NORMAL, KNOWN_BAD, CANARY = "normal", "known_bad", "canary"


@dataclass
class Case:
    """One checked unit of work.  ``fn(api)`` returns ``(got, expected,
    detail)``; the case passes when ``got == expected``.  ``detail`` is extra
    output that only enters the digest."""

    name: str
    fn: Callable[[Any], Tuple[Any, Any, Any]]
    cap_s: float = 30.0
    kind: str = NORMAL


@dataclass
class Outcome:
    case: Case
    seconds: float
    status: str  # ok, wrong, error, timeout, unstable
    digest: Optional[str] = None
    message: str = ""
    start: float = 0.0  # perf_counter() when the case began

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def unexpected(self) -> bool:
        """A failure nobody planned for: the run is not correct."""
        if self.case.kind == CANARY:
            return self.status != "wrong"
        if self.case.kind == KNOWN_BAD:
            return self.status in ("wrong", "unstable")
        return self.failed


def digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_case(case: Case, api, cap_s: float, tracer: Optional[Tracer]) -> Outcome:
    if cap_s <= 0:
        return Outcome(case, 0.0, "timeout", message="run deadline reached")
    if tracer is not None:
        tracer.case = case.name
    span = tracer.span("case") if tracer is not None else contextlib.nullcontext()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = time.perf_counter()
    try:
        with span:
            got, expected, detail = case.fn(api)
        seconds = time.perf_counter() - t0
    except CaseTimeout:
        return Outcome(case, time.perf_counter() - t0, "timeout",
                       message="over its %.1f s cap" % cap_s, start=t0)
    except Exception as exc:  # a raising case is a failed case, not a crash
        return Outcome(case, time.perf_counter() - t0, "error",
                       message="%s: %s" % (type(exc).__name__, exc), start=t0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    status = "ok" if got == expected else "wrong"
    message = "" if status == "ok" else "got %r, expected %r" % (got, expected)
    return Outcome(case, seconds, status, digest((got, detail)), message, t0)


def run_pass(cases: List[Case], runs: List[Tuple[Any, Optional[Tracer]]],
             deadline: float, pass_no: int) -> List[List[Outcome]]:
    """One pass over ``cases``, once for each ``(api, tracer)`` in ``runs``.

    The runs of one case go back to back, and which goes first rotates from
    case to case and pass to pass, so that every run sees the same drift of
    the machine's speed.  Returns one outcome list per run."""
    outcomes: List[List[Outcome]] = [[] for _ in runs]
    for i, case in enumerate(cases):
        for k in range(len(runs)):
            r = (i + pass_no + k) % len(runs)
            api, tracer = runs[r]
            cap = min(case.cap_s, deadline - time.perf_counter())
            outcomes[r].append(run_case(case, api, cap, tracer))
    return outcomes


class SpeedProbe:
    """The machine's speed, sampled through the run.

    The shared host this runs on changes speed by up to 1.3x, in stretches
    of a few seconds to minutes, and a run of half a minute averages none
    of that out.  So a fixed pure-Python elimination (48x48 over GF(31),
    written here and calling nothing from the package) is timed between
    cases, at most ``EVERY_S`` apart, and each measured time is scaled by
    ``REF_S`` over the median probe time around it (within ``WINDOW_S``
    plus its own length, so that a long case is scaled by the speed over a
    long stretch): it reads as the time on a machine where the probe takes
    ``REF_S``.  A change to the package moves the measured times and leaves
    the probe alone."""

    REF_S = 0.0125  # near the probe's typical time on the machine of the baseline
    EVERY_S = 0.25
    WINDOW_S = 1.0
    P = 31

    def __init__(self) -> None:
        rng = random.Random(0)
        self.matrix = [[rng.randrange(self.P) for _ in range(48)] for _ in range(48)]
        self.last = float("-inf")
        self.starts: List[float] = []
        self.times: List[float] = []

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.sample()

    def sample(self) -> None:
        p = self.P
        t0 = time.perf_counter()
        a = [row[:] for row in self.matrix]
        r = 0
        for c in range(len(a)):
            piv = next((i for i in range(r, len(a)) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = pow(a[r][c], p - 2, p)
            a[r] = [x * inv % p for x in a[r]]
            for i in range(len(a)):
                f = a[i][c]
                if i != r and f:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
            r += 1
        self.last = time.perf_counter()
        self.starts.append(t0)
        self.times.append(self.last - t0)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, scaled by the probes around
        them (the nearest probe if none is within the window)."""
        reach = self.WINDOW_S + seconds
        lo = bisect.bisect_left(self.starts, start - reach)
        hi = bisect.bisect_right(self.starts, start + seconds + reach)
        near = self.times[lo:hi]
        if not near:
            k = min(range(len(self.starts)), key=lambda k: abs(self.starts[k] - start))
            near = [self.times[k]]
        return seconds * self.REF_S / median(near)


def wall(outcomes: List[Outcome]) -> float:
    """Time of one pass: the sum of its case latencies."""
    return sum(o.seconds for o in outcomes)


def mark_unstable(passes: List[List[Outcome]]) -> None:
    """A case whose output digest differs between passes has failed."""
    first: Dict[str, str] = {}
    for outcomes in passes:
        for out in outcomes:
            if out.digest is None:
                continue
            ref = first.setdefault(out.case.name, out.digest)
            if ref != out.digest:
                out.status = "unstable"
                out.message = "digest %s differs from %s" % (out.digest, ref)


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """Latency at the highest percentile that leaves at least ten values
    above it; returns (value, percentile, count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n
