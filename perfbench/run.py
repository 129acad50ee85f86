#!/usr/bin/env python3
"""Time-to-verdict benchmark for ``stehbein verify``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload su2-o4 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --compare A.json B.json

One operation is an in-process ``stehbein.cli.main(["verify", INPUT,
"--max-order", K, "--seed", SEED, "--report", REPORT])`` with stdout
captured.  Each workload runs as a closed loop: one caller in one process,
the next operation starting when the previous one returns.  BLAS keeps its
default thread count.

``--trace 0`` measures the end-to-end metrics, with fresh-interpreter
set-up probes spread between the operations.  Each operation is followed
by a fixed pure-Python gauge, and the times are scaled by how fast the
gauge ran (see ``scale``).  ``--trace 1`` measures the per-layer metrics,
alternating untraced operations, traced operations and a timed sweep of
the check groups, so that the difference of the first two medians is the
cost of tracing.  Every operation's report is checked (see ``Checker``).  A detail record with provenance,
samples and per-check residuals goes to ``.perfbench_out/`` and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``--compare`` prints the largest residual difference between two records.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # inputs, reports, detail records and spans

SETUP_PROBES = 16        # fresh interpreters timed per run, spread evenly over it
PROBE_PAUSE_S = 0.2      # idle time before a probe: the caller's BLAS threads stop spinning
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
MIN_OPS = 22             # operations per run at least, so the tail lies above the median
GAUGE_LOOP = 300_000     # iterations of the machine-speed gauge (see python_gauge)
REFERENCE_GAUGE_S = 0.034  # its typical time on the 2-vCPU x86_64 VM the benchmark was written on
MIN_SWEEPS = 3           # traced run: untraced op, traced op, group sweep, at least this often
KERNEL_BUDGET_S = 0.25   # time per kernel microbenchmark
KERNEL_MIN_REPS = 5
RESIDUAL_TOL = 1e-14     # --compare: largest residual change still "unchanged"

END_TO_END = {"verify_p50_s": "s", "verify_tail_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}
# traced span -> the aggregates reported for it
SPAN_FIELDS = {
    "report.run_verify": ("self_s",),
    "connection.dn": ("calls", "self_s"),
    "connection.d2": ("calls", "self_s"),
    "connection.covariant_derivative": ("calls", "self_s"),
    "frametensor.apply_central_at": ("calls", "self_s", "bytes"),
    "frametensor.word_tensor": ("calls", "self_s", "bytes"),
    "frametensor.lift_central": ("calls", "self_s"),
    "frametensor.basis_field": ("calls",),
    "involution.build_jn": ("calls", "self_s"),
    "involution.star_form": ("calls", "self_s"),
    "involution.check_fifa": ("self_s",),
    "involution.check_jn_involutive": ("self_s",),
    "involution.check_Dn_reality": ("self_s",),
    "involution.check_D2_reality": ("self_s",),
    "braiding.apply_word": ("calls", "self_s"),
    "braiding.check_braid": ("self_s",),
    "calculus.differential0": ("calls", "self_s"),
    "calculus.differential1": ("calls", "self_s"),
    "io.load_input": ("self_s",),
    "io.save_json": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "bytes": "B-computed"}
KERNELS = ("apply_central_at", "word_tensor", "build_jn", "dn")


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit without a result."""
    init = SRC / "stehbein" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run the benchmark from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import stehbein
    if Path(stehbein.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported stehbein from {stehbein.__file__}, not {init}")


def per_layer_units(groups) -> dict:
    units = {f"report.check_s.{g}": "s" for g in groups}
    for span, fields in SPAN_FIELDS.items():
        units.update({f"{span}.{f}": FIELD_UNITS[f] for f in fields})
    units["connection.dn.calls_per_monomial"] = "calls/monomial"
    units["involution.build_jn.calls_per_order"] = "calls/order"
    units.update({f"kernel.{k}_s": "s" for k in KERNELS})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# provenance


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    import stehbein
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stehbein": stehbein.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# one operation and its output check


class Checker:
    """Checks each operation's outcome and tallies attempted and failed ones.

    An operation fails if it raises, exits with a code other than 0, writes
    a report that does not validate against REPORT_SCHEMA, has a non-finite
    residual on a check that was not skipped, or gives per-check verdicts
    other than the ones recorded for the workload.
    """

    def __init__(self, expected):
        from jsonschema import Draft202012Validator
        from stehbein.report import REPORT_SCHEMA
        self.expected = list(expected)
        self.validator = Draft202012Validator(REPORT_SCHEMA)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_report = None

    def check(self, rc, report_path: Path) -> list[str]:
        self.attempted += 1
        problems = self._problems(rc, report_path)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)
        return problems

    def _problems(self, rc, report_path: Path) -> list[str]:
        if rc != 0:
            return [f"exit code {rc!r}"]
        try:
            doc = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"]
        errors = [e.message for e in self.validator.iter_errors(doc)]
        if errors:
            return [f"report does not validate: {errors[0]}"]
        out = []
        for c in doc["checks"]:
            r = c["residual"]
            if c["status"] != "skipped" and not (isinstance(r, (int, float)) and math.isfinite(r)):
                out.append(f"non-finite residual {r!r} in {c['name']}")
        verdicts = [(c["name"], c["status"]) for c in doc["checks"]]
        if verdicts != self.expected:
            diff = [f"{a} != {b}" for a, b in zip(verdicts, self.expected) if a != b]
            out.append(f"verdicts differ from the record ({len(verdicts)} vs "
                       f"{len(self.expected)} checks): {diff[:3]}")
        if not out and self.first_report is None:
            self.first_report = doc
        return out


def run_op(argv) -> tuple[float, object]:
    """Time one in-process CLI call; returns (seconds, exit code or error text).

    ``stehbein.cli.main`` is looked up at call time so a tracer's wrapper is used.
    """
    import stehbein.cli
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = stehbein.cli.main(argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    except Exception:  # an operation that raises is counted, not fatal
        rc = "raised: " + traceback.format_exc(limit=3)
    return time.perf_counter() - start, rc


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has TAIL_BEYOND
    samples beyond it; needs MIN_OPS samples, so that it lies above the median."""
    xs = sorted(samples)
    if len(xs) < MIN_OPS:
        raise ValueError(f"{len(xs)} samples are too few for a tail; need {MIN_OPS}")
    k = len(xs) - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / len(xs)


# ---------------------------------------------------------------------------
# machine-speed gauge
#
# The shared host switches this VM's CPUs between a fast and a slow speed
# (~1.5x apart for interpreted code) many times a minute, in proportions
# that drift over minutes, with no other work in the VM.  So raw wall times
# of interpreter-bound code differ between runs by more than any useful
# bound.  The gauge is a fixed loop that does not use stehbein; timed right
# after an operation, on the same thread, it shows how fast the
# interpreter ran then.  A workload's speed exponent says how strongly its
# time follows the gauge (see workloads.py).


def python_gauge() -> float:
    """Wall time of a fixed pure-Python loop: the interpreter's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(times, gauges, exponent: float = 1.0) -> list[float]:
    """Each time at the reference speed: times (reference / its gauge) ** exponent."""
    return [t * (REFERENCE_GAUGE_S / g) ** exponent
            for t, g in zip(times, gauges, strict=True)]


# ---------------------------------------------------------------------------
# fresh-process probes


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_probe(args) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          env=probe_env(), capture_output=True, text=True, timeout=170)
    return time.perf_counter() - start, proc


# ---------------------------------------------------------------------------
# the two kinds of run


class Run:
    """One workload at one seed: its input, operation and checker."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        from workloads import WORKLOADS, expected_verdicts, write_input
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.out_dir = out_dir
        self.input, self.sha256 = write_input(name, seed, out_dir / "inputs")
        self.report = out_dir / "reports" / f"{name}-seed{seed}.json"
        self.report.parent.mkdir(parents=True, exist_ok=True)
        self.checker = Checker(expected_verdicts(name))
        self.provenance = provenance()
        self.run_problems: list[str] = []
        self.argv = ["verify", str(self.input), "--max-order", str(self.workload.max_order),
                     "--seed", str(seed), "--report", str(self.report)]

    def operate(self) -> float:
        """Run one checked operation; returns its wall time."""
        self.report.unlink(missing_ok=True)  # a stale report must not pass
        elapsed, rc = run_op(self.argv)
        self.checker.check(rc, self.report)
        return elapsed

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter that imports stehbein and loads
        the input, after a pause that lets this process's BLAS threads idle."""
        time.sleep(PROBE_PAUSE_S)
        elapsed, proc = run_probe(["setup", str(self.input)])
        if proc.returncode != 0:
            self.run_problems.append(f"setup probe exit {proc.returncode}: {proc.stderr[-500:]}")
        return elapsed

    def peak_rss_mib(self) -> float:
        rss_report = self.report.with_name(self.report.stem + "-rss.json")
        rss_report.unlink(missing_ok=True)
        _, proc = run_probe(["rss", str(self.input), str(self.workload.max_order),
                             str(self.seed), str(rss_report)])
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"rc": f"probe exit {proc.returncode}: {proc.stderr[-500:]}",
                      "maxrss_kib": float("nan")}
        self.checker.check(result["rc"], rss_report)
        return result["maxrss_kib"] / 1024

    def measure(self, seconds: float) -> tuple[dict, dict]:
        rss = self.peak_rss_mib()
        self.operate()  # warm-up
        # the set-up probes are spread evenly over the run, between operations
        times, gauges, setup = [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / seconds))
            while len(setup) < due:
                setup.append(self.setup_time())
            if elapsed >= seconds and len(times) >= MIN_OPS:
                break
            times.append(self.operate())
            gauges.append(python_gauge())
        exponent = self.workload.speed_exponent
        op_s = scale(times, gauges, exponent)
        t_val, t_pct = tail(op_s)
        # a probe runs in another process, so no single gauge time belongs
        # to it; the median of the run's gauges stands for its speed
        setup_p50 = statistics.median(setup)
        run_gauge = statistics.median(gauges)
        metrics = {
            "verify_p50_s": statistics.median(op_s),
            "verify_tail_s": t_val,
            "setup_s": scale([setup_p50], [run_gauge])[0],
            "peak_rss_mib": rss,
        }
        notes = {
            "verify_p50_s": f"median of {len(times)} operations, each scaled by the gauge "
                            f"after it to the power {exponent:g}; unscaled "
                            f"{statistics.median(times):.4g} s",
            "verify_tail_s": f"p{t_pct:.0f} of {len(times)} operations, {TAIL_BEYOND} beyond",
            "setup_s": f"median of {len(setup)} fresh interpreters spread over the run "
                       f"(start-up, import stehbein, load_input), scaled by the run's "
                       f"median gauge; unscaled {setup_p50:.4g} s",
            "peak_rss_mib": "one operation in a fresh process",
        }
        samples = {"verify_s": times, "gauge_s": gauges, "setup_s": setup}
        return metrics, {"notes": notes, "samples": samples,
                         "machine_speed": REFERENCE_GAUGE_S / run_gauge}

    def measure_layers(self, seconds: float) -> tuple[dict, dict]:
        from stehbein.calculus import FrameGeometry
        from stehbein.io import load_input
        from stehbein.report import GROUPS
        from tracer import Tracer, aggregate
        loaded = load_input(self.input)
        self.operate()  # warm-up
        # alternate, so that all three see the same drift of machine speed
        untraced, traced, sweeps = [], [], []
        tracer = Tracer()
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_SWEEPS or time.perf_counter() < deadline:
            untraced.append(self.operate())
            tracer.op = len(traced)
            with tracer:
                traced.append(self.operate())
            sweeps.append(self.time_groups(loaded, GROUPS))
        per_op = [aggregate(tracer.spans, op) for op in range(len(traced))]
        calls = [{k: v["calls"] for k, v in agg.items()} for agg in per_op]
        if any(c != calls[0] for c in calls):
            self.run_problems.append("traced call counts differ between operations")

        def span(name, field):
            values = [agg[name][field] if name in agg else 0 for agg in per_op]
            return statistics.median(values) if field == "self_s" else values[0]

        metrics = {}
        group_s = {g: [sweep[g] for sweep in sweeps] for g in GROUPS}
        check_s = {g: statistics.median(v) for g, v in group_s.items()}
        metrics.update({f"report.check_s.{g}": check_s[g] for g in GROUPS})
        for name, fields in SPAN_FIELDS.items():
            metrics.update({f"{name}.{f}": span(name, f) for f in fields})
        n = loaded.n if isinstance(loaded, FrameGeometry) else loaded[0].n
        k = self.workload.max_order
        metrics["connection.dn.calls_per_monomial"] = (
            span("connection.dn", "calls") / sum(n ** p for p in range(1, k + 1)))
        orders = len(per_op[0].get("involution.build_jn", {}).get("keys", ()))
        metrics["involution.build_jn.calls_per_order"] = (
            span("involution.build_jn", "calls") / orders if orders else 0.0)
        metrics.update({f"kernel.{name}_s": v for name, v in self.time_kernels(loaded).items()})
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        self.write_spans(tracer.spans)
        detail = {"samples": {"untraced_s": untraced, "traced_s": traced, "check_s": group_s},
                  "calls": calls[0], "check_s": check_s}
        return metrics, detail

    def time_groups(self, loaded, groups) -> dict:
        """Untraced wall time of run_verify restricted to each check group, once."""
        from stehbein.report import run_verify
        out = {}
        for group in groups:
            start = time.perf_counter()
            run_verify(loaded, checks={group}, max_order=self.workload.max_order,
                       seed=self.seed, source=str(self.input))
            out[group] = time.perf_counter() - start
        return out

    def time_kernels(self, loaded) -> dict:
        """Median seconds per call of each kernel on this input at its max order.

        apply_central_at and dn act on a degree-K basis monomial, so they
        need a geometry; on a braiding-only input they read 0.
        """
        import numpy as np
        from stehbein.braiding import make_braiding
        from stehbein.calculus import FrameGeometry
        from stehbein.connection import dn
        from stehbein.frametensor import apply_central_at, basis_field, word_tensor
        from stehbein.involution import build_jn, reverse_word
        from stehbein.report import resolve_connection
        k = self.workload.max_order
        if isinstance(loaded, FrameGeometry):
            braid = make_braiding(loaded.S)
            conn, _ = resolve_connection(loaded, braid)
            rng = np.random.default_rng(self.seed)
            basis = basis_field(loaded.n, loaded.N, tuple(rng.integers(loaded.n, size=k)))
        else:
            braid, conn, basis = loaded[0], None, None
        kernels = {
            "word_tensor": lambda: word_tensor(braid.S, k, reverse_word(k).letters),
            "build_jn": lambda: build_jn(braid, k),
        }
        if conn is not None:
            kernels["apply_central_at"] = lambda: apply_central_at(basis, braid.S, 1)
            kernels["dn"] = lambda: dn(conn, braid, basis)
        out = dict.fromkeys(KERNELS, 0.0)
        for name, fn in kernels.items():
            reps = []
            deadline = time.perf_counter() + KERNEL_BUDGET_S
            while len(reps) < KERNEL_MIN_REPS or time.perf_counter() < deadline:
                start = time.perf_counter()
                fn()
                reps.append(time.perf_counter() - start)
            out[name] = statistics.median(reps)
        return out

    def write_spans(self, spans) -> None:
        path = self.out_dir / f"{self.workload.name}-seed{self.seed}-spans.jsonl.gz"
        fields = ("op", "id", "parent", "name", "start", "end", "note")
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for s in spans:
                if s is not None:
                    fh.write(json.dumps(dict(zip(fields, s))) + "\n")

    def record(self, trace: bool, metrics: dict, units: dict, detail: dict) -> dict:
        doc = self.checker.first_report or {}
        return {
            "workload": self.workload.name,
            "why": self.workload.why,
            "trace": int(trace),
            "seed": self.seed,
            "max_order": self.workload.max_order,
            "input": self.input.name,
            "input_sha256": self.sha256,
            "provenance": self.provenance,
            "loop": "closed, 1 caller, 1 process",
            "correct": self.correct,
            "attempted": self.checker.attempted,
            "failed": self.checker.failed,
            "error_rate": self.checker.failed / max(self.checker.attempted, 1),
            "problems": self.checker.problems + self.run_problems,
            "summary": doc.get("summary"),
            "residuals": {c["name"]: c["residual"] for c in doc.get("checks", [])},
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            **detail,
        }

    @property
    def correct(self) -> bool:
        return self.checker.failed == 0 and not self.run_problems


def run_workload(name: str, args) -> dict:
    run = Run(name, args.seed, OUT)
    if args.trace:
        from stehbein.report import GROUPS
        units = per_layer_units(GROUPS)
        metrics, detail = run.measure_layers(args.seconds)
    else:
        units = END_TO_END
        metrics, detail = run.measure(args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics emitted differ from those declared: "
                           f"{sorted(set(metrics) ^ set(units))}")
    rec = run.record(args.trace, metrics, units, detail)
    path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1), encoding="utf-8")

    notes = detail.get("notes", {})
    print(f"workload {name} (max order {run.workload.max_order}, seed {args.seed}): "
          f"{rec['attempted']} operations checked, {rec['failed']} failed")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<44s} {value:14.6g} {units[key]}{note}")
    print(f"  {'error_rate':<44s} {rec['error_rate']:14.6g} fraction"
          f"  ({rec['failed']} failed of {rec['attempted']} attempted)")
    if "machine_speed" in rec:
        print(f"  {'machine speed (not a metric)':<44s} {rec['machine_speed']:14.6g} x reference"
              f"  (reference over the median of {len(rec['samples']['gauge_s'])} gauge times)")
    if rec["summary"]:
        s = rec["summary"]
        print(f"  verdict {s['pass']} pass / {s['fail']} fail / {s['skipped']} skipped")
    for problem in rec["problems"][:5]:
        print(f"  problem: {problem}")
    print(f"  detail: {path.relative_to(ROOT)}")
    return rec


# ---------------------------------------------------------------------------
# residual comparison


def compare(path_a: str, path_b: str) -> int:
    """Print the largest |residual difference| between two detail records;
    exit 1 if it exceeds RESIDUAL_TOL or a check appears in only one."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    print(f"A: {a['workload']} seed {a['seed']} input {a['input_sha256'][:12]}")
    print(f"B: {b['workload']} seed {b['seed']} input {b['input_sha256'][:12]}")
    ra, rb = a["residuals"], b["residuals"]
    mismatched = sorted(set(ra) ^ set(rb))
    mismatched += [k for k in ra if k in rb and (ra[k] is None) != (rb[k] is None)]
    deltas = {k: abs(ra[k] - rb[k]) for k in ra
              if k in rb and ra[k] is not None and rb[k] is not None}
    worst = max(deltas, key=deltas.get, default=None)
    if worst is None:
        print("no residual present in both records")
    else:
        print(f"max |delta residual| = {deltas[worst]:.3e} at {worst} "
              f"({len(deltas)} checks compared, tolerance {RESIDUAL_TOL:g})")
    if mismatched:
        print(f"checks evaluated in only one record: {mismatched}")
    ok = not mismatched and (worst is None or deltas[worst] <= RESIDUAL_TOL)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="su2-o4, su2-wide, braid-o5 or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0,
                    help="measurement time of one run, per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare the residuals of two detail records and exit")
    args = ap.parse_args(argv)
    if args.compare is None and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    require_source()
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.exit(f"error: unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    records = [run_workload(name, args) for name in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
