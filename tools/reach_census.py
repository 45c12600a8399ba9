#!/usr/bin/env python3
"""Reachability census of ``src/repro``: which functions no entry point runs.

    python tools/reach_census.py     # run every entry point, rewrite the TSV

Every entry point in :data:`ENTRY_POINTS` (the CI commands, the examples,
the artefact commands, the paper benches and the benchmark workloads)
runs as its own ``python`` process, with a call recorder installed at
interpreter start by a generated ``sitecustomize`` on ``PYTHONPATH``, so
the subprocesses an entry point spawns are recorded too.  Each entry
point's exit status is printed, not enforced: gates that time
themselves (``perf compare``, the telemetry-overhead bench) can fail
under the recorder's slowdown and still count as run.

The recorder sees call events only: a global ``sys.settrace`` /
``threading.settrace`` hook that returns ``None``, so no line is ever
traced.  Rank threads get the hook through ``threading.settrace``;
forked ranks inherit it and leave through ``os._exit``, which skips
``atexit``, so the recorder wraps ``os._exit`` to dump first.

Each ``src/repro`` function that no entry point reached becomes one row
of ``tools/reach_census.tsv`` (file, qualname, lines, disposition).  A
function whose body is only a docstring, ``pass``, ``...`` or ``raise
NotImplementedError`` is an interface, not behaviour, and is not listed.
The disposition comes from :data:`KEEP`, ``(pattern, reason)`` pairs
matched in order against ``file::qualname``; the reason is one of
:data:`REASONS`.  A row no pattern matches is written ``undecided`` and
the run exits 1: such a function is deleted, or given a reason here.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import fnmatch
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")
TSV = os.path.join(REPO, "tools", "reach_census.tsv")
#: Seconds one entry point may run (under the recorder) before it is killed.
TIMEOUT = 900.0

#: Why an unreached function stays.
#:
#: * ``reproduction`` — a paper figure, table or ablation, or an
#:   extension DESIGN names, that the listed commands do not happen to
#:   drive at this size or parameterisation;
#: * ``fault-path`` — error, abort and recovery handling, and the
#:   safety code the simplicity guide never targets: checks, and the
#:   references and harness the tests run against;
#: * ``roadmap-N`` — the seed of open ROADMAP item N;
#: * ``entry-point`` — reached only by a command that cannot run
#:   unattended (a live dashboard, a long sweep).
REASONS = ("reproduction", "fault-path", "entry-point") + tuple(
    f"roadmap-{n}" for n in range(1, 10)
)


@dataclass(frozen=True)
class Entry:
    """One command: ``argv`` after ``python``.  ``{work}`` expands to the
    census work directory; an argument ``glob:PATTERN`` to the first
    match of PATTERN under it.  With ``alongside``, that command starts
    first and ``argv`` is retried until it succeeds or the other exits
    (a monitor needs a live world to attach to)."""

    name: str
    argv: tuple[str, ...]
    alongside: tuple[str, ...] = ()


_SUITE = ("fft64-p4-thread-exact", "fft64-p4-thread-fp32", "fft128-p4-proc-trim",
          "fft64-p4-proc-pairwise", "fft32-p4-thread-fp32")
_EXAMPLES = ("codec_comparison", "iterative_refinement", "md_electrostatics",
             "pipeline_demo", "poisson_solver", "quickstart", "scaling_study",
             "turbulence_spectrum")
_BENCHES = ("bench_fig2", "bench_fig3", "bench_fig4", "bench_table1", "bench_table2",
            "bench_ablation_codecs", "bench_ablation_crossover", "bench_ablation_permutation",
            "bench_ablation_pipeline", "bench_des_validation", "bench_weak_scaling")

ENTRY_POINTS: tuple[Entry, ...] = (
    # CI (everything but the tier-1 pytest run itself)
    Entry("conformance", ("-m", "repro", "conformance", "--cases", "50", "--shrink",
                          "--out", "{work}/conformance-failures.json")),
    Entry("conformance-runtime", ("-m", "repro", "conformance", "--properties", "runtime",
                                  "--cases", "12", "--shrink")),
    Entry("conformance-replay", ("-m", "repro", "conformance", "--seed", "0", "--replay", "7")),
    Entry("resilience-thread", ("-m", "repro", "resilience", "--kind", "both", "--ranks", "4",
                                "--n", "16", "--runtime", "thread", "--out", "{work}/res-thread")),
    Entry("resilience-proc", ("-m", "repro", "resilience", "--kind", "both", "--ranks", "4",
                              "--n", "16", "--runtime", "proc", "--out", "{work}/res-proc")),
    Entry("trace-fft", ("-m", "repro", "trace", "fft", "--ranks", "8", "--n", "16",
                        "--out", "{work}/bench-out", "--bench-name", "pr2")),
    Entry("trace-fft-proc", ("-m", "repro", "trace", "fft", "--ranks", "4", "--n", "8",
                             "--runtime", "proc", "--out", "{work}/proc-bench-out")),
    Entry("trace-alltoall", ("-m", "repro", "trace", "alltoall", "--ranks", "4", "--n", "8",
                             "--out", "{work}/a2a-out")),
    Entry("tune", ("-m", "repro", "tune", "--ranks", "4", "--n", "8", "--machine", "laptop",
                   "--repeats", "2", "--iters", "1", "--name", "smoke", "--out", "{work}/tune-out")),
    Entry("perf-compare", ("-m", "repro", "perf", "compare", "--baseline",
                           os.path.join(REPO, "BENCH_pr4.json"), "--name", "ci",
                           "--out", "{work}/perf-out", "--rel-tol", "1.0")),
    Entry("runtime-compare", (os.path.join(REPO, "benchmarks", "bench_runtime_compare.py"),
                              "{work}/BENCH_pr8.json")),
    Entry("blackbox-drill", ("-m", "repro", "blackbox", "--drill", "--ranks", "4", "--n", "8",
                             "--victim", "1", "--out", "{work}/telemetry-out")),
    Entry("blackbox-print", ("-m", "repro", "blackbox", "glob:telemetry-out/BLACKBOX_*.json")),
    Entry("telemetry-overhead", (os.path.join(REPO, "benchmarks", "bench_telemetry_overhead.py"),
                                 "{work}/BENCH_telemetry_overhead.json")),
    Entry("monitor-once", ("-m", "repro", "monitor", "--once"),
          alongside=(os.path.join(REPO, "benchmarks", "suite", "run.py"), "--workload",
                     "fft128-p4-proc-trim", "--seed", "0", "--seconds", "4", "--trace", "0")),
    Entry("monitor-list", ("-m", "repro", "monitor", "--list")),
    Entry("suite-smoke", ("-m", "pytest", "-q", "-p", "no:cacheprovider",
                          os.path.join(REPO, "benchmarks", "suite"))),
    *(
        Entry(f"suite-{w}", (os.path.join(REPO, "benchmarks", "suite", "run.py"), "--workload", w,
                             "--seed", "0", "--seconds", "2", "--trace", "1"))
        for w in _SUITE
    ),
    # the examples and the artefact commands
    *(Entry(f"example-{e}", (os.path.join(REPO, "examples", f"{e}.py"),)) for e in _EXAMPLES),
    *(Entry(f"artefact-{a}", ("-m", "repro", a))
      for a in ("table1", "fig2", "fig3", "fig4", "table2", "report")),
    # the paper benches
    Entry("paper-benches", ("-m", "pytest", "-q", "-p", "no:cacheprovider",
                            *(os.path.join(REPO, "benchmarks", f"{b}.py") for b in _BENCHES))),
)


def _each(file: str, names: str, reason: str) -> tuple[tuple[str, str], ...]:
    return tuple((f"src/repro/{file}::{name}", reason) for name in names.split())


#: Dispositions, matched in order against ``file::qualname`` (file
#: relative to the repository root).  A module-wide pattern stands only
#: for a module ROADMAP names as an item's seed; everything else is
#: listed by name, so a newly unreached function is never kept unseen.
#:
#: Two rules decide the borderline cases the same way everywhere:
#:
#: * a cosmetic ``__repr__`` / ``__str__`` nothing prints is deleted; one
#:   stays only where a test pins its text as a report format;
#: * a wrapper only tests call is deleted and they call what it wraps;
#:   one stays only when it carries a guarantee of its own (cleanup when
#:   the body raises, a probe that consumes nothing) or README documents it.
KEEP: tuple[tuple[str, str], ...] = (
    # -- roadmap-N: module seeds of open items --------------------------------------------
    # Item 3 (a): the flow-level simulator a rate-limited link is checked against.
    ("src/repro/netsim/events.py::*", "roadmap-3"),
    # Item 3 (c): the autotuner and its profile lookup, on trial.
    ("src/repro/tuning/autotune.py::*", "roadmap-3"),
    ("src/repro/tuning/profile.py::*", "roadmap-3"),
    # Item 9 (a): the buffer pool and its counters, to be retired whole.
    ("src/repro/tuning/pool.py::*", "roadmap-9"),
    *_each("telemetry/events.py", "_trace_pool", "roadmap-9"),
    # Item 1 (e): the one-shot helpers the frozen suite's staged round
    # imports, deleted with staged.py.
    *_each("collectives/osc.py", "osc_alltoallv", "roadmap-1"),
    *_each("collectives/pairwise.py", "pairwise_alltoallv", "roadmap-1"),
    # -- reproduction: the paper and the extensions DESIGN names ---------------------------
    # Section III: the naive DFT's round-off bound the FFT's is quoted
    # against, and the truncation argument (linear over the compressions)
    # the one error budget's quadrature split refines.
    *_each("accuracy/bounds.py", "dft_roundoff_bound truncation_error_model", "reproduction"),
    # Section V-B's size model: the raw FP64 baseline's fixed rate, and a
    # variable-rate codec's none (a receiver sizes for the worst case).
    *_each("compression/base.py", "Codec.rate IdentityCodec.rate", "reproduction"),
    # Section III: e_a = e_d + e_r, the decomposition behind tolerance balancing.
    *_each("accuracy/analysis.py", "ErrorDecomposition.total_bound "
           "ErrorDecomposition.balanced ErrorDecomposition.suggested_e_tol", "reproduction"),
    # Table I: the format zoo's columns and the cast through a format.
    *_each("precision/formats.py", "FloatFormat.machine_epsilon "
           "FloatFormat.compression_rate_from FloatFormat.describe known_formats", "reproduction"),
    *_each("precision/rounding.py", "cast_via_format roundtrip_error", "reproduction"),
    # The codec ablation's one-line row; its test pins the text.
    *_each("compression/metrics.py", "CompressionReport.__str__", "reproduction"),
    # DESIGN §3: the convolution app, the r2c and 2-D transforms.
    *_each("apps/convolution.py", "DistributedConvolution.__init__ "
           "DistributedConvolution.for_tolerance DistributedConvolution._pad "
           "DistributedConvolution.convolve", "reproduction"),
    *_each("fft/plan2d.py", "Fft2d.__init__ Fft2d.scatter Fft2d.gather Fft2d._run_virtual",
           "reproduction"),
    *_each("fft/real.py", "Rfft3d.__init__ Rfft3d.forward "
           "Rfft3d.communication_savings_vs_complex", "reproduction"),
    # Section V-B: the GPU stream model's queue.
    *_each("gpudev/stream.py", "Stream.pending Stream.history", "reproduction"),
    # Algorithm 2 (iterative refinement) and Section I's Poisson solve.
    *_each("solvers/ir.py", "RefinementResult.converged", "reproduction"),
    *_each("solvers/spectral.py", "SpectralPoissonSolver.residual", "reproduction"),
    # The phase-breakdown traces and Section V's node-aware rank orders.
    *_each("netsim/tools.py", "fft_phase_breakdown format_phase_breakdown standard_scenario",
           "reproduction"),
    *_each("machine/topology.py", "Topology.local_index node_aware_permutation "
           "naive_ring_permutation ring_schedule", "reproduction"),
    # DESIGN §15.3: a bound plan's lifetime, released collectively.
    *_each("fft/plan.py", "Fft3d.release _Binding.free", "reproduction"),
    # -- fault-path: error, abort and recovery handling, and checks ------------------------
    # The FFT's exact identities and the paper's metric: what results are checked against.
    *_each("accuracy/invariants.py", "parseval_defect linearity_defect shift_theorem_defect "
           "hermitian_defect", "fault-path"),
    *_each("accuracy/metrics.py", "rel_error", "fault-path"),
    # Conformance failures: the planted-defect hooks, shrinking a failing
    # case, and the failure record and its replay.
    *_each("conformance/hooks.py", "install_mutation clear_mutations active_mutations mutation",
           "fault-path"),
    *_each("conformance/properties.py", "Property.shrink _shrunk_matrix AlltoallvProperty.shrink "
           "BruckProperty.shrink CodecProperty.shrink _shrink_fft_geometry FftProperty.shrink "
           "ReshapeProperty.shrink TraceProperty.shrink FaultsProperty.shrink "
           "RuntimeProperty.shrink", "fault-path"),
    *_each("conformance/runner.py", "CaseOutcome.minimal CaseOutcome.to_dict "
           "CaseOutcome.replay_command ConformanceReport.to_json", "fault-path"),
    *_each("conformance/scenario.py", "Scenario.with_params Scenario.from_json Scenario.describe",
           "fault-path"),
    *_each("conformance/shrink.py", "shrink_failure", "fault-path"),
    # Fault plans, resilience reports and their readers, retry schedules.
    *_each("errors.py", "StallError.__init__", "fault-path"),
    *_each("faults/plan.py", "FaultPlan.__bool__ FaultPlan.kinds", "fault-path"),
    *_each("faults/report.py", "ResilienceReport.of_kind ResilienceReport.integrity_failures "
           "ResilienceReport.recovered ResilienceReport.merge ResilienceReport.summary",
           "fault-path"),
    *_each("faults/retry.py", "RetryPolicy.schedule RetryPolicy.disabled", "fault-path"),
    # Recovery: checkpoints, agreement, the watchdog's verdicts, survivor
    # topologies, revoke / declare-failed / abort, stall diagnostics.
    *_each("resilience/__init__.py", "__getattr__", "fault-path"),  # lazy: breaks an import cycle
    *_each("resilience/abft.py", "AbftChecksums.to_json", "fault-path"),
    *_each("resilience/agreement.py", "ranks_bitmap", "fault-path"),
    *_each("resilience/checkpoint.py", "CheckpointStore.close", "fault-path"),
    *_each("resilience/monitor.py", "ControlState.blocked ControlState.cur_gen Watchdog._stuck "
           "Watchdog.classify", "fault-path"),
    *_each("machine/topology.py", "ShrunkTopology.__init__ ShrunkTopology.nnodes "
           "ShrunkTopology.ranks_per_node ShrunkTopology.node_of ShrunkTopology.local_index "
           "ShrunkTopology.ranks_on_node ShrunkTopology.same_node", "fault-path"),
    *_each("runtime/base.py", "World.revoke World.declare_failed World._rank_failure_error "
           "Comm._explain_stall Comm.revoke Comm.abort", "fault-path"),
    *_each("runtime/shm.py", "any_to_describe", "fault-path"),
    *_each("runtime/proc.py", "ProcessWorld._kill", "fault-path"),
    # Black boxes, the flight ring's read-back, resilience trace events.
    *_each("telemetry/blackbox.py", "arm_signal_dump.<locals>.handler", "fault-path"),
    *_each("trace/core.py", "Tracer.instant record_report", "fault-path"),
    # Checks on what arrives: frame length, the restricted unpickler, the
    # lossy codecs' inf/NaN handling, measured compression, clean stats.
    *_each("collectives/wire.py", "_RestrictedUnpickler.find_class frame_length", "fault-path"),
    *_each("collectives/base.py", "ExchangeStats.clean", "fault-path"),
    *_each("compression/base.py", "Codec.compress_measured", "fault-path"),
    *_each("compression/mantissa.py", "MantissaTrimCodec._keep_specials", "fault-path"),
    # A live series written by name is a misuse; it says so.
    *_each("telemetry/metrics.py", "_LiveSeries._read_only", "fault-path"),
    # Kept test-facing API, each with its own guarantee: ``with
    # ProcessWorld(...)`` unlinks the shm segments when the body raises;
    # ``Request.test`` is MPI_Test, a probe that consumes nothing (the
    # stranded-message check); ``MetricsRegistry.clear`` resets the global
    # registry between cases; ``run_spmd`` is README's fault-injection
    # recipe (``run_spmd(4, kernel, faults=plan)``); ``Segments.names``
    # is the leak check of a world's namespace; ``run_drill`` is one drill
    # as a function (the CLI's ``_drill`` without its world);
    # ``last_blackbox`` is the process's most recent dump, whichever
    # world made it.
    *_each("runtime/proc.py", "ProcessWorld.__enter__ ProcessWorld.__exit__", "fault-path"),
    *_each("runtime/base.py", "Request.test Comm._probe", "fault-path"),
    *_each("runtime/shm.py", "Segments.names ShmSegments.names", "fault-path"),
    *_each("runtime/thread_rt.py", "run_spmd", "fault-path"),
    *_each("resilience/cli.py", "run_drill", "fault-path"),
    *_each("telemetry/blackbox.py", "last_blackbox", "fault-path"),
    *_each("telemetry/metrics.py", "MetricsRegistry.clear", "fault-path"),
)


# -- the recorder ------------------------------------------------------------------------


class Recorder:
    """Collect the code objects that start running, and dump their
    ``(file, first line)`` under ``out_dir`` at exit — ``atexit`` for a
    normal exit, a wrapped ``os._exit`` for a forked child."""

    def __init__(self, out_dir: str, prefix: str = PACKAGE) -> None:
        self.out_dir = out_dir
        self.prefix = prefix
        self.seen: set = set()
        self._saved = None

    def _hook(self, frame, event, arg):
        if event == "call":
            self.seen.add(frame.f_code)
        return None

    def install(self) -> "Recorder":
        real_exit = os._exit

        def _exit(code):
            self.dump()
            real_exit(code)

        self._saved = (sys.gettrace(), threading.gettrace(), real_exit)
        os._exit = _exit
        atexit.register(self.dump)
        threading.settrace(self._hook)
        sys.settrace(self._hook)
        return self

    def uninstall(self) -> None:
        """Stop recording, restore the previous hooks, dump once."""
        trace, thread_trace, real_exit = self._saved
        sys.settrace(trace)
        threading.settrace(thread_trace)
        os._exit = real_exit
        atexit.unregister(self.dump)
        self.dump()

    def dump(self) -> None:
        rows = {
            (path, code.co_firstlineno)
            for code in list(self.seen)
            if (path := os.path.abspath(code.co_filename)).startswith(self.prefix)
        }
        os.makedirs(self.out_dir, exist_ok=True)
        name = os.path.join(self.out_dir, f"{os.getpid()}-{time.monotonic_ns()}.tsv")
        with open(name, "w", encoding="utf-8") as fh:
            fh.writelines(f"{path}\t{line}\n" for path, line in sorted(rows))


def load_dumps(out_dir: str) -> set[tuple[str, int]]:
    """Every ``(absolute file, first line)`` any dump under ``out_dir`` holds."""
    reached: set[tuple[str, int]] = set()
    for name in glob.glob(os.path.join(out_dir, "*.tsv")):
        with open(name, encoding="utf-8") as fh:
            for row in fh:
                path, _, line = row.rstrip("\n").partition("\t")
                reached.add((path, int(line)))
    return reached


_SITECUSTOMIZE = """\
import os, sys
sys.path.insert(0, {tools!r})
import reach_census
reach_census.Recorder(os.environ["REACH_CENSUS_DUMPS"]).install()
"""


# -- the static side ---------------------------------------------------------------------


@dataclass(frozen=True)
class Function:
    file: str  # relative to the repository root
    qualname: str
    first_line: int  # co_firstlineno: the first decorator's line, if any
    lines: int


def _is_interface(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def functions(package: str = PACKAGE) -> list[Function]:
    """Every function and method defined under ``package``, interfaces excluded."""
    out: list[Function] = []
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = ".".join((*scope, child.name))
                    if not _is_interface(child):
                        first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        out.append(Function(rel, qual, first, child.end_lineno - child.lineno + 1))
                    visit(child, (*scope, child.name, "<locals>"))
                elif isinstance(child, ast.ClassDef):
                    visit(child, (*scope, child.name))
                else:
                    visit(child, scope)

        visit(tree, ())
    return out


def disposition(fn: Function) -> str:
    key = f"{fn.file}::{fn.qualname}"
    for pattern, reason in KEEP:
        if fnmatch.fnmatchcase(key, pattern):
            return f"keep: {reason}"
    return "undecided"


# -- the driver --------------------------------------------------------------------------


def _expand(argv: tuple[str, ...], work: str) -> list[str]:
    out = []
    for arg in argv:
        arg = arg.replace("{work}", work)
        if arg.startswith("glob:"):
            matches = sorted(glob.glob(os.path.join(work, arg[5:])))
            arg = matches[0] if matches else arg[5:]
        out.append(arg)
    return out


def run_entry(entry: Entry, work: str, env: dict[str, str]) -> int:
    log = open(os.path.join(work, f"{entry.name}.log"), "w", encoding="utf-8")
    cmd = [sys.executable, *_expand(entry.argv, work)]
    with log:
        if not entry.alongside:
            try:
                return subprocess.run(cmd, cwd=work, env=env, stdout=log, stderr=log,
                                      timeout=TIMEOUT).returncode
            except subprocess.TimeoutExpired:
                return -1
        other = subprocess.Popen([sys.executable, *_expand(entry.alongside, work)], cwd=work,
                                 env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        rc = 1
        try:
            while rc != 0 and other.poll() is None:
                rc = subprocess.run(cmd, cwd=work, env=env, stdout=log, stderr=log,
                                    timeout=TIMEOUT).returncode
                time.sleep(0.1)
        finally:
            other.wait(timeout=TIMEOUT)
        return rc


def census(dumps: str, work: str) -> None:
    site = os.path.join(work, "site")
    os.makedirs(site, exist_ok=True)
    with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(_SITECUSTOMIZE.format(tools=os.path.dirname(os.path.abspath(__file__))))
    tmp = os.path.join(work, "tmp")  # private runfile directory for the monitor
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([site, SRC]), REACH_CENSUS_DUMPS=dumps, TMPDIR=tmp,
               PYTHONDONTWRITEBYTECODE="1")
    for entry in ENTRY_POINTS:
        t0 = time.monotonic()
        rc = run_entry(entry, work, env)
        print(f"{entry.name:<36} rc={rc:<3} {time.monotonic() - t0:7.1f} s", flush=True)


def write_tsv(reached: set[tuple[str, int]], path: str = TSV) -> dict[str, int]:
    """Write one row per unreached function; return the count per disposition."""
    counts: dict[str, int] = {}
    rows = []
    for fn in functions():
        if (os.path.join(REPO, fn.file), fn.first_line) in reached:
            continue
        disp = disposition(fn)
        counts[disp] = counts.get(disp, 0) + 1
        rows.append(f"{fn.file}\t{fn.qualname}\t{fn.lines}\t{disp}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("file\tqualname\tlines\tdisposition\n")
        fh.writelines(rows)
    return counts


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    work = tempfile.mkdtemp(prefix="reach-census-")
    dumps = os.path.join(work, "dumps")
    try:
        os.makedirs(dumps)
        census(dumps, work)
        reached = load_dumps(dumps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total = len(functions())
    counts = write_tsv(reached)
    unreached = sum(counts.values())
    print(f"{total - unreached} of {total} functions reached; {unreached} rows in {TSV}")
    for disp, n in sorted(counts.items()):
        print(f"  {n:4d}  {disp}")
    return 1 if "undecided" in counts else 0


if __name__ == "__main__":
    sys.exit(main())
