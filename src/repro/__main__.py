"""Command-line experiment runner: ``python -m repro <command>``.

Regenerates the paper's tables and figures from the terminal without
pytest:

    python -m repro table1
    python -m repro fig3
    python -m repro all --full      # paper-scale parameterisations

drives the observability layer (see DESIGN.md §7):

    python -m repro trace fft --ranks 8 --n 16 --out out/
    python -m repro trace alltoall --ranks 4   # + critical path, overlap, bandwidth

the conformance gate (see DESIGN.md §8):

    python -m repro conformance --seed 7 --cases 200 --shrink
    python -m repro conformance --seed 7 --replay 13

the perf regression gate (see DESIGN.md §9):

    python -m repro perf record --name pr4
    python -m repro perf compare --baseline BENCH_pr4.json

the exchange autotuner (see DESIGN.md §11):

    python -m repro tune --ranks 4 --n 16 --machine laptop

the rank-failure recovery drills (see DESIGN.md §10):

    python -m repro resilience                   # kill + hang drills
    python -m repro resilience --kind hang --ranks 4 --n 16 --out out/

and the telemetry layer (see DESIGN.md §13):

    python -m repro monitor --list               # monitorable proc-worlds
    python -m repro monitor --uid <uid>          # live per-rank dashboard
    python -m repro blackbox dump.json           # pretty-print a crash dump
    python -m repro blackbox --drill             # SIGKILL drill + post-mortem

Every artefact-producing subcommand shares the same ``--out`` /
``--seed`` flags (one helper, not three copies).
"""

from __future__ import annotations

import argparse
import sys

_EXPERIMENTS = ("table1", "fig2", "fig3", "fig4", "table2", "report")


def _run_one(name: str, full: bool) -> str:
    from repro.experiments import (
        format_fig2,
        format_fig3,
        format_fig4,
        format_table1_experiment,
        format_table2,
        run_fig2,
        run_fig3,
        run_fig4,
        run_table2,
    )

    if name == "report":
        from repro.experiments.report import check_landmarks, format_report

        n = 64 if full else 16
        return "=== paper-vs-measured landmark report ===\n" + format_report(
            check_landmarks(table2_n=n)
        )
    if name == "table1":
        return "=== Table I ===\n" + format_table1_experiment()
    if name == "fig2":
        shape = (32, 32, 32) if full else (16, 16, 16)
        bits = None if full else [52, 44, 36, 28, 23]
        return "=== Fig. 2 ===\n" + format_fig2(
            run_fig2(shape=shape, nranks=8, mantissa_bits=bits)
        )
    if name == "fig3":
        return "=== Fig. 3 ===\n" + format_fig3(run_fig3())
    if name == "fig4":
        return "=== Fig. 4 ===\n" + format_fig4(run_fig4())
    if name == "table2":
        if full:
            rows = run_table2(n=64, gpu_counts=[12, 24, 48, 96, 192, 384, 768, 1536])
        else:
            rows = run_table2(n=32, gpu_counts=[12, 24, 48])
        return "=== Table II ===\n" + format_table2(rows)
    raise SystemExit(f"unknown experiment {name!r}")


def _add_common_flags(
    parser: argparse.ArgumentParser,
    *,
    out_default: str | None = ".",
    out_help: str = "artefact output directory",
) -> None:
    """The shared ``--out`` / ``--seed`` pair every subcommand gets.

    ``trace``/``perf`` treat ``--out`` as a directory for their
    artefacts; ``conformance`` as the failure-replay file.  ``--seed``
    always pins the run's randomness.
    """
    parser.add_argument("--out", default=out_default, help=out_help)
    parser.add_argument("--seed", type=int, default=0, help="run seed (pins all randomness)")


def _add_runtime_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runtime",
        choices=("thread", "proc"),
        default="thread",
        help="execution substrate: thread ranks (default) or one OS process per rank",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's artefacts, trace a run, or gate perf/conformance.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name in (*_EXPERIMENTS, "all"):
        p = sub.add_parser(name, help=f"regenerate {name}" if name != "all" else "all artefacts")
        p.add_argument("--full", action="store_true", help="paper-scale parameterisations (slower)")

    trace_p = sub.add_parser("trace", help="run a traced case; emit Chrome trace + BENCH json")
    trace_p.add_argument("case", nargs="?", default="fft", help="fft (default) or alltoall")
    trace_p.add_argument(
        "--ranks", type=int, default=8, help="SPMD ranks (even, at most 16: the laptop topology)"
    )
    trace_p.add_argument("--n", type=int, default=16, help="grid edge (n^3 cells)")
    trace_p.add_argument("--e-tol", type=float, default=1e-6, help="error tolerance")
    trace_p.add_argument(
        "--bench-name", default=None, help="emit BENCH_<name>.json (default: case name)"
    )
    _add_common_flags(trace_p)
    _add_runtime_flag(trace_p)

    conf_p = sub.add_parser("conformance", help="property-based differential conformance gate")
    conf_p.add_argument("--cases", type=int, default=35, help="number of generated cases")
    conf_p.add_argument(
        "--properties",
        default=None,
        help="comma-separated property subset (default: all families)",
    )
    conf_p.add_argument("--shrink", action="store_true", help="minimise failing scenarios")
    conf_p.add_argument(
        "--replay", type=int, default=None, metavar="INDEX", help="re-run one case by index"
    )
    conf_p.add_argument(
        "--stop-on-failure", action="store_true", help="stop at the first failing case"
    )
    _add_common_flags(
        conf_p, out_default=None, out_help="write a failure-replay JSON file on failure"
    )

    perf_p = sub.add_parser("perf", help="perf regression gate")
    perf_p.add_argument("action", choices=("record", "compare"))
    perf_p.add_argument("--name", default="perf", help="BENCH_<name>.json artefact name")
    perf_p.add_argument(
        "--baseline", default=None, metavar="FILE", help="baseline BENCH json (compare)"
    )
    perf_p.add_argument("--repeats", type=int, default=5, help="median-of-k repeats")
    perf_p.add_argument(
        "--rel-tol", type=float, default=0.5, help="calibrated slowdown tolerated before gating"
    )
    perf_p.add_argument(
        "--mad-mult", type=float, default=5.0, help="noise guard: slowdown must clear k MADs"
    )
    perf_p.add_argument(
        "--slowdown",
        type=float,
        default=1.0,
        help="artificially slow each repeat by this factor (gate self-test)",
    )
    _add_common_flags(perf_p)
    _add_runtime_flag(perf_p)

    tune_p = sub.add_parser(
        "tune", help="measured exchange sweep; writes a TUNING_<name>.json profile"
    )
    tune_p.add_argument("--ranks", type=int, default=4, help="SPMD thread ranks")
    tune_p.add_argument("--n", type=int, default=16, help="grid edge (n^3 cells)")
    tune_p.add_argument(
        "--machine", choices=("laptop", "summit"), default="laptop", help="machine preset"
    )
    tune_p.add_argument("--repeats", type=int, default=3, help="median-of-k repeats per candidate")
    tune_p.add_argument("--iters", type=int, default=2, help="timed reshapes per repeat")
    tune_p.add_argument(
        "--e-tol", type=float, default=None, help="restrict lossy candidates to this tolerance"
    )
    tune_p.add_argument("--name", default="tune", help="TUNING_<name>.json artefact name")
    tune_p.add_argument("--timeout", type=float, default=120.0, help="per-measurement world deadline")
    _add_common_flags(tune_p)
    _add_runtime_flag(tune_p)

    res_p = sub.add_parser(
        "resilience", help="rank-failure drill: kill/hang a rank mid-FFT and recover"
    )
    res_p.add_argument(
        "--kind",
        choices=("kill", "hang", "both"),
        default="both",
        help="process fault to inject (default: both drills)",
    )
    res_p.add_argument("--ranks", type=int, default=4, help="SPMD thread ranks")
    res_p.add_argument("--n", type=int, default=16, help="grid edge (n^3 cells)")
    res_p.add_argument("--e-tol", type=float, default=1e-6, help="error tolerance")
    res_p.add_argument("--victim", type=int, default=1, help="rank to kill/hang")
    res_p.add_argument(
        "--after", type=int, default=12, help="victim transport ops before the fault fires"
    )
    res_p.add_argument(
        "--timeout", type=float, default=15.0, help="world deadline (seconds)"
    )
    res_p.add_argument(
        "--suspect-after",
        type=float,
        default=0.5,
        help="beacon silence (seconds) before a rank is suspected dead",
    )
    _add_common_flags(res_p)
    _add_runtime_flag(res_p)

    mon_p = sub.add_parser(
        "monitor", help="live per-rank dashboard of a running proc-world (shared-memory tail)"
    )
    mon_p.add_argument(
        "--uid", default=None, help="world uid to attach to (default: newest runfile)"
    )
    mon_p.add_argument(
        "--interval", type=float, default=0.5, help="refresh period in seconds"
    )
    mon_p.add_argument("--once", action="store_true", help="render one frame and exit")
    mon_p.add_argument(
        "--duration", type=float, default=None, help="stop after this many seconds"
    )
    mon_p.add_argument(
        "--list", action="store_true", dest="list_only", help="list monitorable runs and exit"
    )

    bb_p = sub.add_parser(
        "blackbox", help="pretty-print a flight-recorder crash dump, or run the kill drill"
    )
    bb_p.add_argument("path", nargs="?", default=None, help="dump file to pretty-print")
    bb_p.add_argument(
        "--drill",
        action="store_true",
        help="SIGKILL a rank mid-FFT in a proc world and recover its ring post-mortem",
    )
    bb_p.add_argument("--ranks", type=int, default=4, help="drill: proc-world ranks")
    bb_p.add_argument("--n", type=int, default=8, help="drill: grid edge (n^3 cells)")
    bb_p.add_argument("--victim", type=int, default=1, help="drill: rank to SIGKILL")
    bb_p.add_argument(
        "--tail", type=int, default=12, help="events shown per rank when pretty-printing"
    )
    _add_common_flags(bb_p, out_help="drill artefact output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "conformance":
        from repro.conformance.cli import run_conformance_cli

        return run_conformance_cli(
            seed=args.seed,
            cases=args.cases,
            properties=args.properties,
            shrink=args.shrink,
            replay=args.replay,
            stop_on_failure=args.stop_on_failure,
            out=args.out,
        )

    if args.command == "trace":
        from repro.trace.cli import run_trace_case

        print(
            run_trace_case(
                args.case,
                nranks=args.ranks,
                n=args.n,
                e_tol=args.e_tol,
                out_dir=args.out,
                bench_name=args.bench_name,
                seed=args.seed,
                runtime=args.runtime,
            )
        )
        return 0

    if args.command == "perf":
        from repro.perf.cli import run_perf_cli

        return run_perf_cli(
            args.action,
            out=args.out,
            name=args.name,
            baseline=args.baseline,
            repeats=args.repeats,
            seed=args.seed,
            rel_tol=args.rel_tol,
            mad_mult=args.mad_mult,
            slowdown=args.slowdown,
            runtime=args.runtime,
        )

    if args.command == "tune":
        from repro.tuning.cli import run_tune_cli

        return run_tune_cli(
            n=args.n,
            nranks=args.ranks,
            machine=args.machine,
            repeats=args.repeats,
            iters=args.iters,
            e_tol=args.e_tol,
            name=args.name,
            out=args.out,
            seed=args.seed,
            timeout=args.timeout,
            runtime=args.runtime,
        )

    if args.command == "resilience":
        from repro.resilience.cli import run_resilience_cli

        return run_resilience_cli(
            kind=args.kind,
            nranks=args.ranks,
            n=args.n,
            e_tol=args.e_tol,
            victim=args.victim,
            after=args.after,
            seed=args.seed,
            timeout=args.timeout,
            suspect_after=args.suspect_after,
            runtime=args.runtime,
            out=args.out,
        )

    if args.command == "monitor":
        from repro.telemetry.monitor_cli import run_monitor_cli

        return run_monitor_cli(
            uid=args.uid,
            interval=args.interval,
            once=args.once,
            duration=args.duration,
            list_only=args.list_only,
        )

    if args.command == "blackbox":
        from repro.telemetry.monitor_cli import run_blackbox_cli

        return run_blackbox_cli(
            path=args.path,
            drill=args.drill,
            out=args.out,
            nranks=args.ranks,
            n=args.n,
            victim=args.victim,
            seed=args.seed,
            tail=args.tail,
        )

    names = _EXPERIMENTS if args.command == "all" else (args.command,)
    for name in names:
        print(_run_one(name, args.full))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
