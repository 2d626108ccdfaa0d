"""Command-line interface.

Usage (installed as ``gpuscale`` or via ``python -m repro.cli``)::

    gpuscale catalog                    # suite/program/kernel inventory
    gpuscale sweep --out data.npz       # collect the full dataset
    gpuscale sweep --resume             # resume an interrupted campaign
    gpuscale classify [--data data.npz] # taxonomy labels + histogram
    gpuscale report [T3 F7 ...]         # regenerate tables/figures
    gpuscale kernel rodinia/bfs.kernel1 # one kernel's scaling detail
    gpuscale engines                    # registered timing engines
    gpuscale families                   # microarchitecture families
    gpuscale transfer rodinia/bfs.kernel1 --from hawaii --to kaveri
    gpuscale transfer --evaluate --from hawaii --to kaveri
    gpuscale optimize rodinia/bfs.kernel1 --objective min_energy
    gpuscale optimize rodinia/bfs.kernel1 --frontier --power-cap 150
    gpuscale coschedule rodinia/bfs.kernel1 rodinia/nw.kernel1
    gpuscale coschedule --matrix        # class-composition matrix
    gpuscale cache info                 # sweep result cache contents
    gpuscale cache clear                # drop every cached entry

``sweep`` runs as a fault-tolerant campaign: progress is journaled to
``<out>.journal`` chunk by chunk, a failing kernel is quarantined
(reported, NaN row) instead of aborting — ``--strict`` restores
fail-fast — and ``--resume`` continues an interrupted run from the last
completed chunk instead of restarting all 237,897 points.

``classify``, ``report``, and ``kernel`` consult a content-addressed
sweep result cache when no ``--data`` file is given: the first run
simulates and stores the dataset keyed by a SHA-256 of the kernels,
space, and engine; repeat runs load it without invoking the engine.
``--no-cache`` bypasses the cache, ``--cache-dir`` relocates it, and
``gpuscale cache clear`` invalidates it explicitly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.report.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_experiment,
)
from repro.report.tables import render_table
from repro.suites import all_kernels, all_suites
from repro.sweep.dataset import ScalingDataset
from repro.sweep.runner import collect_paper_dataset
from repro.sweep.space import PAPER_SPACE
from repro.sweep.views import Axis, axis_slice
from repro.taxonomy.classifier import classify


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.programs:
        for suite in all_suites():
            if args.programs not in ("all", suite.name):
                continue
            print(f"{suite.name}: {suite.description}")
            for program in suite.programs:
                print(f"  {program.name} ({program.kernel_count} "
                      f"kernels): {program.description.strip()}")
            print()
        return 0
    rows = []
    for suite in all_suites():
        rows.append([suite.name, suite.program_count, suite.kernel_count])
    rows.append(
        ["total", sum(r[1] for r in rows), sum(r[2] for r in rows)]
    )
    print(render_table(["suite", "programs", "kernels"], rows))
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.predict.what_if import what_if
    from repro.suites import kernel_by_name

    kernel = kernel_by_name(args.kernel)
    results = what_if(kernel)
    rows = [
        [r.scenario.name, r.scenario.description, r.speedup]
        for r in results
    ]
    print(render_table(
        ["optimisation", "description", "throughput gain"],
        rows,
        title=f"What-if playbook for {args.kernel} (flagship config)",
    ))
    return 0


def _progress(done: int, total: int) -> None:
    sys.stderr.write(f"\rsweeping kernels: {done}/{total}")
    sys.stderr.flush()
    if done == total:
        sys.stderr.write("\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.campaign import CampaignRunner
    from repro.sweep.parallel import ParallelSweepRunner
    from repro.sweep.runner import SweepRunner

    if args.workers and args.workers > 1:
        inner = ParallelSweepRunner(
            engine=args.engine, workers=args.workers,
            grid_mode=args.engine_mode,
        )
    else:
        inner = SweepRunner(
            engine=args.engine, grid_mode=args.engine_mode
        )
    journal = args.journal or f"{args.out}.journal"
    runner = CampaignRunner(
        journal,
        runner=inner,
        chunk_size=args.chunk_size,
        strict=args.strict,
    )
    try:
        dataset, report = runner.run(
            all_kernels(), PAPER_SPACE, progress=_progress,
            resume=args.resume,
        )
    finally:
        inner.close()
    for line in report.summary_lines():
        print(line)
    path = dataset.save(args.out)
    print(f"dataset written to {path}")
    if args.csv:
        csv_path = dataset.export_csv(args.csv)
        print(f"CSV export written to {csv_path}")
    return 0


def _make_cache(args: argparse.Namespace):
    """The result cache selected by ``--no-cache``/``--cache-dir``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.sweep.cache import SweepCache

    return SweepCache(getattr(args, "cache_dir", None))


def _load_or_collect(
    data: Optional[str], cache=None
) -> ScalingDataset:
    if data:
        dataset = ScalingDataset.load(data).validate()
        if dataset.quarantined:
            names = ", ".join(sorted(dataset.quarantined))
            sys.stderr.write(
                f"warning: dropping {len(dataset.quarantined)} "
                f"quarantined kernel rows: {names}\n"
            )
            dataset = dataset.healthy()
        return dataset
    if cache is not None:
        from repro.sweep.cache import cached_paper_dataset

        return cached_paper_dataset(
            progress=_progress, cache=cache
        ).validate()
    return collect_paper_dataset(progress=_progress).validate()


def _cmd_classify(args: argparse.Namespace) -> int:
    dataset = _load_or_collect(args.data, cache=_make_cache(args))
    result = classify(dataset)
    rows = [
        [cat.value, n] for cat, n in result.category_counts().items()
    ]
    print(render_table(["category", "kernels"], rows,
                       title="Taxonomy classification"))
    if args.verbose:
        for label in result.labels:
            behaviours = "/".join(b.value for b in label.behaviours)
            print(f"{label.kernel_name:48s} {label.category.value:20s} "
                  f"{behaviours}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    ids = [e.upper() for e in args.experiments] or sorted(EXPERIMENTS)
    ctx = ExperimentContext(cache=_make_cache(args))
    if args.out:
        from repro.report.artifacts import write_artifacts

        written = write_artifacts(args.out, ids, ctx)
        for experiment_id, path in written.items():
            print(f"{experiment_id} -> {path}")
        return 0
    for experiment_id in ids:
        result = run_experiment(experiment_id, ctx)
        print(result.text)
        print()
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.power import EnergyModel, Objective
    from repro.power.dvfs_opt import select_optimum
    from repro.suites import kernel_by_name

    kernel = kernel_by_name(args.kernel)
    objective = Objective(args.objective)
    surface = EnergyModel().surfaces(kernel, PAPER_SPACE)
    chosen = surface.result_at(*select_optimum(
        surface.time_s, surface.energy_j, surface.power_w,
        objective, args.power_cap,
    ))
    flagship = surface.result_at(*(n - 1 for n in PAPER_SPACE.shape))
    print(f"kernel:            {kernel.full_name}")
    print(f"objective:         {objective.value}"
          + (f" (cap {args.power_cap} W)" if args.power_cap else ""))
    print(f"operating point:   {chosen.config.label()}")
    print(f"power:             {chosen.power_w:.1f} W "
          f"(flagship {flagship.power_w:.1f} W)")
    print(f"energy vs flagship: "
          f"{100 * (1 - chosen.energy_j / flagship.energy_j):+.1f}% saved")
    print(f"time vs flagship:   "
          f"{100 * (chosen.time_s / flagship.time_s - 1):+.1f}%")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.errors import AnalysisError
    from repro.power import EnergyModel, Objective
    from repro.power.dvfs_opt import frontier_points, select_optimum
    from repro.suites import kernel_by_name

    kernel = kernel_by_name(args.kernel)
    objective = Objective(args.objective)
    if args.pair is not None:
        if args.engine is not None:
            print("gpuscale optimize: --engine applies to solo "
                  "kernels only (the co-schedule model prices pairs)",
                  file=sys.stderr)
            return 2
        from repro.coschedule import CoScheduleModel

        partner = kernel_by_name(args.pair)
        surface = CoScheduleModel().pair_surface(
            kernel, partner, PAPER_SPACE
        )
        time_s = surface.makespan_s
        energy_j = surface.energy_j
        power_w = surface.power_w
        subject = f"{kernel.full_name} + {partner.full_name}"
    else:
        surfaces = EnergyModel(engine=args.engine).surfaces(
            kernel, PAPER_SPACE
        )
        time_s = surfaces.time_s
        energy_j = surfaces.energy_j
        power_w = surfaces.power_w
        subject = kernel.full_name

    if args.frontier:
        points = frontier_points(
            PAPER_SPACE, time_s, energy_j, power_w, args.power_cap
        )
        if args.json:
            print(json_mod.dumps([
                {
                    "config": p.config.label(),
                    "time_s": p.time_s,
                    "energy_j": p.energy_j,
                    "power_w": p.power_w,
                }
                for p in points
            ], indent=2))
            return 0
        rows = [
            [p.config.label(), f"{p.time_s:.3e}",
             f"{p.energy_j:.3e}", f"{p.power_w:.1f}"]
            for p in points
        ]
        print(render_table(
            ["configuration", "time (s)", "energy (J)", "power (W)"],
            rows,
            title=f"Energy/perf Pareto frontier for {subject}"
            + (f" (cap {args.power_cap:g} W)" if args.power_cap else ""),
        ))
        return 0

    try:
        c, e, m = select_optimum(
            time_s, energy_j, power_w, objective, args.power_cap
        )
    except AnalysisError as exc:
        print(f"gpuscale optimize: {exc}", file=sys.stderr)
        return 1
    config = PAPER_SPACE.config(c, e, m)
    chosen_t = float(time_s[c, e, m])
    chosen_e = float(energy_j[c, e, m])
    chosen_p = float(power_w[c, e, m])
    if args.json:
        print(json_mod.dumps({
            "kernel": kernel.full_name,
            "kernel_b": args.pair and kernel_by_name(args.pair).full_name,
            "objective": objective.value,
            "power_cap_w": args.power_cap,
            "config": config.label(),
            "time_s": chosen_t,
            "energy_j": chosen_e,
            "power_w": chosen_p,
            "edp": chosen_t * chosen_e,
        }, indent=2))
        return 0
    print(f"subject:          {subject}")
    print(f"objective:        {objective.value}"
          + (f" (cap {args.power_cap:g} W)" if args.power_cap else ""))
    print(f"operating point:  {config.label()}")
    print(f"time:             {chosen_t:.3e} s")
    print(f"energy:           {chosen_e:.3e} J")
    print(f"power:            {chosen_p:.1f} W")
    print(f"edp:              {chosen_t * chosen_e:.3e} J*s")
    return 0


def _cmd_coschedule(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.coschedule import CoScheduleModel

    if args.matrix:
        from repro.analysis import class_composition_matrix

        matrix = class_composition_matrix()
        if args.json:
            print(json_mod.dumps(matrix.to_dict(), indent=2))
            return 0
        print(matrix.render())
        pairs = matrix.destructive_pairs
        if pairs:
            print("\nscaling-destroying pairings (victim x partner):")
            for a, b in pairs:
                print(f"  {a.value} x {b.value}")
        else:
            print("\nno pairing destroys a scaling class")
        return 0

    if args.kernel_a is None or args.kernel_b is None:
        print("gpuscale coschedule: two kernel identifiers are "
              "required unless --matrix is given", file=sys.stderr)
        return 2
    from repro.suites import kernel_by_name

    kernel_a = kernel_by_name(args.kernel_a)
    kernel_b = kernel_by_name(args.kernel_b)
    model = CoScheduleModel()

    point_flags = (args.cu, args.eng, args.mem)
    if any(f is not None for f in point_flags):
        if any(f is None for f in point_flags):
            print("gpuscale coschedule: --cu, --eng and --mem must be "
                  "given together", file=sys.stderr)
            return 2
        try:
            c = PAPER_SPACE.cu_counts.index(args.cu)
            e = PAPER_SPACE.engine_mhz.index(args.eng)
            m = PAPER_SPACE.memory_mhz.index(args.mem)
        except ValueError:
            print("gpuscale coschedule: configuration off the paper "
                  f"grid; cu in {PAPER_SPACE.cu_counts}, engine in "
                  f"{PAPER_SPACE.engine_mhz}, memory in "
                  f"{PAPER_SPACE.memory_mhz}", file=sys.stderr)
            return 2
        result = model.evaluate(kernel_a, kernel_b, PAPER_SPACE.config(c, e, m))
        if args.json:
            print(json_mod.dumps({
                "config": result.config.label(),
                "a": {
                    "kernel": result.a.kernel_name,
                    "cu_allotment": result.a.cu_allotment,
                    "time_s": result.a.time_s,
                    "solo_time_s": result.a.solo_time_s,
                    "slowdown": result.a.time_s / result.a.solo_time_s,
                    "bandwidth_share": result.a.dram_demand_share,
                },
                "b": {
                    "kernel": result.b.kernel_name,
                    "cu_allotment": result.b.cu_allotment,
                    "time_s": result.b.time_s,
                    "solo_time_s": result.b.solo_time_s,
                    "slowdown": result.b.time_s / result.b.solo_time_s,
                    "bandwidth_share": result.b.dram_demand_share,
                },
                "makespan_s": result.makespan_s,
                "power_w": result.power_w,
                "energy_j": result.energy_j,
                "stp": result.stp,
                "antt": result.antt,
            }, indent=2))
            return 0
        print(f"configuration:  {result.config.label()}")
        for label, share in (("A", result.a), ("B", result.b)):
            print(f"kernel {label}:       {share.kernel_name}")
            print(f"  CUs           {share.cu_allotment}")
            print(f"  time          {share.time_s:.3e} s "
                  f"(solo {share.solo_time_s:.3e} s, "
                  f"slowdown {share.time_s / share.solo_time_s:.2f}x)")
            print(f"  bw share      {share.dram_demand_share:.3f}")
        print(f"makespan:       {result.makespan_s:.3e} s")
        print(f"power:          {result.power_w:.1f} W")
        print(f"energy:         {result.energy_j:.3e} J")
        print(f"STP:            {result.stp:.3f}")
        print(f"ANTT:           {result.antt:.3f}")
        return 0

    surface = model.pair_surface(kernel_a, kernel_b, PAPER_SPACE)
    import numpy as np

    stp = surface.stp
    antt = surface.antt
    best = np.unravel_index(int(np.argmax(stp)), stp.shape)
    best_config = PAPER_SPACE.config(*best)
    if args.json:
        print(json_mod.dumps({
            "kernel_a": surface.kernel_a,
            "kernel_b": surface.kernel_b,
            "stp": {"min": float(stp.min()), "mean": float(stp.mean()),
                    "max": float(stp.max())},
            "antt": {"min": float(antt.min()),
                     "mean": float(antt.mean()),
                     "max": float(antt.max())},
            "slowdown_a": {"min": float(surface.slowdown_a.min()),
                           "max": float(surface.slowdown_a.max())},
            "slowdown_b": {"min": float(surface.slowdown_b.min()),
                           "max": float(surface.slowdown_b.max())},
            "best_stp_config": best_config.label(),
            "best_stp": float(stp[best]),
        }, indent=2))
        return 0
    print(f"pair:           {surface.kernel_a} + {surface.kernel_b}")
    print(f"grid:           {'x'.join(str(n) for n in stp.shape)} "
          "(paper space)")
    print(f"STP:            min {stp.min():.3f}  mean {stp.mean():.3f}"
          f"  max {stp.max():.3f}")
    print(f"ANTT:           min {antt.min():.3f}  "
          f"mean {antt.mean():.3f}  max {antt.max():.3f}")
    print(f"slowdown A:     {surface.slowdown_a.min():.2f}x - "
          f"{surface.slowdown_a.max():.2f}x")
    print(f"slowdown B:     {surface.slowdown_b.min():.2f}x - "
          f"{surface.slowdown_b.max():.2f}x")
    print(f"best STP:       {stp[best]:.3f} at {best_config.label()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import ServiceConfig, run_service

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 2
    chaos = None
    if args.chaos:
        from repro.service.chaos import ChaosSpecError, parse_chaos

        try:
            chaos = parse_chaos(args.chaos)
        except ChaosSpecError as exc:
            print(f"--chaos rejected: {exc}")
            return 2
    if args.restart_budget < 1 or args.restart_window <= 0:
        print(
            "--restart-budget must be >= 1 and --restart-window > 0, "
            f"got {args.restart_budget}/{args.restart_window:g}"
        )
        return 2
    if args.hedge_fraction is not None and not (
        0.0 < args.hedge_fraction <= 1.0
    ):
        print(
            "--hedge-fraction must be in (0, 1], got "
            f"{args.hedge_fraction:g} (use --no-hedge to disable)"
        )
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        engine=args.engine,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_limit=args.queue_limit,
        request_timeout_s=args.request_timeout,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        workers=args.workers,
        restart_budget=args.restart_budget,
        restart_window_s=args.restart_window,
        hedge_fraction=(
            None if args.no_hedge else args.hedge_fraction
        ),
        chaos=chaos,
    )

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # non-Unix event loops
                pass

        def ready(service) -> None:
            print(
                "gpuscale serve listening on "
                f"http://{config.host}:{service.port} "
                f"(engine={config.engine} max_batch={config.max_batch} "
                f"max_wait_ms={config.max_wait_ms:g} "
                f"workers={config.workers})",
                flush=True,
            )

        await run_service(config, stop_event=stop, ready_callback=ready)

    asyncio.run(main())
    print("gpuscale serve drained cleanly")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sweep.cache import SweepCache

    cache = SweepCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'} "
              f"from {cache.cache_dir}")
        return 0
    entries = cache.entries()
    print(f"cache directory: {cache.cache_dir}")
    print(f"entries:         {len(entries)}")
    for path in entries:
        size_kib = path.stat().st_size / 1024
        print(f"  {path.name}  ({size_kib:.0f} KiB)")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    dataset = _load_or_collect(args.data, cache=_make_cache(args))
    result = classify(dataset)
    label = result.label_for(args.kernel)
    print(f"kernel:   {args.kernel}")
    print(f"category: {label.category.value}")
    for axis in Axis:
        slice_ = axis_slice(dataset, args.kernel, axis)
        behaviour = {
            Axis.CU: label.cu_behaviour,
            Axis.ENGINE: label.engine_behaviour,
            Axis.MEMORY: label.memory_behaviour,
        }[axis]
        curve = " ".join(f"{v:.2f}" for v in slice_.speedup)
        print(f"{axis.value:7s} [{behaviour.value:10s}] {curve}")

    from repro.taxonomy.explain import explain_label

    print()
    print(explain_label(label))

    from repro.gpu.counters import collect_counters
    from repro.suites import kernel_by_name
    from repro.sweep import PAPER_SPACE

    counters = collect_counters(
        kernel_by_name(args.kernel), PAPER_SPACE.max_config
    )
    print("\nflagship counters:")
    print(f"  duration     {counters.duration_us:.1f} us")
    print(f"  VALU busy    {100 * counters.valu_busy_fraction:.0f}%")
    print(f"  GFLOP/s      {counters.achieved_gflops:.0f}")
    print(f"  DRAM         {counters.achieved_dram_gbps:.1f} GB/s "
          f"({100 * counters.dram_utilisation:.0f}% of peak)")
    print(f"  L2 hit       {100 * counters.l2_hit_rate:.0f}%")
    print(f"  occupancy    {counters.occupancy_waves} waves/CU "
          f"(limited by {counters.occupancy_limiter})")
    print(f"  bottleneck   {counters.bottleneck}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="gpuscale",
        description=(
            "Reproduction of 'A Taxonomy of GPGPU Performance Scaling' "
            "(IISWC 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="print the suite inventory")
    catalog.add_argument(
        "--programs", nargs="?", const="all", default=None,
        metavar="SUITE",
        help="list programs with descriptions (optionally one suite)",
    )

    whatif = sub.add_parser(
        "whatif",
        help="rank standard optimisations for one kernel by payoff",
    )
    whatif.add_argument("kernel", help="suite/program.kernel identifier")

    from repro.gpu.engine import engine_names

    sweep = sub.add_parser("sweep", help="collect the full dataset")
    sweep.add_argument("--out", default="scaling_dataset.npz",
                       help="output .npz path")
    sweep.add_argument("--csv", default=None,
                       help="also export long-format CSV here")
    sweep.add_argument("--engine", default="interval",
                       choices=list(engine_names()),
                       help="registered timing engine to simulate with "
                       "(default: interval; see 'gpuscale engines')")
    sweep.add_argument("--engine-mode", default="batch",
                       choices=["batch", "scalar", "study"],
                       help="grid evaluation path: the per-kernel "
                       "vectorized batch engine (default), the "
                       "per-point scalar oracle for debugging batch "
                       "regressions, or whole-study kernel-axis "
                       "batching (fastest; one broadcast over the "
                       "entire kernel x configuration lattice)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume from the campaign journal instead "
                       "of restarting from scratch")
    sweep.add_argument("--journal", default=None, metavar="DIR",
                       help="campaign journal directory "
                       "(default: <out>.journal)")
    sweep.add_argument("--strict", action="store_true",
                       help="abort on the first failing kernel instead "
                       "of quarantining it")
    sweep.add_argument("--chunk-size", type=int, default=16,
                       metavar="N",
                       help="kernels per checkpointed chunk "
                       "(default: 16)")
    sweep.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for the sweep "
                       "(default: 1, serial)")

    def add_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-cache", action="store_true",
                       help="always re-simulate; do not read or write "
                       "the sweep result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="sweep result cache directory (default: "
                       "$GPUSCALE_CACHE_DIR or ~/.cache/gpuscale)")

    classify_p = sub.add_parser("classify", help="run the taxonomy")
    classify_p.add_argument("--data", default=None,
                            help="saved dataset (.npz); sweeps if omitted")
    classify_p.add_argument("-v", "--verbose", action="store_true",
                            help="print every kernel's label")
    add_cache_flags(classify_p)

    report = sub.add_parser("report", help="regenerate tables/figures")
    report.add_argument("experiments", nargs="*",
                        help="experiment IDs (default: all)")
    report.add_argument("--out", default=None,
                        help="write Markdown+JSON artifacts to this "
                        "directory instead of stdout")
    add_cache_flags(report)

    sub.add_parser(
        "summary",
        help="the study's abstract-style summary with measured numbers",
    )

    energy = sub.add_parser(
        "energy", help="energy-optimal operating point for one kernel"
    )
    energy.add_argument("kernel", help="suite/program.kernel identifier")
    energy.add_argument("--objective", default="min_edp",
                        choices=["min_energy", "min_edp", "max_perf"],
                        help="DVFS objective (default: min_edp)")
    energy.add_argument("--power-cap", type=float, default=None,
                        help="board power cap in watts")

    optimize = sub.add_parser(
        "optimize",
        help="energy-optimal configuration or Pareto frontier for a "
        "kernel (or a co-scheduled pair)",
    )
    optimize.add_argument("kernel", help="suite/program.kernel identifier")
    optimize.add_argument("--pair", default=None, metavar="KERNEL_B",
                          help="co-resident partner kernel: optimise "
                          "the pair's makespan/energy surface instead")
    optimize.add_argument("--objective", default="min_edp",
                          choices=["min_energy", "min_edp", "max_perf"],
                          help="selection objective (default: min_edp)")
    optimize.add_argument("--power-cap", type=float, default=None,
                          metavar="W", help="board power cap in watts")
    optimize.add_argument("--frontier", action="store_true",
                          help="print the full (time, energy) Pareto "
                          "frontier instead of one operating point")
    optimize.add_argument("--engine", default=None,
                          choices=list(engine_names()),
                          help="registered timing engine pricing the "
                          "solo surface (default: interval)")
    optimize.add_argument("--json", action="store_true",
                          help="emit JSON instead of text")

    coschedule = sub.add_parser(
        "coschedule",
        help="contended outcome of two co-resident kernels, or the "
        "taxonomy class-composition matrix",
    )
    coschedule.add_argument("kernel_a", nargs="?", default=None,
                            help="first kernel (omit with --matrix)")
    coschedule.add_argument("kernel_b", nargs="?", default=None,
                            help="co-resident partner kernel")
    coschedule.add_argument("--cu", type=int, default=None,
                            help="CU count for a single-point query")
    coschedule.add_argument("--eng", type=float, default=None,
                            metavar="MHZ", help="engine clock for a "
                            "single-point query")
    coschedule.add_argument("--mem", type=float, default=None,
                            metavar="MHZ", help="memory clock for a "
                            "single-point query")
    coschedule.add_argument("--matrix", action="store_true",
                            help="print the class-composition matrix "
                            "over the whole catalog instead")
    coschedule.add_argument("--json", action="store_true",
                            help="emit JSON instead of text")

    kernel = sub.add_parser("kernel", help="inspect one kernel")
    kernel.add_argument("kernel", help="suite/program.kernel identifier")
    kernel.add_argument("--data", default=None,
                        help="saved dataset (.npz); sweeps if omitted")
    add_cache_flags(kernel)

    sub.add_parser(
        "engines",
        help="list registered timing engines with their capabilities",
    )

    sub.add_parser(
        "families",
        help="list registered microarchitecture families",
    )

    transfer = sub.add_parser(
        "transfer",
        help="predict a kernel's scaling surface and taxonomy class "
        "on one microarchitecture family from its measured surface "
        "on another",
    )
    transfer.add_argument("kernel", nargs="?", default=None,
                          help="suite/program.kernel identifier "
                          "(omit with --evaluate)")
    transfer.add_argument("--from", dest="source", required=True,
                          metavar="FAMILY",
                          help="family the kernel is measured on")
    transfer.add_argument("--to", dest="target", required=True,
                          metavar="FAMILY",
                          help="family to predict for")
    transfer.add_argument("--evaluate", action="store_true",
                          help="score the whole catalog instead: "
                          "leave-one-out taxonomy-class confusion "
                          "matrix for the family pair")
    transfer.add_argument("--neighbours", type=int, default=None,
                          metavar="K",
                          help="corpus neighbours blended per "
                          "prediction (default: 3)")
    transfer.add_argument("--json", action="store_true",
                          help="emit JSON instead of tables")

    from repro.service.batcher import DEFAULT_MAX_WAIT_MS

    serve = sub.add_parser(
        "serve",
        help="run the async micro-batching HTTP query service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port; 0 picks a free one "
                       "(default: 8000)")
    serve.add_argument("--engine", default="interval",
                       choices=list(engine_names()),
                       help="registered timing engine answering "
                       "queries (default: interval)")
    serve.add_argument("--max-batch", type=int, default=64,
                       metavar="N",
                       help="most queries coalesced into one engine "
                       "dispatch (default: 64)")
    serve.add_argument("--max-wait-ms", type=float,
                       default=DEFAULT_MAX_WAIT_MS, metavar="MS",
                       help="extra linger for batch peers after the "
                       "queue is drained; 0 dispatches as soon as the "
                       "engine is idle (default: %(default)g)")
    serve.add_argument("--queue-limit", type=int, default=1024,
                       metavar="N",
                       help="admission queue bound; beyond it "
                       "requests get 429 (default: 1024)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="S",
                       help="per-request service timeout in seconds; "
                       "beyond it requests get 503 (default: 30)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="engine worker processes; 1 serves "
                       "in-process, N>1 runs a sharded fleet behind "
                       "a router (default: 1)")
    serve.add_argument("--restart-budget", type=int, default=8,
                       metavar="N",
                       help="worker restarts allowed per sliding "
                       "window; while exhausted a crashed worker's "
                       "shard fails over to ring neighbours "
                       "(default: 8)")
    serve.add_argument("--restart-window", type=float, default=60.0,
                       metavar="S",
                       help="the restart budget's sliding window in "
                       "seconds (default: 60)")
    serve.add_argument("--hedge-fraction", type=float, default=0.5,
                       metavar="F",
                       help="hedge a grid query to a second worker "
                       "after it has burned this fraction of its "
                       "deadline budget; first response wins "
                       "(default: 0.5)")
    serve.add_argument("--no-hedge", action="store_true",
                       help="disable hedged dispatch")
    serve.add_argument("--chaos", default=None, metavar="SPEC",
                       help="seeded fault injection for the worker "
                       "fleet, e.g. "
                       "'seed=7,corrupt=0.05,kill=0.01,arm_after=20' "
                       "(testing only; default: off)")
    add_cache_flags(serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the sweep result cache"
    )
    cache.add_argument("action", choices=["info", "clear"],
                       help="'info' lists entries, 'clear' deletes them")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="sweep result cache directory (default: "
                       "$GPUSCALE_CACHE_DIR or ~/.cache/gpuscale)")

    return parser


def _cmd_engines(_args: argparse.Namespace) -> int:
    from repro.gpu.engine import list_engines

    def mark(flag: bool) -> str:
        return "yes" if flag else "-"

    rows = []
    for reg in list_engines():
        caps = reg.capabilities
        descriptor = reg.descriptor
        rows.append([
            reg.name,
            mark(caps.point),
            mark(caps.grid),
            mark(caps.study),
            descriptor.family,
            f"v{descriptor.version}",
            descriptor.fidelity,
            reg.summary,
        ])
    print(render_table(
        ["engine", "point", "grid", "study", "family", "version",
         "fidelity", "summary"],
        rows,
        title="Registered timing engines",
    ))
    return 0


def _cmd_families(_args: argparse.Namespace) -> int:
    from repro.gpu.uarch import list_families

    rows = []
    for family in list_families():
        flagship = family.flagship
        rows.append([
            family.name,
            flagship.cu_count,
            f"{flagship.peak_gflops:.0f}",
            f"{flagship.peak_dram_gb_per_sec:.0f}",
            f"{flagship.machine_balance_flops_per_byte:.1f}",
            "x".join(str(n) for n in family.space.shape),
            family.summary,
        ])
    print(render_table(
        ["family", "CUs", "GFLOP/s", "GB/s", "flop/byte", "grid",
         "summary"],
        rows,
        title="Registered microarchitecture families",
    ))
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.analysis.transfer import evaluate_transfer
    from repro.predict.transfer import (
        DEFAULT_NEIGHBOURS,
        transfer_predictor,
    )

    k = args.neighbours or DEFAULT_NEIGHBOURS
    if args.evaluate:
        evaluation = evaluate_transfer(args.source, args.target, k=k)
        if args.json:
            print(json_mod.dumps(evaluation.to_dict(), indent=2))
            return 0
        print(
            f"Taxonomy-class transfer {evaluation.source_family} -> "
            f"{evaluation.target_family} (leave-one-out over "
            f"{evaluation.matrix.total} kernels)\n"
        )
        print(evaluation.matrix.render())
        print(
            f"median leave-one-out surface error: "
            f"{evaluation.transfer_error:.1%}"
        )
        return 0

    if args.kernel is None:
        print(
            "gpuscale transfer: a kernel identifier is required "
            "unless --evaluate is given",
            file=sys.stderr,
        )
        return 2
    from repro.gpu.interval_batch import BatchIntervalModel
    from repro.kernels.pack import KernelPack
    from repro.suites import kernel_by_name
    from repro.sweep.dataset import KernelRecord

    kernel = kernel_by_name(args.kernel)
    predictor = transfer_predictor(args.source, args.target, k=k)
    source_perf = BatchIntervalModel().simulate_study(
        KernelPack.from_kernels([kernel]), predictor.source.space
    ).items_per_second[0]
    prediction = predictor.predict_cube(
        source_perf, kernel_name=kernel.full_name
    )
    target_space = predictor.target.space
    dataset = ScalingDataset(
        target_space,
        [KernelRecord.from_full_name(kernel.full_name)],
        prediction.cube[None, ...],
    )
    label = classify(dataset).labels[0]
    if args.json:
        print(json_mod.dumps({
            "kernel": kernel.full_name,
            "source_family": prediction.source_family,
            "target_family": prediction.target_family,
            "category": label.category.value,
            "behaviours": {
                "cu": label.cu_behaviour.value,
                "engine": label.engine_behaviour.value,
                "memory": label.memory_behaviour.value,
            },
            "neighbours": list(prediction.neighbours),
            "neighbour_distances": list(
                prediction.neighbour_distances
            ),
            "transfer_error": predictor.measured_error(),
            "items_per_second": prediction.cube.tolist(),
        }, indent=2))
        return 0
    peak = float(prediction.cube.max())
    base = float(prediction.cube[0, 0, 0])
    print(
        f"{kernel.full_name}: measured on "
        f"{prediction.source_family}, predicted for "
        f"{prediction.target_family}"
    )
    print(f"  predicted class     {label.category.value}")
    print(
        f"  behaviours          cu={label.cu_behaviour.value} "
        f"engine={label.engine_behaviour.value} "
        f"memory={label.memory_behaviour.value}"
    )
    print(
        f"  predicted range     {base:.3g} -> {peak:.3g} items/s "
        f"({peak / base:.1f}x over the grid)"
    )
    neighbours = ", ".join(
        f"{name} (d={dist:.2f})"
        for name, dist in zip(
            prediction.neighbours, prediction.neighbour_distances
        )
    )
    print(f"  corpus neighbours   {neighbours}")
    print(
        f"  corpus LOO error    {predictor.measured_error():.1%} "
        "(median relative surface error)"
    )
    return 0


def _cmd_summary(_args: argparse.Namespace) -> int:
    from repro.report.summary import study_summary

    print(study_summary())
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "report": _cmd_report,
    "kernel": _cmd_kernel,
    "energy": _cmd_energy,
    "optimize": _cmd_optimize,
    "coschedule": _cmd_coschedule,
    "cache": _cmd_cache,
    "engines": _cmd_engines,
    "families": _cmd_families,
    "transfer": _cmd_transfer,
    "serve": _cmd_serve,
    "summary": _cmd_summary,
    "whatif": _cmd_whatif,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
