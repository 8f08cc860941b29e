"""The ``goofi`` command-line application.

Drives the four phases of a fault-injection study from the shell:

    goofi targets                               # what can I inject into?
    goofi workloads                             # what can I run?
    goofi configure  --db g.db --target thor-rd # configuration phase (Fig. 5)
    goofi tree       --target thor-rd           # location hierarchy (Fig. 6)
    goofi campaign   --db g.db --name c1 ...    # set-up phase (Fig. 6)
    goofi merge      --db g.db --into c3 c1 c2  # merge stored campaigns
    goofi lint       --db g.db --campaign c1    # set-up validation, CI gate
    goofi run        --db g.db --campaign c1    # fault-injection phase (Fig. 7)
    goofi analyze    --db g.db --campaign c1    # analysis phase
    goofi rerun      --db g.db --campaign c1 --index 4   # detail re-run
    goofi propagate  --db g.db --experiment c1-exp00004-rerun
    goofi preview    --db g.db --campaign c1    # fault list without running
    goofi compare    --db g.db c1 c2            # significance testing
    goofi plan --half-width 0.05                # sample-size planning
    goofi faultspace --db g.db --campaign c1    # fault-space accounting
    goofi gen-analysis --db g.db --campaign c1  # emit analysis script
    goofi port-skeleton --name MyBoard --techniques scifi

The campaign fabric (fault injection as a service):

    goofi serve   --db g.db --port 0 --workers 4   # REST job API
    goofi submit  --url http://HOST:PORT --spec c.json --wait
    goofi status  --url http://HOST:PORT [--job job-000001]
    goofi results --url http://HOST:PORT --job job-000001
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.campaign import EnvironmentSpec, FaultModelSpec
from repro.core.controller import CampaignController
from repro.core.framework import (
    available_targets,
    available_techniques,
    create_target,
    generate_port_skeleton,
)
from repro.core.triggers import TriggerSpec
from repro.db import GoofiDatabase
from repro.db.autoanalysis import generate_analysis_script
from repro.ui.campaign_window import CampaignSetupWindow
from repro.ui.config_window import TargetConfigurationWindow
from repro.ui.progress_window import ProgressWindow
from repro.util.errors import ReproError
from repro.workloads import available_workloads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goofi",
        description="GOOFI: generic object-oriented fault injection tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("targets", help="list registered target systems")
    p = sub.add_parser("workloads", help="list available workloads")
    p.add_argument("--target", help="restrict to one target's workloads")
    sub.add_parser("techniques", help="list fault-injection techniques")

    p = sub.add_parser("configure", help="save target data (Figure 5)")
    p.add_argument("--db", required=True)
    p.add_argument("--target", default="thor-rd")
    p.add_argument("--max-rows", type=int, default=24)

    p = sub.add_parser("tree", help="show the fault-location hierarchy")
    p.add_argument("--target", default="thor-rd")
    p.add_argument("--workload", default="bubblesort")

    p = sub.add_parser("campaign", help="define a campaign (Figure 6)")
    p.add_argument("--db", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--target", default="thor-rd")
    p.add_argument("--technique", default="scifi")
    p.add_argument("--workload", default="bubblesort")
    p.add_argument(
        "--locations", nargs="+", default=["scan:internal/cpu.regfile.*"]
    )
    p.add_argument("--experiments", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fault-kind", default="transient",
                   choices=["transient", "intermittent", "permanent"])
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--trigger", default="time-uniform",
                   choices=list(TriggerSpec.VALID_KINDS))
    p.add_argument("--logging-mode", default="normal",
                   choices=["normal", "detail"])
    p.add_argument("--timeout-cycles", type=int)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--environment")
    p.add_argument("--preinjection", action="store_true")
    p.add_argument("--protect-code", action="store_true",
                   help="write-protect the code image (software EDM)")

    p = sub.add_parser("merge", help="merge stored campaigns")
    p.add_argument("--db", required=True)
    p.add_argument("--into", required=True)
    p.add_argument("sources", nargs="+")

    p = sub.add_parser("campaigns", help="list stored campaigns")
    p.add_argument("--db", required=True)

    p = sub.add_parser(
        "lint",
        help="lint campaign configurations (exits 1 on error findings, "
             "so it can gate CI)",
    )
    p.add_argument("--db", help="database holding the stored campaign")
    p.add_argument("--campaign", help="stored campaign name to lint")
    p.add_argument(
        "--spec", nargs="+", metavar="FILE",
        help="CampaignData JSON spec file(s) to lint instead of a stored "
             "campaign",
    )
    p.add_argument(
        "--partition", action="store_true",
        help="for equivalence-mode campaigns, perform the reference run "
             "and partition the planned fault list so class statistics "
             "(class-singleton-heavy) are linted too",
    )

    p = sub.add_parser("run", help="run a campaign (Figure 7)")
    p.add_argument("--db", required=True)
    p.add_argument("--campaign", required=True)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--resume", action="store_true",
                   help="skip experiments already logged in the database")
    p.add_argument("--trace",
                   help="write a structured JSONL trace of the run to PATH "
                        "(inspect with 'goofi-metrics trace PATH')")
    p.add_argument("--metrics-out",
                   help="write a metrics snapshot (JSON) to PATH after the "
                        "run (inspect with 'goofi-metrics report PATH')")
    p.add_argument("--serve-metrics", type=int, metavar="PORT",
                   help="serve live telemetry over HTTP while the campaign "
                        "runs (/metrics OpenMetrics, /healthz, /snapshot); "
                        "PORT 0 binds an ephemeral port (printed at start)")
    p.add_argument("--flight-records", type=int, metavar="N", default=0,
                   help="keep a crash flight recorder of the last N trace "
                        "events; dumped to flight-<pid>.jsonl on crashes, "
                        "watchdog kills and worker failures")
    p.add_argument("--golden-cache", metavar="DIR",
                   default=os.environ.get("GOOFI_GOLDEN_CACHE") or None,
                   help="cache golden (reference) runs in DIR keyed by the "
                        "campaign's config hash, so re-running an unchanged "
                        "campaign skips the reference execution "
                        "(GOOFI_GOLDEN_CACHE)")
    p.add_argument("--verify-equivalence", type=float, metavar="P",
                   default=0.0,
                   help="re-execute fraction P of derived experiments "
                        "(equivalence members, and dead faults derived "
                        "from the golden run) for real and hard-fail the "
                        "campaign if any outcome diverges from its "
                        "derivation")
    p.add_argument("--no-early-exit", action="store_true",
                   help="disable liveness exits (plan-time golden rows "
                        "for faults the reference trace proves dead), "
                        "divergence-window digest "
                        "exits and outcome memoization: simulate every "
                        "faulty run to workload end (the escape hatch "
                        "for debugging or timing studies)")

    p = sub.add_parser(
        "analyze",
        help="streaming campaign analytics: outcome mix with Wilson and "
             "exact intervals, heatmaps, sequential stopping advice, "
             "cross-campaign diffing (safe to run against a live "
             "campaign — the database is opened read-only)",
    )
    p.add_argument("--db", required=True)
    p.add_argument("--campaign", required=True,
                   help="campaign to analyze (the run under test when "
                        "diffing)")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--half-width", type=float, default=0.05,
                   help="sequential-stopping target CI half-width ε: "
                        "advice says stop once the detection-coverage "
                        "interval half-width is ≤ ε")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (identical to "
                        "the fabric's /jobs/<id>/analysis payload)")
    p.add_argument("--batch-size", type=int, default=512,
                   help="rows fetched per cursor batch")
    p.add_argument("--time-bins", type=int, default=12,
                   help="time-axis resolution of the heatmaps")
    p.add_argument("--diff", metavar="BASELINE",
                   help="diff against this baseline campaign: same config "
                        "hash → outcome-mix drift with significance tests; "
                        "different hash → field-level config delta")
    p.add_argument("--diff-db", metavar="PATH",
                   help="database holding the baseline campaign "
                        "(default: --db)")
    p.add_argument("--gate", action="store_true",
                   help="with --diff: exit 1 when the run under test "
                        "regressed vs. the baseline (tolerance band + "
                        "significance, like benchmarks/check_regression.py)")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="relative tolerance band for --gate metrics")

    p = sub.add_parser("rerun", help="re-run one experiment in detail mode")
    p.add_argument("--db", required=True)
    p.add_argument("--campaign", required=True)
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("gen-analysis", help="generate an analysis script")
    p.add_argument("--db", required=True)
    p.add_argument("--campaign", required=True)
    p.add_argument("--output", default="-")

    p = sub.add_parser("port-skeleton", help="emit a new-target skeleton")
    p.add_argument("--name", required=True)
    p.add_argument("--techniques", nargs="+", default=["scifi"])

    p = sub.add_parser(
        "compare", help="compare two stored campaigns statistically"
    )
    p.add_argument("--db", required=True)
    p.add_argument("campaigns", nargs=2)

    p = sub.add_parser(
        "plan", help="sample-size planning for a target CI width"
    )
    p.add_argument("--proportion", type=float, default=0.5)
    p.add_argument("--half-width", type=float, default=0.05)
    p.add_argument("--confidence", type=float, default=0.95)

    p = sub.add_parser(
        "propagate", help="error-propagation report for a detail-mode experiment"
    )
    p.add_argument("--db", required=True)
    p.add_argument("--experiment", required=True)

    p = sub.add_parser(
        "faultspace", help="fault-space accounting for a stored campaign"
    )
    p.add_argument("--db", required=True)
    p.add_argument("--campaign", required=True)

    p = sub.add_parser(
        "preview", help="preview a campaign's planned faults without running"
    )
    p.add_argument("--db", required=True)
    p.add_argument("--campaign", required=True)
    p.add_argument("--count", type=int, default=10)

    p = sub.add_parser(
        "serve",
        help="run the campaign fabric: a REST job API scheduling "
             "campaigns across a worker fleet",
    )
    p.add_argument("--db", required=True,
                   help="shared sqlite sink every job logs into "
                        "(must be a file path)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 binds an ephemeral port (announced on stdout)")
    p.add_argument("--workers", type=int, default=None,
                   help="total worker processes across concurrent jobs "
                        "(default: max(2, cpu count))")
    p.add_argument("--tenant-quota", type=int, default=8,
                   help="max non-terminal jobs per tenant (0 = unlimited)")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="max queued jobs across tenants (0 = unlimited)")
    p.add_argument("--golden-cache", metavar="DIR",
                   default=os.environ.get("GOOFI_GOLDEN_CACHE") or None,
                   help="golden-run disk cache shared by every job, so "
                        "reference runs dedupe across identical configs "
                        "(GOOFI_GOLDEN_CACHE)")
    p.add_argument("--shard-size", type=int, default=8)
    p.add_argument("--start-method", default=None,
                   choices=["fork", "spawn", "forkserver"])

    p = sub.add_parser(
        "submit", help="submit a campaign spec to a fabric server"
    )
    p.add_argument("--url", required=True,
                   help="fabric base URL (as announced by 'goofi serve')")
    p.add_argument("--spec", required=True,
                   help="CampaignData JSON spec file (the same document "
                        "'goofi lint --spec' validates)")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0,
                   help="larger runs earlier; FIFO within a priority")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes requested from the fleet")
    p.add_argument("--no-golden-cache", action="store_true",
                   help="skip the server's golden-run cache for this job")
    p.add_argument("--wait", action="store_true",
                   help="poll the job to a terminal state before exiting "
                        "(exit 1 when it failed)")
    p.add_argument("--timeout", type=float, default=None,
                   help="give up waiting after this many seconds")

    p = sub.add_parser(
        "status", help="fabric service/job status"
    )
    p.add_argument("--url", required=True)
    p.add_argument("--job",
                   help="job id; omitted, prints service info and the "
                        "job list")
    p.add_argument("--json", action="store_true",
                   help="print the raw JSON body instead of a summary")

    p = sub.add_parser(
        "results",
        help="canonical result rows of a finished fabric job "
             "(byte-identical to a local serial run of the same spec)",
    )
    p.add_argument("--url", required=True)
    p.add_argument("--job", required=True)
    p.add_argument("--output", default="-",
                   help="write the JSON payload to PATH (default stdout)")

    return parser


def _cmd_configure(args) -> int:
    with GoofiDatabase(args.db) as db:
        target = create_target(args.target)
        window = TargetConfigurationWindow(target, db)
        window.save()
        print(window.render(max_rows=args.max_rows))
        print(f"saved TargetSystemData for {args.target!r} to {args.db}")
    return 0


def _cmd_tree(args) -> int:
    window = CampaignSetupWindow()
    window.select_target(args.target)
    window.set_workload(args.workload)
    print(window.location_tree())
    return 0


def _cmd_campaign(args) -> int:
    with GoofiDatabase(args.db) as db:
        window = CampaignSetupWindow(db)
        window.select_target(args.target)
        window.set_name(args.name)
        window.set_technique(args.technique)
        window.set_workload(args.workload)
        window.choose_locations(args.locations)
        window.set_fault_model(
            FaultModelSpec(kind=args.fault_kind, multiplicity=args.multiplicity)
        )
        window.set_trigger(TriggerSpec(kind=args.trigger))
        window.set_experiments(args.experiments, args.seed)
        window.set_logging_mode(args.logging_mode)
        window.set_termination(args.timeout_cycles, args.max_iterations)
        if args.environment:
            window.set_environment(args.environment)
        if args.preinjection:
            window.set_preinjection(True)
        if args.protect_code:
            window.set_protect_code(True)
        window.save()
        print(window.render())
        print(f"saved CampaignData {args.name!r} to {args.db}")
    return 0


def _cmd_run(args) -> int:
    from repro.observability import (
        configure,
        disable,
        get_observability,
        start_exporter,
    )

    serve_port = getattr(args, "serve_metrics", None)
    flight_records = getattr(args, "flight_records", 0) or 0
    want_obs = bool(
        args.trace
        or args.metrics_out
        or serve_port is not None
        or flight_records > 0
    )
    if want_obs:
        configure(
            trace_path=args.trace,
            metrics=bool(args.metrics_out) or serve_port is not None,
            flight_records=flight_records,
        )
    exporter = None
    try:
        if serve_port is not None:
            exporter = start_exporter(port=serve_port)
            print(
                "serving live telemetry on "
                f"{exporter.url('/metrics')} (/healthz, /snapshot)"
            )
        with GoofiDatabase(args.db) as db:
            campaign = db.load_campaign(args.campaign)
            target = create_target(campaign.target_name)
            golden_dir = getattr(args, "golden_cache", None)
            if golden_dir:
                from repro.core.goldencache import GoldenRunCache

                target.golden_cache = GoldenRunCache(golden_dir)
            verify = getattr(args, "verify_equivalence", 0.0) or 0.0
            if not 0.0 <= verify <= 1.0:
                print(
                    "goofi: error: --verify-equivalence must be in [0, 1]",
                    file=sys.stderr,
                )
                return 1
            target.verify_equivalence = verify
            if getattr(args, "no_early_exit", False):
                target.early_exit = False
            controller = CampaignController(target, sink=db)
            window = ProgressWindow(
                controller, stream=None if args.quiet else sys.stdout
            )
            controller.run(campaign, resume=args.resume)
            print(window.render())
        if want_obs:
            obs = get_observability()
            obs.flush()
            if args.metrics_out:
                obs.write_metrics(args.metrics_out)
                print(f"wrote metrics snapshot to {args.metrics_out}")
            if args.trace:
                print(f"wrote trace to {args.trace}")
    finally:
        if exporter is not None:
            exporter.stop()
        if want_obs:
            disable()
    return 0


def _lint_one_campaign(campaign, partition: bool) -> List:
    """Lint one campaign, returning its findings.

    Binding errors (zero-match patterns, unknown modes …) are folded
    into the findings as ``invalid-campaign`` errors rather than
    aborting, so one broken spec does not hide the others' reports."""
    from repro.staticanalysis.lint import LintFinding

    target = create_target(campaign.target_name)
    findings: List = []
    partition_stats = None
    reference_duration = None
    try:
        target.read_campaign_data(campaign)
        program = target.workload_program()
    except ReproError as exc:
        findings.append(
            LintFinding(
                rule="invalid-campaign",
                severity="error",
                message=str(exc),
            )
        )
        # A fresh unbound target still provides the location space, so
        # the pattern checks can name the offending patterns.
        findings.extend(
            _lint(campaign, create_target(campaign.target_name)
                  .location_space())
        )
        return findings
    if partition and campaign.preinjection_mode == "equivalence":
        reference = target.prepare_run(campaign)
        reference_duration = reference.duration_cycles
        plans = {
            index: target.plan_experiment(index, reference)
            for index in range(campaign.n_experiments)
        }
        partition_stats = target._equivalence.partition(plans).stats()
    findings.extend(
        _lint(
            campaign,
            target.location_space(),
            program=program,
            reference_duration=reference_duration,
            partition_stats=partition_stats,
        )
    )
    return findings


def _lint(campaign, space, **kwargs) -> List:
    from repro.staticanalysis.lint import lint_campaign

    return lint_campaign(campaign, space, **kwargs)


def _cmd_lint(args) -> int:
    from repro.core.campaign import CampaignData
    from repro.staticanalysis.lint import lint_errors

    jobs = []  # (label, campaign)
    if args.spec:
        for path in args.spec:
            with open(path) as handle:
                jobs.append((path, CampaignData.from_json(handle.read())))
    if args.campaign:
        if not args.db:
            print(
                "goofi: error: --campaign needs --db", file=sys.stderr
            )
            return 2
        with GoofiDatabase(args.db) as db:
            jobs.append((args.campaign, db.load_campaign(args.campaign)))
    if not jobs:
        print(
            "goofi: error: nothing to lint — pass --spec FILE... or "
            "--db/--campaign",
            file=sys.stderr,
        )
        return 2
    n_errors = 0
    for label, campaign in jobs:
        findings = _lint_one_campaign(campaign, args.partition)
        errors = lint_errors(findings)
        n_errors += len(errors)
        status = "FAIL" if errors else "ok"
        print(f"{label}: {status} ({len(findings)} finding(s))")
        for finding in findings:
            print(f"  {finding}")
    return 1 if n_errors else 0


def _analyze_one(db, campaign_name: str, args):
    from repro.analysis import analyze_campaign

    return analyze_campaign(
        db,
        campaign_name,
        confidence=args.confidence,
        epsilon=args.half_width,
        batch_size=args.batch_size,
        time_bins=args.time_bins,
    )


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis import diff_reports

    if args.gate and not args.diff:
        print("goofi: error: --gate needs --diff BASELINE", file=sys.stderr)
        return 2
    # Analytics never mutate: a read-only WAL connection sees the last
    # committed snapshot and cannot stall a live 'goofi run'/'goofi serve'
    # writer on the same file.
    with GoofiDatabase(args.db, readonly=True) as db:
        fresh = _analyze_one(db, args.campaign, args)
        if not args.diff:
            if args.json:
                print(json.dumps(fresh.to_dict(), indent=2, sort_keys=True))
            else:
                print(fresh.render())
            return 0
        fresh_config = db.load_campaign(args.campaign).to_dict()
        if args.diff_db and args.diff_db != args.db:
            with GoofiDatabase(args.diff_db, readonly=True) as base_db:
                base = _analyze_one(base_db, args.diff, args)
                base_config = base_db.load_campaign(args.diff).to_dict()
        else:
            base = _analyze_one(db, args.diff, args)
            base_config = db.load_campaign(args.diff).to_dict()
    diff = diff_reports(
        base, fresh, base_config, fresh_config, tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    if args.gate and diff.regressed:
        print(
            f"goofi: gate: {args.campaign} regressed vs {args.diff}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_rerun(args) -> int:
    with GoofiDatabase(args.db) as db:
        campaign = db.load_campaign(args.campaign)
        target = create_target(campaign.target_name)
        result = target.rerun_experiment(campaign, args.index, sink=db)
        print(f"re-ran {result.parent_experiment} as {result.name}")
        print(f"logged {len(result.detail_states)} per-instruction states")
    return 0


def _cmd_gen_analysis(args) -> int:
    script = generate_analysis_script(args.db, args.campaign)
    if args.output == "-":
        print(script)
    else:
        with open(args.output, "w") as handle:
            handle.write(script)
        print(f"wrote {args.output}")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import classify_campaign
    from repro.analysis.faultspace import compare_proportions
    from repro.analysis.report import render_comparison

    with GoofiDatabase(args.db) as db:
        summaries = []
        for name in args.campaigns:
            reference = db.load_reference(name)
            results = db.load_experiments(name)
            summaries.append(classify_campaign(results, reference))
        print(render_comparison(args.campaigns, summaries))
        print()
        a, b = summaries
        effect = compare_proportions(
            a.effective, a.total, b.effective, b.total
        )
        print(f"effectiveness:      {effect.describe()}")
        if a.effective and b.effective:
            coverage = compare_proportions(
                a.detected, a.effective, b.detected, b.effective
            )
            print(f"detection coverage: {coverage.describe()}")
    return 0


def _cmd_propagate(args) -> int:
    from repro.analysis import analyse_propagation

    with GoofiDatabase(args.db) as db:
        experiment = db.load_experiment(args.experiment)
        if not experiment.detail_states:
            print(
                f"goofi: error: experiment {args.experiment!r} has no "
                "detail-mode states; re-run it with 'goofi rerun'",
                file=sys.stderr,
            )
            return 1
        reference = db.load_reference(experiment.campaign_name)
        if not reference.detail_states:
            print(
                "goofi: error: the campaign reference has no detail-mode "
                "states",
                file=sys.stderr,
            )
            return 1
        report = analyse_propagation(
            reference.detail_states, experiment.detail_states
        )
        print(f"experiment: {experiment.name}")
        if experiment.injections:
            injection = experiment.injections[0]
            print(f"fault:      {injection.location.key()} at cycle "
                  f"{injection.time}")
        print(report.describe())
        if report.infected_counts:
            peak = max(report.infected_counts)
            bar_unit = max(1, peak // 40)
            print("infected cells per step:")
            for i, count in enumerate(report.infected_counts):
                if count or i == report.first_divergence_step:
                    print(f"  step {i:5d} |{'#' * (count // bar_unit)} {count}")
    return 0


def _cmd_serve(args) -> int:
    import time

    from repro.service import FabricServer, ServiceConfig

    kwargs = {
        "db_path": args.db,
        "host": args.host,
        "port": args.port,
        "tenant_quota": args.tenant_quota,
        "max_queue": args.max_queue,
        "golden_cache_dir": args.golden_cache,
        "shard_size": args.shard_size,
        "start_method": args.start_method,
    }
    if args.workers is not None:
        kwargs["total_workers"] = args.workers
    config = ServiceConfig(**kwargs)
    server = FabricServer(config).start()
    # The announce line is a contract: scripts (CI's service smoke, the
    # examples in README) parse the URL out of it.
    print(f"fabric: serving on {server.url('')}", flush=True)
    print(
        f"fabric: db={config.db_path} workers={config.total_workers} "
        f"tenant-quota={config.tenant_quota}",
        flush=True,
    )
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("fabric: shutting down", flush=True)
    finally:
        server.stop()
    return 0


def _fabric_client(url):
    from repro.service import FabricClient

    return FabricClient(url)


def _cmd_submit(args) -> int:
    import json

    with open(args.spec) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "campaign" not in document:
        document = {"campaign": document}
    document.setdefault("tenant", args.tenant)
    document.setdefault("priority", args.priority)
    document.setdefault("n_workers", args.workers)
    if args.no_golden_cache:
        document["use_golden_cache"] = False
    client = _fabric_client(args.url)
    record = client.submit(document)
    job_id = record["job_id"]
    print(f"submitted {job_id} ({record['campaign_name']}, "
          f"tenant={record['tenant']}, priority={record['priority']})")
    if not args.wait:
        return 0
    status = client.wait(job_id, timeout=args.timeout)
    result = status.get("result") or {}
    print(f"{job_id}: {status['state']} "
          f"(n_done={result.get('n_done', 0)}, "
          f"run_id={status.get('run_id')})")
    if status["state"] == "failed":
        print(f"goofi: error: {status.get('error')}", file=sys.stderr)
        return 1
    return 0


def _cmd_status(args) -> int:
    import json

    client = _fabric_client(args.url)
    if args.job:
        status = client.status(args.job)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print(f"job:       {status['job_id']}")
        print(f"state:     {status['state']}")
        print(f"tenant:    {status['tenant']}")
        print(f"campaign:  {status['campaign_name']} "
              f"({status['n_experiments']} experiments)")
        print(f"workers:   {status['allocated_workers']}"
              f"/{status['n_workers']} requested")
        progress = status.get("progress")
        if progress:
            eta = progress.get("eta_seconds")
            print(f"progress:  {progress['n_done']}/{progress['n_total']} "
                  f"({progress['percent_done']:.1f}%), "
                  f"eta {'-' if eta is None else f'{eta:.1f}s'}")
            analysis = progress.get("analysis")
            if analysis and "ci_half_width" in analysis:
                rows = analysis.get("rows_processed")
                print(f"analysis:  CI half-width "
                      f"{analysis['ci_half_width']:.4f} over "
                      f"{int(rows) if rows is not None else '?'} rows")
        if status.get("error"):
            print(f"error:     {status['error']}")
        return 0
    info = client.info()
    jobs = client.jobs()
    if args.json:
        print(json.dumps({"info": info, "jobs": jobs}, indent=2,
                         sort_keys=True))
        return 0
    fleet = info["fleet"]
    print(f"service:   {info['service']} (db={info['db_path']})")
    print(f"fleet:     {fleet['busy_workers']}/{fleet['total_workers']} "
          f"workers busy, queue depth {info['queue_depth']}")
    for job in jobs:
        print(f"  {job['job_id']}  {job['state']:10s} "
              f"p{job['priority']:<3d} {job['tenant']:12s} "
              f"{job['campaign_name']}")
    return 0


def _cmd_results(args) -> int:
    import json

    client = _fabric_client(args.url)
    payload = client.results(args.job)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(payload['rows'])} rows to {args.output}")
    return 0


def _cmd_faultspace(args) -> int:
    from repro.analysis.faultspace import campaign_fault_space

    with GoofiDatabase(args.db) as db:
        campaign = db.load_campaign(args.campaign)
        target = create_target(campaign.target_name)
        target.read_campaign_data(campaign)
        try:
            reference = db.load_reference(args.campaign)
            duration = reference.duration_cycles
            source = "stored reference run"
        except ReproError:
            reference = target.make_reference_run()
            duration = reference.duration_cycles
            source = "fresh reference run"
        space = campaign_fault_space(
            campaign, target.location_space(), duration
        )
        print(f"campaign:    {campaign.campaign_name}")
        print(f"fault space: {space.describe(campaign.n_experiments)}")
        print(f"duration:    {duration} cycles ({source})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "targets":
            for name in available_targets():
                print(name)
            return 0
        if args.command == "workloads":
            names = None
            if args.target:
                names = create_target(args.target).available_workloads()
            if names is None:
                names = available_workloads()
            for name in names:
                print(name)
            return 0
        if args.command == "techniques":
            for name in available_techniques():
                print(name)
            return 0
        if args.command == "configure":
            return _cmd_configure(args)
        if args.command == "tree":
            return _cmd_tree(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "merge":
            with GoofiDatabase(args.db) as db:
                window = CampaignSetupWindow(db)
                merged = window.merge(args.sources, args.into)
                print(f"merged {args.sources} into {merged.campaign_name!r} "
                      f"({merged.n_experiments} experiments)")
            return 0
        if args.command == "campaigns":
            with GoofiDatabase(args.db) as db:
                for name in db.list_campaigns():
                    print(name)
            return 0
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "rerun":
            return _cmd_rerun(args)
        if args.command == "gen-analysis":
            return _cmd_gen_analysis(args)
        if args.command == "port-skeleton":
            print(generate_port_skeleton(args.name, args.techniques))
            return 0
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "plan":
            from repro.analysis.faultspace import required_experiments

            n = required_experiments(
                args.proportion, args.half_width, args.confidence
            )
            print(
                f"{n} experiments give a +-{args.half_width:.0%} interval "
                f"at {args.confidence:.0%} confidence "
                f"(expected proportion {args.proportion:.2f})"
            )
            return 0
        if args.command == "propagate":
            return _cmd_propagate(args)
        if args.command == "faultspace":
            return _cmd_faultspace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "results":
            return _cmd_results(args)
        if args.command == "preview":
            with GoofiDatabase(args.db) as db:
                campaign = db.load_campaign(args.campaign)
                target = create_target(campaign.target_name)
                previews = target.preview_fault_list(campaign, args.count)
                print(f"{'exp':>5s} {'cycle':>8s} {'op':>7s}  location")
                for preview in previews:
                    for action in preview["actions"]:
                        for location in action["locations"]:
                            print(
                                f"{preview['index']:>5d} "
                                f"{action['time']:>8d} "
                                f"{action['op']:>7s}  {location}"
                            )
            return 0
        raise AssertionError(args.command)  # pragma: no cover
    except ReproError as exc:
        print(f"goofi: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
