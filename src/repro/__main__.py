"""``python -m repro`` — the repo's command-line front door.

Thin argparse over the experiment engine and the existing entry points:

* ``run``          — one Table 3 experiment end to end (+ tables): the
  one-seed front of the sweep engine, so ``--store`` names a sweep
  artifact store (its shards can be resumed by ``sweep`` and served by
  ``serve --artifact-store``) and ``--workers N`` runs the shards on a
  pool of N processes; shard ids are the keys, so there is no ``--key``
* ``sweep``        — a seeds × strategies × windows × costs × execution
  × risk grid on the sharded engine, with checkpoint/resume into an
  artifact store
* ``walkforward``  — rolling train/test evaluation with per-fold and
  per-regime aggregate tables
* ``serve``        — the HTTP portfolio service (demo market, a saved
  service checkpoint, or a strategy out of a sweep artifact store)
* ``obs``          — observability utilities (``obs summarize`` renders
  a JSONL event log as tables)

``run``/``sweep``/``walkforward``/``serve`` accept ``--obs-dir`` (arm
the observability layer, events land in ``<dir>/events.jsonl``) and
``--obs-level`` (event threshold, default ``info``).

Every subcommand is deliberately a few lines of wiring — the behaviour
lives in the library so tests (and users) can drive it directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="standard", help="config profile (paper/standard/quick)"
    )
    parser.add_argument(
        "--train-steps", type=int, default=None, help="override profile train steps"
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, help="override profile batch size"
    )


def _overrides(args: argparse.Namespace) -> dict:
    out = {}
    if args.train_steps is not None:
        out["train_steps"] = args.train_steps
    if getattr(args, "batch_size", None) is not None:
        out["batch_size"] = args.batch_size
    return out


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-dir", default=None,
        help="arm the observability layer; structured events append to "
        "<dir>/events.jsonl and a metrics snapshot lands there on exit "
        "(default: observability off, bit-identical hot paths)",
    )
    parser.add_argument(
        "--obs-level", default="info",
        choices=("debug", "info", "warn", "error"),
        help="event-log threshold when --obs-dir is set (default: info)",
    )


def _configure_obs(args: argparse.Namespace):
    """Install the global obs handle for this command, or leave the
    null object in place when ``--obs-dir`` was not given."""
    if getattr(args, "obs_dir", None) is None:
        return None
    from .obs import configure

    Path(args.obs_dir).mkdir(parents=True, exist_ok=True)
    return configure(args.obs_dir, level=args.obs_level)


def _finish_obs(obs, args: argparse.Namespace) -> None:
    """Write the final metrics snapshot next to the event log."""
    if obs is None:
        return
    import json

    from .obs import set_obs

    path = Path(args.obs_dir) / "snapshot.json"
    path.write_text(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
    obs.close()
    set_obs(None)  # a closed handle must not stay installed
    print(f"obs: events in {Path(args.obs_dir) / 'events.jsonl'}, "
          f"snapshot in {path}")


# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import (
        TABLE3_STRATEGIES,
        make_config,
        render_table3,
        render_table4,
        run_experiment,
        run_power_comparison,
        summarize_shape_check,
    )

    obs = _configure_obs(args)
    config = make_config(args.experiment, args.profile, **_overrides(args))
    result = run_experiment(
        config,
        strategies=("sdp", "jiang") if args.no_baselines else TABLE3_STRATEGIES,
        store=args.store,
        workers=args.workers,
        obs_dir=args.obs_dir,
        obs_level=args.obs_level,
    )
    print(render_table3(result))
    for line in summarize_shape_check(result):
        print(line)
    if args.power:
        print(render_table4(run_power_comparison(result)))
    if args.store is not None:
        print(f"shards committed to {args.store}")
    _finish_obs(obs, args)
    return 0


def _parse_costs(specs: Sequence[str]) -> Tuple:
    from .experiments import CostRegime, DEFAULT_COST_REGIMES

    if not specs:
        return DEFAULT_COST_REGIMES
    regimes = []
    for item in specs:
        if "=" not in item:
            raise SystemExit(
                f"--costs entries look like name=rate (got {item!r})"
            )
        name, rate = item.split("=", 1)
        regimes.append(CostRegime(name, float(rate)))
    return tuple(regimes)


def _parse_execution_spec(item: str, name: str = None):
    """``model[:coef[:cap[:notional]]]`` → :class:`ExecutionRegime`."""
    from .experiments import ExecutionRegime

    parts = item.split(":")
    model = parts[0]
    kwargs = {}
    try:
        if len(parts) > 1:
            kwargs["impact_coef"] = float(parts[1])
        if len(parts) > 2:
            kwargs["max_participation"] = float(parts[2])
        if len(parts) > 3:
            kwargs["portfolio_notional"] = float(parts[3])
    except ValueError:
        raise SystemExit(
            f"execution specs look like model[:coef[:cap[:notional]]] "
            f"(got {item!r})"
        ) from None
    if len(parts) > 4:
        raise SystemExit(
            f"execution specs look like model[:coef[:cap[:notional]]] "
            f"(got {item!r})"
        )
    try:
        return ExecutionRegime(name if name is not None else model, model, **kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _parse_executions(specs: Sequence[str]) -> Tuple:
    from .experiments import DEFAULT_EXECUTION_REGIMES

    if not specs:
        return DEFAULT_EXECUTION_REGIMES
    regimes = []
    for item in specs:
        if "=" not in item:
            raise SystemExit(
                f"--executions entries look like "
                f"name=model[:coef[:cap[:notional]]] (got {item!r})"
            )
        name, rest = item.split("=", 1)
        regimes.append(_parse_execution_spec(rest, name))
    return tuple(regimes)


def _parse_risk_spec(item: str, name: str = None):
    """``preset`` (none|caps|turnover|lockout|tight) → :class:`RiskRegime`."""
    from .experiments import RiskRegime

    try:
        return RiskRegime(name if name is not None else item, item)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _parse_risks(specs: Sequence[str]) -> Tuple:
    from .experiments import DEFAULT_RISK_REGIMES

    if not specs:
        return DEFAULT_RISK_REGIMES
    regimes = []
    for item in specs:
        if "=" in item:
            name, rest = item.split("=", 1)
            regimes.append(_parse_risk_spec(rest, name))
        else:
            regimes.append(_parse_risk_spec(item))
    return tuple(regimes)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import (
        DEFAULT_SHARD_RETRY,
        ExperimentSpec,
        SweepRunner,
        render_sweep_table,
    )
    from .resilience import FaultPlan, RetryPolicy

    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = FaultPlan.load(args.fault_plan)
    retry = DEFAULT_SHARD_RETRY
    if args.retries is not None or args.retry_base_delay is not None:
        retry = RetryPolicy(
            max_attempts=(
                args.retries if args.retries is not None
                else DEFAULT_SHARD_RETRY.max_attempts
            ),
            base_delay=(
                args.retry_base_delay if args.retry_base_delay is not None
                else DEFAULT_SHARD_RETRY.base_delay
            ),
            multiplier=DEFAULT_SHARD_RETRY.multiplier,
            max_delay=DEFAULT_SHARD_RETRY.max_delay,
            jitter=DEFAULT_SHARD_RETRY.jitter,
        )

    spec = ExperimentSpec(
        name=args.name,
        profile=args.profile,
        experiments=tuple(args.experiments),
        strategies=tuple(args.strategies),
        seeds=tuple(args.seeds),
        cost_regimes=_parse_costs(args.costs),
        execution_regimes=_parse_executions(args.executions),
        risk_regimes=_parse_risks(args.risks),
        overrides=tuple(_overrides(args).items()),
        backend=args.backend,
    )
    obs = _configure_obs(args)
    runner = SweepRunner(
        spec, args.store, max_workers=args.workers,
        retry=retry, fault_plan=fault_plan,
        obs_dir=args.obs_dir, obs_level=args.obs_level,
    )
    result = runner.run(
        parallel=not args.serial,
        max_shards=args.max_shards,
        progress=lambda shard_id, status: print(f"[{status:>7}] {shard_id}"),
    )
    print(
        f"sweep {spec.name!r}: {len(result.ran)} ran, "
        f"{len(result.skipped)} skipped, {len(result.pending)} pending, "
        f"{len(result.quarantined)} quarantined"
    )
    for outcome in result.quarantined:
        print(f"quarantined {outcome.shard_id} after {outcome.attempts} "
              f"attempt(s): {outcome.error}")
    if result.outcomes:
        print(render_sweep_table(result))
    _finish_obs(obs, args)
    return 0 if result.complete else 3


def _cmd_walkforward(args: argparse.Namespace) -> int:
    from .data import MarketGenerator, top_volume_assets, walk_forward_windows
    from .experiments import (
        WalkForwardEvaluator,
        make_config,
        render_regime_table,
        render_walkforward_table,
    )

    obs = _configure_obs(args)
    config = make_config(args.experiment, args.profile, **_overrides(args))
    start = args.start or config.window.train_start
    end = args.end or config.window.test_end
    folds = walk_forward_windows(
        start, end, args.train_days, args.test_days, args.step_days,
        anchored=args.anchored,
    )
    generator = MarketGenerator(seed=config.market_seed)
    full = generator.generate(start, end, config.period_seconds)
    # Universe as of the first hold-out start — no look-ahead into any
    # fold's test span.
    assets = top_volume_assets(full, folds[0].test_start, k=config.num_assets)
    panel = full.select_assets(assets)
    execution = None
    if args.execution is not None:
        execution = _parse_execution_spec(args.execution).build_engine(
            config.commission
        )
    risk = None
    if args.risk is not None:
        risk = _parse_risk_spec(args.risk).build_engine()
    evaluator = WalkForwardEvaluator(
        panel,
        folds,
        config,
        strategies=tuple(args.strategies),
        seeds=tuple(args.seeds),
        fine_tune_steps=args.fine_tune_steps,
        execution=execution,
        risk=risk,
    )
    report = evaluator.run()
    print(render_walkforward_table(report))
    print()
    print(render_regime_table(report))
    _finish_obs(obs, args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .data import MarketGenerator, top_volume_assets
    from .experiments import make_config
    from .resilience import FaultPlan
    from .serving import PortfolioService, ServingSupervisor
    from .serving.http import serve

    obs = _configure_obs(args)
    faults = (
        FaultPlan.load(args.fault_plan) if args.fault_plan is not None else None
    )

    def demo_panel():
        config = make_config(1, args.profile)
        generator = MarketGenerator(seed=config.market_seed)
        panel = generator.generate(
            config.window.train_start, config.window.test_end,
            config.period_seconds,
        )
        assets = top_volume_assets(
            panel, config.window.test_start, k=config.num_assets
        )
        return panel.select_assets(assets)

    supervisor = None
    if args.workers is not None:
        # Supervised multi-worker tier: sessions persist in --state-dir
        # (one journal append per batch) and survive worker crashes and
        # restarts.
        if args.state_dir is None:
            raise SystemExit("--workers requires --state-dir (the session store)")
        if args.checkpoint is not None or args.artifact_store is not None:
            raise SystemExit(
                "--workers serves from --state-dir; --checkpoint/"
                "--artifact-store apply to the in-process mode only"
            )
        supervisor = ServingSupervisor(
            args.state_dir, workers=args.workers, faults=faults
        )
        if "default" not in supervisor.market_names():
            supervisor.register_market("default", demo_panel())
        front = supervisor
    elif args.checkpoint is not None:
        front = PortfolioService.load_checkpoint(args.checkpoint, faults=faults)
    else:
        service = PortfolioService(faults=faults)
        service.register_market("default", demo_panel())
        if args.artifact_store is not None and args.shard is not None:
            service.create_session_from_artifact(
                "artifact", args.artifact_store, args.shard, market="default"
            )
        front = service
    server = serve(front, host=args.host, port=args.port)
    host, port = server.server_address[:2]

    # Graceful drain: SIGTERM/SIGINT stop the accept loop (from a helper
    # thread — server.shutdown() deadlocks when called from the thread
    # running serve_forever), then in-flight work flushes and state is
    # checkpointed before exit, instead of dying mid-batch.
    stopping = threading.Event()

    def _graceful(signum, frame):
        if stopping.is_set():
            return
        stopping.set()
        print(f"received signal {signum}; draining...", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    mode = (
        f"{args.workers} supervised workers" if supervisor is not None
        else "in-process"
    )
    print(f"serving on http://{host}:{port} ({mode}; SIGTERM/Ctrl-C drains)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    if supervisor is not None:
        report = supervisor.drain()
        print(
            f"drained: {report['sessions_checkpointed']} sessions "
            f"checkpointed across {len(report['workers'])} workers "
            f"(exit codes {[w['exit_code'] for w in report['workers']]}); "
            f"checkpoint: {report['checkpoint']}"
        )
    elif args.state_dir is not None:
        # In-process mode still honours --state-dir as "where the final
        # checkpoint goes" on shutdown.
        path = front.save_checkpoint(Path(args.state_dir) / "final")
        print(f"final checkpoint saved to {path}")
    _finish_obs(obs, args)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import summarize_events

    if args.obs_command == "summarize":
        print(summarize_events(args.events, level=args.level, kind=args.kind))
        return 0
    raise SystemExit(f"unknown obs subcommand {args.obs_command!r}")


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one Table 3 experiment end to end")
    p_run.add_argument("--experiment", type=int, default=1, choices=(1, 2, 3))
    _add_overrides(p_run)
    p_run.add_argument(
        "--no-baselines", action="store_true",
        help="run only SDP and DRL[Jiang], not the classical strategies",
    )
    p_run.add_argument("--power", action="store_true", help="also print Table 4")
    p_run.add_argument(
        "--store", default=None,
        help="sweep artifact store to run the shards into; committed "
        "shards there are reused (default: a temporary directory)",
    )
    p_run.add_argument(
        "--workers", type=int, default=None,
        help="run the shards on a process pool of N workers "
        "(default: serially, in this process)",
    )
    _add_obs(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sharded multi-seed sweep")
    p_sweep.add_argument("--store", required=True, help="artifact store root")
    p_sweep.add_argument("--name", default="sweep")
    _add_overrides(p_sweep)
    p_sweep.add_argument("--experiments", type=int, nargs="+", default=[1])
    p_sweep.add_argument("--strategies", nargs="+", default=["sdp", "jiang"])
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[7])
    p_sweep.add_argument(
        "--costs", nargs="+", default=[],
        help="cost regimes as name=rate (default: paper=0.0025)",
    )
    p_sweep.add_argument(
        "--executions", nargs="+", default=[],
        help="execution regimes as name=model[:coef[:cap[:notional]]], "
        "model one of zero|linear|sqrt|depth (default: ideal=zero)",
    )
    p_sweep.add_argument(
        "--risks", nargs="+", default=[],
        help="risk regimes as [name=]preset, preset one of "
        "none|caps|turnover|lockout|tight (default: none)",
    )
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--serial", action="store_true", help="no process pool")
    p_sweep.add_argument(
        "--max-shards", type=int, default=None,
        help="run at most N pending shards (resume later)",
    )
    p_sweep.add_argument(
        "--fault-plan", default=None,
        help="JSON fault plan (repro.resilience.FaultPlan) arming "
        "deterministic chaos seams for this sweep",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=None,
        help="per-shard attempts before quarantine (default: 3)",
    )
    p_sweep.add_argument(
        "--retry-base-delay", type=float, default=None,
        help="backoff before the first per-shard retry, seconds",
    )
    p_sweep.add_argument(
        "--backend", default=None, choices=("reference", "fast"),
        help="numeric backend the learned shards train on (default: "
        "reference, the bit-identical float64 tier; fast = float32 "
        "tapes, tolerance-level deviations, SDP only: other strategies "
        "keep reference)",
    )
    _add_obs(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_wf = sub.add_parser("walkforward", help="rolling-window evaluation")
    p_wf.add_argument("--experiment", type=int, default=1, choices=(1, 2, 3))
    _add_overrides(p_wf)
    p_wf.add_argument("--start", default=None, help="span start (default: window)")
    p_wf.add_argument("--end", default=None, help="span end (default: window)")
    p_wf.add_argument("--train-days", type=int, default=365)
    p_wf.add_argument("--test-days", type=int, default=90)
    p_wf.add_argument("--step-days", type=int, default=0)
    p_wf.add_argument("--anchored", action="store_true")
    p_wf.add_argument("--strategies", nargs="+", default=["sdp", "jiang", "ucrp"])
    p_wf.add_argument("--seeds", type=int, nargs="+", default=[7])
    p_wf.add_argument("--fine-tune-steps", type=int, default=0)
    p_wf.add_argument(
        "--execution", default=None,
        help="execution regime as model[:coef[:cap[:notional]]] "
        "(zero|linear|sqrt|depth; default: ideal fills)",
    )
    p_wf.add_argument(
        "--risk", default=None,
        help="risk regime preset (none|caps|turnover|lockout|tight; "
        "default: unconstrained)",
    )
    _add_obs(p_wf)
    p_wf.set_defaults(func=_cmd_walkforward)

    p_serve = sub.add_parser("serve", help="HTTP portfolio service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000)
    p_serve.add_argument("--profile", default="standard")
    p_serve.add_argument(
        "--checkpoint", default=None, help="service checkpoint directory"
    )
    p_serve.add_argument(
        "--artifact-store", default=None,
        help="sweep artifact store to load a strategy from",
    )
    p_serve.add_argument("--shard", default=None, help="shard id in the store")
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="run the supervised multi-worker tier with N worker "
        "processes (requires --state-dir; default: in-process)",
    )
    p_serve.add_argument(
        "--state-dir", default=None,
        help="session state store root (supervised mode: journaled "
        "persistence + crash failover; in-process mode: where the final "
        "checkpoint lands on shutdown)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None,
        help="JSON fault plan (repro.resilience.FaultPlan) arming the "
        "serving chaos seams, including supervised worker crashes",
    )
    _add_obs(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_summ = obs_sub.add_parser(
        "summarize", help="render a JSONL event log as tables"
    )
    p_summ.add_argument("events", help="path to an events.jsonl file")
    p_summ.add_argument(
        "--level", default=None,
        choices=("debug", "info", "warn", "error"),
        help="only count events at or above this level",
    )
    p_summ.add_argument(
        "--kind", default=None, help="only count events of this kind"
    )
    p_obs.set_defaults(func=_cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
