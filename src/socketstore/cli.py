"""Command-line surface: Specialist and Developer workflows against a
file-backed store, a wire-protocol server, and the experiment runner.

Store state lives in one human-diffable JSON file; point at it with
--data or the SOCKETSTORE_DATA environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures
from .dsa import DsaError
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    config_from_file,
    run_experiment,
    write_plot,
    write_report,
)
from .moduledef import IllegalTransition, manifest_from_doc
from .netsim import LatencyInjection, NetsimError, Simulator
from .store import BASELINE_MODULE_ID, SocketStore, StoreError

DATA_ENV_VAR = "SOCKETSTORE_DATA"
DEFAULT_DATA = "socketstore-data.json"


def _data_path(args) -> str:
    return args.data or os.environ.get(DATA_ENV_VAR) or DEFAULT_DATA


def _open_store(args) -> SocketStore:
    return SocketStore(data_path=_data_path(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socketstore",
        description="Marketplace for reusable network-logic modules over a simulated SDN.",
    )
    parser.add_argument("--data", help="store state file (default: $SOCKETSTORE_DATA)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register-specialist", help="register a module author")
    p.add_argument("specialist_id")

    p = sub.add_parser("submit", help="submit a module directory (manifest.json + nsd.xml)")
    p.add_argument("module_dir")

    p = sub.add_parser("review", help="move a module through review")
    p.add_argument("module_id")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--start", action="store_true", help="claim the module for review")
    group.add_argument("--accept", action="store_true", help="accept: publish the module")
    group.add_argument("--revise", action="store_true", help="request a revision")
    p.add_argument("--reviewer", default="review-board")

    p = sub.add_parser("publish", help="fast path: start review and accept in one step")
    p.add_argument("module_id")
    p.add_argument("--reviewer", default="review-board")

    p = sub.add_parser("resubmit", help="resubmit a revised module directory")
    p.add_argument("module_id")
    p.add_argument("module_dir")

    p = sub.add_parser("retire", help="retire a published module")
    p.add_argument("module_id")

    p = sub.add_parser("search", help="search published modules")
    p.add_argument("query", nargs="?", default="")

    p = sub.add_parser("purchase", help="purchase a license; prints the token")
    p.add_argument("--app", required=True)
    p.add_argument("--module", required=True)

    p = sub.add_parser("authorize", help="check a token against a module")
    p.add_argument("--token", required=True)
    p.add_argument("--module", required=True)

    p = sub.add_parser("eval", help="run a registered testbed scenario")
    p.add_argument("--module", required=True, help=f"module id or '{BASELINE_MODULE_ID}'")
    p.add_argument("--scenario", default="latency-spike")

    p = sub.add_parser("log", help="read the action log")
    p.add_argument("--actor")
    p.add_argument("--action")
    p.add_argument("--since", type=float)
    p.add_argument("--until", type=float)

    p = sub.add_parser("serve", help="serve the store over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7654)
    p.add_argument("--topology", help="topology file backing instantiation")

    p = sub.add_parser("init-fixtures", help="write the example module and topology files")
    p.add_argument("--out", default="fixtures")

    p = sub.add_parser("run-experiment", help="reproduce the latency-spike evaluation")
    p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
    p.add_argument("--module", help=f"module id or '{BASELINE_MODULE_ID}'")
    p.add_argument("--topology", dest="topology_path")
    p.add_argument("--packets", type=int, dest="packet_count")
    p.add_argument("--gap", type=float, dest="gap_ms")
    p.add_argument("--deadline", type=float, dest="deadline_ms")
    p.add_argument("--inject", help="LINK:EXTRA_MS:START_MS:END_MS")
    p.add_argument("--k", type=int)
    p.add_argument("--rate", type=float, dest="rate_mbps")
    p.add_argument("--out", dest="output_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-purchase", action="store_true",
                   help="skip the purchase so the DSA exercises its fallback")
    p.add_argument("--use-data", action="store_true",
                   help="run against the persisted store instead of bootstrapping")
    p.add_argument("--plot", action="store_true", help="also write a PNG plot")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # each command's handler is named after it: cmd_run_experiment for run-experiment
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (StoreError, IllegalTransition, ExperimentError, NetsimError, DsaError,
            OSError, ValueError, RecursionError) as exc:  # a file nested too deep to decode
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_register_specialist(args) -> int:
    store = _open_store(args)
    store.register_specialist(args.specialist_id)
    print(f"registered specialist {args.specialist_id}")
    return 0


def _load_manifest_dir(store: SocketStore, module_dir: str):
    manifest_path = os.path.join(module_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    nsd_path = os.path.join(module_dir, "nsd.xml")
    if isinstance(doc, dict) and os.path.exists(nsd_path):
        with open(nsd_path, "r", encoding="utf-8") as fh:
            doc["nsd"] = fh.read()
    return manifest_from_doc(doc, store.library)


def cmd_submit(args) -> int:
    store = _open_store(args)
    manifest = _load_manifest_dir(store, args.module_dir)
    module_id = store.submit_module(manifest)
    print(f"submitted {module_id} (state: submitted)")
    return 0


def cmd_review(args) -> int:
    store = _open_store(args)
    if args.start:
        state = store.start_review(args.module_id, args.reviewer)
    elif args.accept:
        state = store.review_decision(args.module_id, "accept", args.reviewer)
    else:
        state = store.review_decision(args.module_id, "revise", args.reviewer)
    print(f"{args.module_id}: {state.value}")
    return 0


def cmd_publish(args) -> int:
    store = _open_store(args)
    store.start_review(args.module_id, args.reviewer)
    state = store.review_decision(args.module_id, "accept", args.reviewer)
    print(f"{args.module_id}: {state.value}")
    return 0


def cmd_resubmit(args) -> int:
    store = _open_store(args)
    manifest = _load_manifest_dir(store, args.module_dir)
    state = store.resubmit_revision(args.module_id, manifest)
    print(f"{args.module_id}: {state.value} (version {manifest.version})")
    return 0


def cmd_retire(args) -> int:
    store = _open_store(args)
    state = store.retire_module(args.module_id)
    print(f"{args.module_id}: {state.value}")
    return 0


def cmd_search(args) -> int:
    store = _open_store(args)
    results = store.search_modules(args.query)
    if not results:
        print("no published modules match")
        return 0
    for r in results:
        aggregate = "unrated" if r.aggregate is None else f"{r.aggregate:.4f}"
        print(f"{r.module_id}\tv{r.version}\t{r.metric_id}={aggregate}\tprice={r.price}")
    return 0


def cmd_purchase(args) -> int:
    store = _open_store(args)
    license = store.purchase(args.app, args.module)
    print(license.token)
    return 0


def cmd_authorize(args) -> int:
    store = _open_store(args)
    print("allow" if store.authorize(args.token, args.module) else "deny")
    return 0


def cmd_eval(args) -> int:
    store = _open_store(args)
    samples = store.run_testbed_evaluation(args.module, args.scenario)
    for s in samples:
        value = "absent" if s.value is None else f"{s.value:.6f}"
        print(f"{s.module_id}\t{s.metric_id}\t{value}\tsource={s.source}")
    return 0


def cmd_log(args) -> int:
    store = _open_store(args)
    entries = store.read_log(actor=args.actor, action=args.action,
                             since_ms=args.since, until_ms=args.until)
    for e in entries:
        detail = json.dumps(e.detail, sort_keys=True) if e.detail else ""
        print(f"{e.ts_ms:.3f}\t{e.actor}\t{e.action}\t{e.outcome}\t{detail}")
    return 0


def cmd_serve(args) -> int:
    from .wire import StoreServer

    store = _open_store(args)
    store.attach_network(Simulator(fixtures.load_topology(args.topology)))
    server = StoreServer(store, args.host, args.port)
    host, port = server.address
    print(f"store listening on {host}:{port} (data: {_data_path(args)})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def cmd_init_fixtures(args) -> int:
    for path in fixtures.write_fixture_tree(args.out):
        print(path)
    return 0


def cmd_run_experiment(args) -> int:
    # the options named after a config field, as given, set over the config file's fields
    overrides = {name: value for name, value in vars(args).items()
                 if name in ExperimentConfig.__dataclass_fields__ and value is not None}
    if args.inject:
        try:
            link, extra, start, end = args.inject.split(":")
            overrides["injection"] = vars(LatencyInjection(link, float(extra), float(start),
                                                           float(end)))
        except ValueError:
            raise ExperimentError("--inject expects LINK:EXTRA_MS:START_MS:END_MS")
    if args.no_purchase:
        overrides["purchase"] = False
    if args.use_data:
        overrides["data_path"] = _data_path(args)
    config = config_from_file(args.config, **overrides)

    report = run_experiment(config)
    prefix = "baseline" if config.module == BASELINE_MODULE_ID else config.module
    paths = write_report(report, config.output_dir, prefix=prefix)
    if args.plot:
        plot_path = os.path.join(config.output_dir, f"{prefix}-latency.png")
        write_plot(paths["csv"], plot_path, config.deadline_ms)
        paths["plot"] = plot_path

    print(f"mode: {report.mode}")
    if report.failure_reason:
        print(f"failure_reason: {report.failure_reason}")
    s = report.stats
    print(f"sent: {s.sent}  delivered: {s.delivered_unique}  losses: {s.losses}  "
          f"violations: {s.deadline_violations}  in_deadline_ratio: {s.in_deadline_ratio:.4f}")
    if report.cost is not None:
        print(f"cost: raw_total={report.cost.raw_total:.6f} "
              f"weighted_total={report.cost.weighted_total:.6f}")
    for kind, path in sorted(paths.items()):
        print(f"{kind}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
