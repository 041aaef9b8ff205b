"""Command-line entry point.

Subcommands:
    train    run the config's optimizer over all seeds: a compare of one
    compare  run every optimizer in the config's sweep over the same seeds,
             each seed's runs in lockstep
    probe    sharpness report for a saved checkpoint (JSON to stdout)
    slice    loss-plane grid around a saved checkpoint

Each handler checks its output directory before any compute and writes
through `samlab.outputs`.
"""

import argparse
import os
import sys

from . import harness, outputs
from .errors import SamLabError


def _parse_seeds(text):
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SamLabError(f"--seeds expects comma-separated integers, got {text!r}")


def _load(args) -> harness.ExperimentConfig:
    raw = harness.load_config(args.config)
    return harness.parse_config(raw, seeds_override=_parse_seeds(args.seeds),
                                out_override=args.out)


def _require_out(config) -> str:
    if config.out_dir is None:
        raise SamLabError("no output directory (config 'out_dir' or --out)")
    return config.out_dir


def _print_wrote(path) -> None:
    """Print `wrote <path>` with the path's own bytes. A path from argv keeps
    each byte it cannot decode as a surrogate escape, which a strict UTF-8
    stdout cannot encode; `os.fsencode` gives the byte back."""
    sys.stdout.flush()
    sys.stdout.buffer.write(b"wrote " + os.fsencode(path) + b"\n")
    sys.stdout.buffer.flush()


def _print_suite(suite) -> None:
    entry = outputs.summary(suite)

    def fmt(name):
        metric = entry["metrics"][name]
        if metric["mean"] is None:
            return "n/a"
        if metric["std"] is None:
            return f"{metric['mean']:.4f}"
        return f"{metric['mean']:.4f} +/- {metric['std']:.4f}"

    print(f"{entry['optimizer']}: seeds={entry['seed_count']} failed={entry['failed_count']} "
          f"test_acc={fmt('test_accuracy')} sharpness_x1e3={fmt('standardized_sharpness_x1e3')}")
    for failure in suite.failures:
        print(f"  seed {failure.seed} failed: {failure.error}", file=sys.stderr)


def cmd_compare(args) -> int:
    """`compare` the config's `optimizers` list, or `train` its one
    optimizer as a compare of one: the two differ only in the sweep."""
    if args.jobs < 1:
        raise SamLabError(f"--jobs must be >= 1, got {args.jobs}")
    config = _load(args)
    out_dir = _require_out(config)
    sweep = (config.optimizer,) if args.command == "train" else config.optimizer_sweep
    if not sweep:
        raise SamLabError("compare needs an 'optimizers' list in the config")
    harness.require_trainable(config)
    outputs.prepare_out_dir(out_dir, checkpoints=True)
    suites = harness.compare_optimizers(config, sweep, jobs=args.jobs)
    outputs.emit_outputs(out_dir, suites)
    for suite in suites:
        _print_suite(suite)
    _print_wrote(f"{out_dir}/runs.csv")
    return 0 if all(not s.failures for s in suites) else 1


def cmd_probe(args) -> int:
    config = _load(args)
    if config.out_dir is not None:
        outputs.prepare_out_dir(config.out_dir)
    report = harness.probe_checkpoint(args.checkpoint, config)
    print(outputs.probe_report_json(report), end="")
    if config.out_dir is not None:
        path = outputs.emit_probe_report(config.out_dir, report)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_slice(args) -> int:
    config = _load(args)
    out_dir = _require_out(config)
    outputs.prepare_out_dir(out_dir)
    slice_cfg, alphas, betas, losses = harness.slice_checkpoint(args.checkpoint, config)
    _print_wrote(outputs.emit_slice(out_dir, slice_cfg.name, alphas, betas, losses))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samlab",
        description="Train small models with sharpness-aware optimizers and "
                    "measure the flatness of what they find.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seeds", help="comma-separated seeds, overrides the config")
        p.add_argument("--out", help="output directory, overrides the config")
        if checkpoint:
            p.add_argument("--checkpoint", required=True,
                           help="path to a saved checkpoint")
        else:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes: each seed's runs go to one "
                                "worker of a pool, at most one worker per seed")

    common(sub.add_parser("train", help="train one optimizer over all seeds"))
    common(sub.add_parser("compare", help="sweep the config's optimizer list"))
    common(sub.add_parser("probe", help="sharpness report for a checkpoint"),
           checkpoint=True)
    common(sub.add_parser("slice", help="loss-plane grid around a checkpoint"),
           checkpoint=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"train": cmd_compare, "compare": cmd_compare,
                "probe": cmd_probe, "slice": cmd_slice}
    try:
        return handlers[args.command](args)
    except SamLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
