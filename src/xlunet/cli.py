"""Command-line entry points.

Subcommands: gen-data, train, predict, eval, gradcheck.  Exit codes: 0 on
success, 1 on runtime failure (bad data, aborted training, failed checks),
2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .data import XtenError, generate_dataset, read_xten, write_xten
from .gradcheck import corrupted_backward, run_checks
from .metrics import METRIC_NAMES
from .tensor import ContractError, NumericsError
from .train import (
    load_checkpoint,
    load_run_config,
    predict_volume,
    restore_network,
    run_config_from_dict,
    run_eval,
    run_training,
)

__all__ = ["main"]


def _cmd_gen_data(args) -> int:
    size = tuple(args.size)
    if len(size) == 1:
        size = size * args.dims
    if len(size) != args.dims:
        raise ContractError(
            f"--size needs 1 or {args.dims} values for --dims {args.dims}, got {len(size)}"
        )
    info = generate_dataset(
        args.out,
        num_cases=args.cases,
        classes=args.classes,
        dims=args.dims,
        size=size,
        seed=args.seed,
    )
    print(f"wrote {len(info.cases)} case(s) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    # on resume, run_training checks the config against the checkpoint's
    if args.config is not None:
        cfg = load_run_config(args.config)
    elif args.resume is not None:
        cfg = run_config_from_dict(load_checkpoint(args.resume)["config"])
    else:
        raise ContractError("train: --config is required unless --resume is given")
    result = run_training(
        cfg, args.data, args.out, resume_from=args.resume, log=print
    )
    print(
        f"done: {result.epochs_completed} epoch(s), {result.global_step} step(s),"
        f" best loss {result.best_loss:.4f}"
        + (" (stopped early)" if result.stopped_early else "")
    )
    return 0


def _cmd_predict(args) -> int:
    manifest = load_checkpoint(args.ckpt)
    net, _ = restore_network(manifest)
    in_path = Path(args.input)
    out_path = Path(args.out)
    if in_path.is_dir():
        files = sorted(in_path.glob("*.xten"))
        if not files:
            raise ContractError(f"{in_path}: no .xten files to predict")
        out_path.mkdir(parents=True, exist_ok=True)
        for f in files:
            labels = predict_volume(net, read_xten(f), tile=args.tile)
            write_xten(out_path / f.name, labels)
        print(f"wrote {len(files)} prediction(s) to {out_path}")
    else:
        labels = predict_volume(net, read_xten(in_path), tile=args.tile)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_xten(out_path, labels)
        print(f"wrote {out_path}")
    return 0


def _cmd_eval(args) -> int:
    metrics = tuple(m.strip() for m in args.metrics.split(",")) if args.metrics else METRIC_NAMES
    code = run_eval(
        args.pred,
        args.gt,
        args.out,
        metrics=metrics,
        tolerance=args.tau,
        iou_threshold=args.iou,
    )
    print(f"wrote {args.out}")
    return code


def _cmd_gradcheck(args) -> int:
    with corrupted_backward() if args.corrupt else nullcontext():
        results = run_checks(module=args.module, seed=args.seed)
    for r in results:
        print(r.line())
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlunet",
        description="Sequence-augmented U-Net segmentation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic blob dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--cases", type=int, default=8)
    p.add_argument("--classes", type=int, default=3, help="total classes incl. background")
    p.add_argument("--dims", type=int, choices=(2, 3), default=2)
    p.add_argument(
        "--size", type=int, nargs="+", default=[64],
        help="spatial extent: one value for all axes or one per axis",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a network on a dataset")
    p.add_argument("--config", help="run-config JSON file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--resume", help="checkpoint directory to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="segment volumes with a trained checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--input", required=True, help=".xten image file or directory of them")
    p.add_argument("--out", required=True, help="output label file or directory")
    p.add_argument(
        "--tile", action="store_true",
        help="sliding-window inference for sizes the network cannot take whole",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against reference labels")
    p.add_argument("--pred", required=True, help="directory of predicted .xten labels")
    p.add_argument("--gt", required=True, help="directory of reference .xten labels")
    p.add_argument("--out", required=True, help="per-case JSONL report path (CSV written beside)")
    p.add_argument("--metrics", help=f"comma-separated subset of {','.join(METRIC_NAMES)}")
    p.add_argument("--tau", type=float, default=1.0, help="surface-dice tolerance in voxels")
    p.add_argument("--iou", type=float, default=0.5, help="instance-match IoU threshold")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the autodiff engine")
    p.add_argument("--module", help="restrict to one module group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--corrupt", action="store_true",
        help="inject a deliberate backward-pass fault (checks must fail)",
    )
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ContractError is a ValueError and GraphError a RuntimeError
    except (NumericsError, XtenError, RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
