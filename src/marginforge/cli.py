"""Command-line operator surface.

Commands: ``gen-data``, ``train``, ``eval``, ``inspect-margins``, ``sweep``.
Every run writes its fully resolved config beside its outputs; nothing ever
mutates an input dataset directory.
"""

import argparse
import copy
import csv
import itertools
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .data import generate, load_dataset, split_sizes, write_dataset
from .errors import ConfigError, IndexOutOfRangeError, MarginForgeError
from .evaluation import write_metrics_csv
from .experts import EXPERT_KINDS, pairwise_distances
from .margin import rescale_margins
from .model import forward_batch, load_checkpoint
from .trainer import epoch_batches, evaluate_split, expert_units, run_training, sse_unit_tables


def _load_config(path: str | None) -> cfgmod.RunConfig:
    return cfgmod.parse_config(path) if path else cfgmod.RunConfig()


def _resolve_data_dir(cfg: cfgmod.RunConfig, flag: str | None) -> Path:
    return Path(cfgmod.require(flag or cfg.data_dir, "paths.data_dir"))


def _resolve_out_dir(cfg: cfgmod.RunConfig, flag: str | None) -> Path:
    out = Path(cfgmod.require(flag or cfg.out_dir, "paths.out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.data.seed = args.seed
    out = _resolve_out_dir(cfg, args.out)
    dataset = generate(cfg.data)
    write_dataset(dataset, out)
    cfgmod.write_resolved(cfg, out)
    print(
        f"wrote {len(dataset)} items ({len(dataset.train_ids)} train / "
        f"{len(dataset.val_ids)} val), {cfg.data.n_concepts} concepts, to {out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    dataset = load_dataset(_resolve_data_dir(cfg, args.data))
    out = _resolve_out_dir(cfg, args.out)
    cfgmod.write_resolved(cfg, out)
    _, records = run_training(
        dataset,
        cfg.train,
        cfg.hidden_dim,
        cfg.joint_dim,
        out,
        config_hash=cfgmod.config_hash(cfg),
    )
    if records:
        last = records[-1]
        print(f"epoch {last['epoch']}: loss {last['loss_total']:.6f} rsum {last['rsum']:.2f}")
    print(f"reports and checkpoints in {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    dataset = load_dataset(_resolve_data_dir(cfg, args.data))
    model = load_checkpoint(args.ckpt)
    out = _resolve_out_dir(cfg, args.out)
    cfgmod.write_resolved(cfg, out)
    ids = dataset.val_ids if args.split == "val" else dataset.train_ids
    t2v, v2t, rsum = evaluate_split(model, dataset, ids, ks=cfg.ks)
    write_metrics_csv(out / "metrics.csv", t2v, v2t, rsum)
    for rep in (t2v, v2t):
        recalls = " ".join(f"R@{k}={rep.r_at[k]:.2f}" for k in sorted(rep.r_at))
        print(f"{rep.direction}: {recalls} MdR={rep.mdr:.2f}")
    print(f"rsum={rsum:.4f} -> {out / 'metrics.csv'}")
    return 0


def cmd_inspect_margins(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    dataset = load_dataset(_resolve_data_dir(cfg, args.data))
    model = load_checkpoint(args.ckpt)
    out = _resolve_out_dir(cfg, args.out)
    cfgmod.write_resolved(cfg, out)

    train_rows = dataset.rows(dataset.train_ids)
    batches = epoch_batches(cfg.train.seed, len(train_rows), cfg.train.batch_size, 1)
    if not 0 <= args.batch < len(batches):
        raise IndexOutOfRangeError(
            f"batch {args.batch} is out of range for {len(train_rows)} training items "
            f"at batch_size {cfg.train.batch_size}"
        )
    batch = batches[args.batch]
    rows = train_rows[batch]
    state = forward_batch(model, dataset.pooled_video()[rows], dataset.text[rows])
    units = expert_units(state, sse_unit_tables(dataset, ("sse_video", "sse_text")), batch)
    distances = {kind: pairwise_distances(units[kind]) for kind in EXPERT_KINDS}
    kinds = EXPERT_KINDS if args.expert == "all" else (args.expert,)
    concepts = dataset.concepts[rows]

    target = out / "margins.csv"
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "expert", "distance", "margin", "same_concept"])
        for kind in kinds:
            dist = distances[kind]
            margins = rescale_margins(dist, cfg.train.alpha, cfg.train.beta)
            for i in range(batch.size):
                for j in range(batch.size):
                    if i == j:
                        continue
                    writer.writerow(
                        [
                            i,
                            j,
                            kind,
                            repr(float(dist[i, j])),
                            repr(float(margins[i, j])),
                            int(concepts[i] == concepts[j]),
                        ]
                    )
    print(f"wrote {len(kinds) * batch.size * (batch.size - 1)} rows to {target}")
    return 0


def _parse_param_grid(specs: list[str]) -> list[tuple[str, list[str]]]:
    grid = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--param needs 'key=v1,v2,...', got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key not in cfgmod.KEY_SPECS:
            raise ConfigError(f"--param key {key!r} is not a config key")
        if key in dict(grid):
            raise ConfigError(f"--param key {key!r} is given more than once")
        vals = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise ConfigError(f"--param {key!r} has no values")
        grid.append((key, vals))
    if len(grid) > 3:
        raise ConfigError(f"at most 3 sweep parameters are supported, got {len(grid)}")
    return grid


def _cell_config(base: cfgmod.RunConfig, assignment, seed: int) -> cfgmod.RunConfig:
    """One sweep run's config, checked in full: a value that its key, its
    dataclass, the generated split size or the sweep rejects raises ``ConfigError``."""
    cfg = copy.deepcopy(base)
    for key, raw in assignment:
        cfgmod.apply_key(cfg, key, raw)
    cfg.train.seed = seed
    cfg.data.seed = seed
    cfg.validate()
    cfg.train.validate(split_sizes(cfg.data.n_items)[0])
    if cfg.train.epochs < 1:
        raise ConfigError("sweep needs train.epochs >= 1 to aggregate metrics")
    return cfg


def _sweep_run(cfg: cfgmod.RunConfig, run_dir: Path) -> dict:
    dataset = generate(cfg.data)
    cfgmod.write_resolved(cfg, run_dir)
    _, records = run_training(
        dataset,
        cfg.train,
        cfg.hidden_dim,
        cfg.joint_dim,
        run_dir,
        config_hash=cfgmod.config_hash(cfg),
    )
    last = records[-1]
    return {"rsum": last["rsum"], "t2v_R1": last["t2v_R1"], "v2t_R1": last["v2t_R1"]}


def _mean_std(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std_pop = float(arr.std())
    std_sample = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std_pop, std_sample


def cmd_sweep(args) -> int:
    base = _load_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    if not seeds:
        raise ConfigError("--seeds is empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"--seeds repeats a seed: {args.seeds!r}")
    grid = _parse_param_grid(args.param or [])

    # every run's config is built, and so checked, before the first run starts
    keys = [key for key, _ in grid]
    cells = list(itertools.product(*(vals for _, vals in grid))) if grid else [()]
    tasks = []
    for cell_idx, cell in enumerate(cells):
        for seed in seeds:
            cfg = _cell_config(base, list(zip(keys, cell)), seed)
            tasks.append((cell_idx, cfg, f"cell{cell_idx:03d}/seed{seed}"))
    out = _resolve_out_dir(base, args.out)
    cfgmod.write_resolved(base, out)

    results = [_sweep_run(cfg, out / run_dir) for _, cfg, run_dir in tasks]

    metrics = ("rsum", "t2v_R1", "v2t_R1")
    header = keys + ["n_seeds"]
    for metric in metrics:
        header += [f"{metric}_mean", f"{metric}_std", f"{metric}_std_sample"]
    summary_path = out / "sweep_summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cell_idx, cell in enumerate(cells):
            cell_results = [r for t, r in zip(tasks, results) if t[0] == cell_idx]
            row = list(cell) + [len(seeds)]
            for metric in metrics:
                row += [repr(v) for v in _mean_std([r[metric] for r in cell_results])]
            writer.writerow(row)
    print(f"{len(cells)} cell(s) x {len(seeds)} seed(s) -> {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginforge",
        description="Adaptive-margin triplet training engine for two-tower retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, seed_help=None):
        # no abbreviations: ``sweep --seed 7`` must not pass as ``--seeds 7``
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="path to a key = value config file")
        if seed_help is not None:
            p.add_argument("--seed", type=int, help=seed_help)
        p.add_argument("--out", required=True, help="output directory")
        return p

    p = command("gen-data", "generate a synthetic dataset directory", "override data.seed")
    p.set_defaults(func=cmd_gen_data)

    p = command("train", "train on a dataset directory", "override train.seed")
    p.add_argument("--data", help="dataset directory (overrides paths.data_dir)")
    p.set_defaults(func=cmd_train)

    p = command("eval", "evaluate a checkpoint")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--ckpt", required=True, help="CKPT2 model checkpoint path")
    p.add_argument("--split", choices=("val", "train"), default="val")
    p.set_defaults(func=cmd_eval)

    p = command(
        "inspect-margins",
        "dump per-pair distances and margins for one batch",
        "override train.seed, which fixes the epoch-1 batch order",
    )
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--ckpt", required=True, help="CKPT2 model checkpoint path")
    p.add_argument("--batch", type=int, default=0, help="batch index in epoch-1 order")
    p.add_argument("--expert", choices=("all",) + EXPERT_KINDS, default="all")
    p.set_defaults(func=cmd_inspect_margins)

    p = command("sweep", "factorial parameter sweep across seeds")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument(
        "--param",
        action="append",
        help="grid axis as 'config.key=v1,v2,...'; repeat for up to 3 axes",
    )
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MarginForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
