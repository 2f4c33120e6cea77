"""Experiment command line: dataset synthesis, rewiring, training runs,
prior estimation, sweeps, and the oracle validation suite."""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np

from .cpe import PriorEstimationError, estimate_prior, prior_error
from .gnn import save_checkpoint
from .graph import heterophily_ratio, rewire_to_heterophily
from .metrics import run_validation_suite
from .synth import PlantedConfig, generate_planted, load_dataset, make_pu_split, save_dataset
from .trainer import TrainConfig, TrainError, run_baseline, run_gpl, trace_to_csv


class ConfigError(ValueError):
    """Raised for unreadable config files, unknown keys and rejected values."""


# every TrainConfig field is an int or a float
_CFG_TYPES = {f.name: int if f.type == "int" else float for f in fields(TrainConfig)}


def parse_config(path) -> dict:
    """Flat `key = value` file mirroring TrainConfig; '#' starts a comment.
    A key may appear once."""
    out, lines = {}, {}
    with open(path, encoding="utf-8", errors="replace") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            if key not in _CFG_TYPES:
                raise ConfigError(f"{path}:{ln}: unknown config key: {key}")
            if key in lines:
                raise ConfigError(f"{path}:{ln}: {key} is already set on line {lines[key]}")
            lines[key] = ln
            try:
                out[key] = _CFG_TYPES[key](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{ln}: bad value for {key}: {val!r}") from exc
    return out


def _load_train_config(args) -> TrainConfig:
    overrides = parse_config(args.config) if args.config else {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    try:
        return TrainConfig(**overrides)
    except TrainError as exc:  # main rejects a negative --seed, so the file is at fault
        raise ConfigError(f"{args.config}: {exc}") from exc


def _summary(trace, split, cfg) -> dict:
    # the last row holds the final prior estimate and weight means of either method
    last = trace.rows[-1]
    return {
        "f1": last.f1_u,
        "pi_hat": last.pi_hat,
        "pi_true": split.pi_true,
        "prior_error": prior_error(last.pi_hat, split.pi_true),
        "mean_weight_homo": last.mean_weight_homo,
        "mean_weight_hetero": last.mean_weight_hetero,
        "epochs": cfg.outer_epochs,
        "seed": cfg.seed,
    }


def _run_one(g, split, cfg, method: str):
    """One training run; returns (summary dict, trace, classifier)."""
    if method == "gpl":
        clf, _, _, trace = run_gpl(g, split, cfg)
    else:
        clf, trace = run_baseline(g, split, cfg)
    return _summary(trace, split, cfg), trace, clf


def _planted_config(args, h: float, seed: int) -> PlantedConfig:
    """The planted-graph config that _add_planted_args' flags describe, at h
    and seed; building it checks every value."""
    return PlantedConfig(
        n=args.n, pi_p=args.pi_p, h=h, avg_degree=args.avg_degree,
        feature_dim=args.feature_dim, feature_separation=args.mu, seed=seed,
    )


def cmd_synth(args) -> int:
    cfgs = [_planted_config(args, h, args.seed) for h in _ruled_list("--h", "h", args.h)]
    for pcfg in cfgs:  # every value was checked before the first write
        g = generate_planted(pcfg)
        out = args.out if len(cfgs) == 1 else os.path.join(args.out, "h" + np.format_float_positional(pcfg.h, trim="-"))
        save_dataset(g, out)
        print(f"wrote {out} (n={g.n}, m={g.m}, h={heterophily_ratio(g):.4f})")
    return 0


def cmd_rewire(args) -> int:
    g = load_dataset(args.data)
    g2 = rewire_to_heterophily(g, args.target_h, args.seed)
    save_dataset(g2, args.out)
    print(f"wrote {args.out} (h={heterophily_ratio(g2):.4f})")
    return 0


def cmd_train(args) -> int:
    g = load_dataset(args.data)
    cfg = _load_train_config(args)
    split = make_pu_split(g, args.rp, seed=cfg.seed)
    summary, trace, clf = _run_one(g, split, cfg, args.method)
    os.makedirs(args.out, exist_ok=True)
    trace_to_csv(trace, os.path.join(args.out, "trace.csv"))
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    save_checkpoint(clf, os.path.join(args.out, "classifier.txt"))
    print(f"wrote {args.out}/summary.json (f1={summary['f1']:.4f}, pi_hat={summary['pi_hat']:.4f})")
    return 0


def cmd_estimate_prior(args) -> int:
    def read_scores(path):
        scores = []
        with open(path, encoding="utf-8", errors="replace") as f:
            for ln, line in enumerate(f, start=1):
                try:
                    vals = [float(t) for t in line.split()]
                except ValueError:
                    msg = f"{path}:{ln}: unparseable score: {line.strip()!r}"
                    raise PriorEstimationError(msg) from None
                for v in vals:
                    if not 0.0 <= v <= 1.0:
                        raise PriorEstimationError(f"{path}:{ln}: score {v!r} outside [0, 1]")
                scores += vals
        if not scores:
            raise PriorEstimationError(f"{path}: no scores in file")
        return scores

    est = estimate_prior(
        read_scores(args.pos), read_scores(args.unlabeled), q_floor=args.q_floor
    )
    print(f"pi_hat={est.pi_hat:.6g}")
    print(f"c_star={est.c_star:.6g}")
    lines = ["c,q_u,q_p,ratio,admissible"]
    for c, qu, qp, ratio, adm in est.curve:
        lines.append(f"{c:.17g},{qu:.17g},{qp:.17g},{ratio:.17g},{int(adm)}")
    body = "\n".join(lines) + "\n"
    if args.curve_out:
        with open(args.curve_out, "w", encoding="utf-8") as f:
            f.write(body)
        print(f"wrote {args.curve_out}")
    else:
        sys.stdout.write(body)
    return 0


def _parse_list(flag: str, text: str, parse) -> list:
    """The comma-separated values of a flag, each read by parse (float or
    int). A token parse rejects, or a repeated value, raises ConfigError."""
    values = []
    for t in text.split(","):
        try:
            values.append(parse(t))
        except ValueError:
            raise ConfigError(f"{flag}: expected {parse.__name__} values, got {t.strip()!r}") from None
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag}: values must be distinct")
    return values


def _ruled_list(flag: str, var: str, text: str) -> list:
    """The float values of a comma-separated flag, each held to var's rule:
    h in [0, 1], rp in (0, 1], k_prop non-negative integers."""
    values = _parse_list(flag, text, float)
    rule, ok = {"h": ("lie in [0, 1]", lambda v: 0 <= v <= 1), "rp": ("lie in (0, 1]", lambda v: 0 < v <= 1),
                "k_prop": ("be a non-negative integer", lambda v: v >= 0 and v.is_integer())}[var]
    for t, v in zip(text.split(","), values):
        if not ok(v):  # NaN fails every comparison, and inf.is_integer() is False
            raise ConfigError(f"{flag}: {var} must {rule}, got {t.strip()!r}")
    return values


# the sweep's table columns after its keys, floats written with 17 significant
# digits: runs.csv's summary values, aggregate.csv's means and stds over seeds
_RUN_COLUMNS = ("f1", "pi_hat", "pi_true", "prior_error", "mean_weight_homo", "mean_weight_hetero")
_AGGREGATES = tuple((c, st) for c in ("f1", "prior_error") for st in ("mean", "std"))


def cmd_sweep(args) -> int:
    # every value is checked before any job runs
    values = _ruled_list("--values", args.var, args.values)
    if args.var == "k_prop":
        values = [int(v) for v in values]
    if len(values) < 2:
        raise ConfigError("sweep needs at least two values")
    _ruled_list("--h", "h", str(args.h))
    _ruled_list("--rp", "rp", str(args.rp))
    seeds = _parse_list("--seeds", args.seeds, int)
    if min(seeds) < 0:
        raise ConfigError(f"--seeds: seeds must be non-negative, got {min(seeds)}")
    planted = _planted_config(args, args.h, seeds[0])
    methods = ["gpl", "baseline"] if args.method == "both" else [args.method]
    base_cfg = _load_train_config(args)

    # every graph and split is built (and checked) before any job trains;
    # jobs only read them, so the methods of one point share its graph
    grid = {}
    for v in values:
        for s in seeds:
            g = generate_planted(replace(planted, h=v if args.var == "h" else args.h, seed=s))
            cfg = replace(base_cfg, seed=s, **({"k_prop": v} if args.var == "k_prop" else {}))
            grid[(v, s)] = g, make_pu_split(g, v if args.var == "rp" else args.rp, seed=s), cfg

    def job(value, seed, method):
        return _run_one(*grid[(value, seed)], method)[0]

    jobs = [(v, s, m) for v in values for s in seeds for m in methods]
    workers = max(1, int(os.environ.get("GPL_THREADS", "1")))
    if workers == 1:
        results = {key: job(*key) for key in jobs}
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {key: pool.submit(job, *key) for key in jobs}
            results = {key: fut.result() for key, fut in futs.items()}

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "runs.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(("var", "value", "seed", "method", *_RUN_COLUMNS)) + "\n")
        for v, s, m in sorted(results):
            row = [args.var, f"{v:.17g}", str(s), m, *(f"{results[(v, s, m)][c]:.17g}" for c in _RUN_COLUMNS)]
            f.write(",".join(row) + "\n")
    with open(os.path.join(args.out, "aggregate.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(("var", "value", "method", "runs", *(f"{c}_{st}" for c, st in _AGGREGATES))) + "\n")
        for v in values:
            for m in methods:
                stats = (getattr(np.array([results[(v, s, m)][c] for s in seeds]), st)() for c, st in _AGGREGATES)
                f.write(",".join([args.var, f"{v:.17g}", m, str(len(seeds)), *(f"{x:.17g}" for x in stats)]) + "\n")
    print(f"wrote {args.out}/runs.csv and {args.out}/aggregate.csv")
    return 0


def cmd_validate(_args) -> int:
    rows = run_validation_suite()
    print("check,instances,value,threshold,pass")
    ok = True
    for r in rows:
        print(f"{r.name},{r.instances},{r.worst:.12g},{r.threshold:.12g},{int(r.passed)}")
        ok &= r.passed
    if not ok:
        print("validation FAILED", file=sys.stderr)
    return 0 if ok else 1


def _add_planted_args(p):
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--pi-p", dest="pi_p", type=float, default=0.25)
    p.add_argument("--avg-degree", dest="avg_degree", type=float, default=10.0)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=8)
    p.add_argument("--mu", type=float, default=2.0, help="class-mean feature offset")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gpl",
        description="Positive-unlabeled node classification experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted dataset directory")
    _add_planted_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=str, default="0.3", help="heterophily target(s), comma-separated")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("rewire", help="rewire a dataset to a target heterophily")
    p.add_argument("--data", required=True)
    p.add_argument("--target-h", dest="target_h", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rewire)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("gpl", "baseline"), default="gpl")
    p.add_argument("--rp", type=float, default=0.5, help="observed positive fraction")
    p.add_argument("--config", default=None, help="key = value file mirroring TrainConfig")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("estimate-prior", help="prior estimate from two score files")
    p.add_argument("--pos", required=True, help="positive-set scores, one per line")
    p.add_argument("--unlabeled", required=True, help="unlabeled-set scores, one per line")
    p.add_argument("--q-floor", dest="q_floor", type=float, default=None)
    p.add_argument("--curve-out", dest="curve_out", default=None)
    p.set_defaults(fn=cmd_estimate_prior)

    # no abbreviations, so --seed is not read as --seeds
    p = sub.add_parser("sweep", help="grid of runs over h, rp, or k_prop", allow_abbrev=False)
    _add_planted_args(p)
    p.add_argument("--var", choices=("h", "rp", "k_prop"), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--h", type=float, default=0.3, help="base heterophily when not swept")
    p.add_argument("--rp", type=float, default=0.5)
    p.add_argument("--seeds", type=str, default="0,1,2,3,4")
    p.add_argument("--method", choices=("gpl", "baseline", "both"), default="both")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="run the oracle suite; exit 0 iff all pass")
    p.set_defaults(fn=cmd_validate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # numpy's own error names no flag
            raise ConfigError(f"--seed: seeds must be non-negative, got {args.seed}")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

