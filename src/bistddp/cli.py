"""Experiment runner.

Subcommands: prepare, train, evaluate, baselines, ablate, sweep, selfcheck.
Configuration is a flat key=value file plus command-line overrides; each
command writes its resolved config next to its artifacts so every output is
reproducible from config + seed alone.

Exit codes: 0 success, 1 internal error, 2 bad input.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines as bl
from .evaluation import (
    MetricsReport,
    _rank_of,
    evaluate,
    format_report_table,
    report_from_ranks,
)
from .geodata import (
    ROW_ABS_TOL_KM,
    ROW_REL_MIN_KM,
    ROW_REL_TOL,
    PoiTable,
    SpatialRowCache,
    haversine_km,
)
from .ingest import (
    EmptyCorpus,
    ParseResult,
    PreparedCorpus,
    SampleBatch,
    atomic_open,
    load_corpus,
    parse_foursquare,
    parse_gowalla,
    prepare,
    write_corpus,
)
from .model import (
    HyperParams,
    ModelParams,
    VARIANTS,
    cross_entropy,
    expect_compatible,
    forward,
    init_params,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
    target_ranks,
    variant_from_name,
    zero_params,
)
from .numerics import make_rng, seeded_generators, stable_softmax
from .synthetic import corpus_from_events, random_instance
from .train import (
    FitResult,
    TrainConfig,
    check_fit_inputs,
    finite_difference_check,
    fit,
    format_train_table,
    write_train_log,
)


class MalformedConfig(ValueError):
    pass


@dataclass
class ExperimentConfig:
    data: str = ""
    format: str = "foursquare"
    out: str = "out"
    seed: int = 0
    d: int = 64
    h: int = 256
    w: int = 1
    batch: int = 128
    lr: float = 0.001
    epochs: int = 100
    patience: int = 5
    k: tuple[int, ...] = (1, 5, 10)
    variant: str = "bi-stddp"
    metric: str = "val_map"
    min_user: int = 10
    min_poi_users: int = 10
    filter_fixpoint: bool = False
    cache_capacity: int = 1024


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise MalformedConfig(f"expected a boolean, got {s!r}")


def _parse_ks(s: str) -> tuple[int, ...]:
    try:
        ks = tuple(dict.fromkeys(int(x) for x in s.split(",")))  # first occurrences, in order
    except ValueError:
        raise MalformedConfig(f"bad k list {s!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise MalformedConfig(f"k values must be >= 1: {s!r}")
    return ks


def load_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments allowed."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedConfig(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def build_config(file_values: dict[str, str], overrides: dict[str, object]) -> ExperimentConfig:
    """Merge config file and CLI overrides into a validated config."""
    cfg = ExperimentConfig()
    for key, value in file_values.items():
        if key not in _CONFIG_KEYS:
            raise MalformedConfig(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        try:
            if key == "k":
                parsed: object = _parse_ks(value)
            elif isinstance(current, bool):
                parsed = _parse_bool(value)
            elif isinstance(current, int):
                parsed = int(value)
            elif isinstance(current, float):
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise MalformedConfig(f"bad value for {key}: {value!r}") from None
        cfg = replace(cfg, **{key: parsed})
    for key, value in overrides.items():
        if value is not None:
            cfg = replace(cfg, **{key: value})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.format not in ("foursquare", "gowalla"):
        raise MalformedConfig(f"unknown format {cfg.format!r}")
    if cfg.variant not in VARIANTS:
        raise MalformedConfig(f"unknown variant {cfg.variant!r}; choose from {sorted(VARIANTS)}")
    for name in ("d", "h", "w", "batch", "epochs", "patience", "cache_capacity",
                 "min_user", "min_poi_users"):
        if getattr(cfg, name) < 1:
            raise MalformedConfig(f"{name} must be >= 1")
    TrainConfig(lr=cfg.lr, metric=cfg.metric)  # raises on a bad lr or metric


def _config_text(cfg: ExperimentConfig, command: str) -> str:
    lines = [f"# resolved config for `{command}`"]
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name == "k":
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def _out_dir(cfg: ExperimentConfig, command: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "config.txt") as fh:
        fh.write(_config_text(cfg, command))
    return out


def _sparsity(users: int, pois: int, checkins: int) -> float:
    return 1.0 - checkins / (users * pois)


def _stats_rows(parsed: ParseResult, prepared_corpus: PreparedCorpus):
    corpus = prepared_corpus.corpus
    return [
        ("raw", len(parsed.user_ids), len(parsed.table), len(parsed.checkins)),
        ("filtered", corpus.n_users, corpus.n_pois, corpus.n_checkins),
    ]


def cmd_prepare(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg, "prepare")
    parser = parse_foursquare if cfg.format == "foursquare" else parse_gowalla
    parsed = parser(cfg.data)
    if parsed.malformed:
        print(f"skipped {len(parsed.malformed)} malformed lines "
              f"(first: line {parsed.malformed[0][0]}: {parsed.malformed[0][1]})")
    prepared_corpus = prepare(
        parsed, cfg.w, cfg.min_user, cfg.min_poi_users, cfg.filter_fixpoint
    )
    corpus_path = out / "corpus.tsv"
    write_corpus(corpus_path, prepared_corpus)

    rows = _stats_rows(parsed, prepared_corpus)
    _write_csv(out / "stats.csv", [["stage", "users", "pois", "checkins", "sparsity"]]
               + [[stage, str(n), str(m), str(c), f"{_sparsity(n, m, c):.6f}"]
                  for stage, n, m, c in rows])
    print(f"{'stage':<10}{'#user':>8}{'#POI':>8}{'#check_in':>11}{'sparsity':>10}")
    for stage, n, m, c in rows:
        print(f"{stage:<10}{n:>8}{m:>8}{c:>11}{100 * _sparsity(n, m, c):>9.3f}%")
    n_samples = len(prepared_corpus.samples)
    per_split = {t: len(prepared_corpus.samples_for(t)) for t in ("train", "val", "test")}
    print(f"samples: {n_samples} (train {per_split['train']}, "
          f"val {per_split['val']}, test {per_split['test']})")
    print(f"wrote {corpus_path}")
    return 0


def _load_prepared(cfg: ExperimentConfig,
                   window: int | None = None) -> tuple[ExperimentConfig, PreparedCorpus]:
    """The corpus file and `cfg` recording its window; a `window` set explicitly must match."""
    if not cfg.data:
        raise MalformedConfig("data= must point at a prepared corpus file")
    prepared_corpus = load_corpus(cfg.data)
    if window is not None and window != prepared_corpus.window:
        raise MalformedConfig(
            f"w={window} was set, but {cfg.data} was prepared with w={prepared_corpus.window}; "
            f"the window is fixed at prepare time (prepare --w {window})")
    return replace(cfg, w=prepared_corpus.window), prepared_corpus


def _load_params(cfg: ExperimentConfig, path: str, prepared_corpus: PreparedCorpus,
                 dims: tuple[str, ...] = ()) -> tuple[ExperimentConfig, ModelParams]:
    """The checkpoint at `path`, checked against the corpus, and `cfg` recording
    its d and h; a d or h named in `dims` (set explicitly) must match."""
    params, corpus = load_checkpoint(path), prepared_corpus.corpus
    expect_compatible(params, corpus.n_users, corpus.n_pois, prepared_corpus.window,
                      path, cfg.data)
    for key in dims:
        if getattr(cfg, key) != getattr(params.hyper, key):
            raise MalformedConfig(f"{key}={getattr(cfg, key)} was set, but checkpoint {path} has "
                                  f"{key}={getattr(params.hyper, key)}; a checkpoint fixes d and h")
    return replace(cfg, d=params.hyper.d, h=params.hyper.h), params


def _model_report(cfg: ExperimentConfig, params: ModelParams, samples: SampleBatch,
                  table: PoiTable, cache: SpatialRowCache) -> MetricsReport:
    """`cfg.variant`'s metrics at `cfg.k` on `samples`, ranked through the batched path."""
    ranks = target_ranks(samples, params, table, variant_from_name(cfg.variant), cache)
    return report_from_ranks(ranks, cfg.k)


def _fit(cfg: ExperimentConfig, prepared_corpus: PreparedCorpus, cache: SpatialRowCache,
         params: ModelParams | None = None) -> FitResult:
    """Train `cfg.variant` on the train split, early-stopping on val.

    `params` are the tensors to start from; by default they are drawn from
    `cfg.seed`, whose second generator shuffles the batches either way.
    """
    corpus = prepared_corpus.corpus
    init_rng, shuffle_rng = seeded_generators(cfg.seed, 2)
    if params is None:
        # the window is baked into the corpus file at prepare time
        hp = HyperParams(d=cfg.d, h=cfg.h, w=prepared_corpus.window)
        params = init_params(hp, corpus.n_users, corpus.n_pois, init_rng)
    tc = TrainConfig(
        batch_size=cfg.batch, max_epochs=cfg.epochs, patience=cfg.patience,
        seed=cfg.seed, lr=cfg.lr, metric=cfg.metric,
    )
    return fit(
        prepared_corpus.samples_for("train"),
        prepared_corpus.samples_for("val"),
        params,
        corpus.poi_table,
        tc,
        variant_from_name(cfg.variant),
        cache=cache,
        rng=shuffle_rng,
    )


def cmd_train(cfg: ExperimentConfig, resume_from: str | None = None,
              window: int | None = None, dims: tuple[str, ...] = ()) -> int:
    cfg, prepared_corpus = _load_prepared(cfg, window)
    params = None
    if resume_from:
        cfg, params = _load_params(cfg, resume_from, prepared_corpus, dims)
    out = _out_dir(cfg, "train")
    corpus = prepared_corpus.corpus
    print(f"corpus: N={corpus.n_users} M={corpus.n_pois} w={prepared_corpus.window}")
    cache = SpatialRowCache(corpus.poi_table, capacity=cfg.cache_capacity)
    result = _fit(cfg, prepared_corpus, cache, params)
    save_checkpoint(out / "checkpoint.bin", result.params)
    write_train_log(out / "train_log.csv", result.log)
    print(format_train_table(result.log))
    print(f"best epoch {result.best_epoch} ({cfg.metric}={result.best_value:.6f}); "
          f"checkpoint -> {out / 'checkpoint.bin'}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, checkpoint: str, split: str,
                 window: int | None = None, dims: tuple[str, ...] = ()) -> int:
    cfg, prepared_corpus = _load_prepared(cfg, window)
    cfg, params = _load_params(cfg, checkpoint, prepared_corpus, dims)
    out = _out_dir(cfg, "evaluate")
    corpus = prepared_corpus.corpus
    cache = SpatialRowCache(corpus.poi_table, capacity=cfg.cache_capacity)
    samples = prepared_corpus.samples_for(split)
    if not samples:
        raise EmptyCorpus(f"no samples in split {split!r}")
    report = _model_report(cfg, params, samples, corpus.poi_table, cache)
    _write_csv(out / f"report_{split}.csv", [["metric", "value"], *zip(
        _metric_head(cfg.k), _metric_cells(report, cfg.k)), ["instances", str(report.count)]])
    print(format_report_table(report, label=cfg.variant))
    return 0


def cmd_baselines(cfg: ExperimentConfig, split: str, window: int | None = None) -> int:
    cfg, prepared_corpus = _load_prepared(cfg, window)
    out = _out_dir(cfg, "baselines")
    rankers = bl.BaselineRankers(prepared_corpus.corpus, prepared_corpus.split)
    samples = prepared_corpus.samples_for(split)
    if not samples:
        raise EmptyCorpus(f"no samples in split {split!r}")
    reports: dict[str, MetricsReport] = {}
    for name, ranker in rankers.named().items():
        reports[name] = evaluate(ranker, samples, ks=cfg.k)
    _write_report_grid(out / "baselines.csv", reports, cfg.k)
    if rankers.top2_fallbacks:
        print(f"top2 fell back to top1 for {rankers.top2_fallbacks} instances")
    return 0


def _metric_head(ks) -> list[str]:
    return [f"recall@{k}" for k in ks] + [f"f1@{k}" for k in ks] + ["map"]


def _metric_cells(rep: MetricsReport | None, ks) -> list[str]:
    """`rep` as CSV cells in `_metric_head` order; empty cells for no report."""
    if rep is None:
        return [""] * (2 * len(ks) + 1)
    return [f"{rep.recall[k]:.6f}" for k in ks] + [f"{rep.f1[k]:.6f}" for k in ks] + [f"{rep.map:.6f}"]


def _write_csv(path, rows: list[list[str]]) -> None:
    with atomic_open(path) as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


def _write_report_grid(path, reports: dict[str, MetricsReport], ks) -> None:
    """One CSV row per named report; the same rows are printed as one table."""
    _write_csv(path, [["model", *_metric_head(ks), "instances"]]
               + [[name, *_metric_cells(rep, ks), str(rep.count)] for name, rep in reports.items()])
    for i, (name, rep) in enumerate(reports.items()):
        table = format_report_table(rep, label=name)
        print(table if i == 0 else table.split("\n")[1])


def cmd_ablate(cfg: ExperimentConfig, window: int | None = None) -> int:
    cfg, prepared_corpus = _load_prepared(cfg, window)
    out = _out_dir(cfg, "ablate")
    corpus = prepared_corpus.corpus
    cache = SpatialRowCache(corpus.poi_table, capacity=cfg.cache_capacity)
    test_samples = prepared_corpus.samples_for("test")
    if not test_samples:
        raise EmptyCorpus("no test samples")
    reports: dict[str, MetricsReport] = {}
    for name in VARIANTS:  # VARIANTS lists the ablation table in order
        # shared seed and data: every variant starts from the same tensors
        point = replace(cfg, variant=name)
        result = _fit(point, prepared_corpus, cache)
        reports[name] = _model_report(point, result.params, test_samples, corpus.poi_table, cache)
        print(f"{name}: done ({result.epochs_run} epochs)")
    _write_report_grid(out / "ablation.csv", reports, cfg.k)
    return 0


def _parse_grid(grid: str) -> tuple[str, list[int]]:
    if "=" not in grid:
        raise MalformedConfig(f"--grid wants param=v1,v2,..., got {grid!r}")
    param, values = grid.split("=", 1)
    param = param.strip()
    if param not in ("d", "h", "w"):
        raise MalformedConfig(f"sweep parameter must be d, h or w, not {param!r}")
    try:
        vals = [int(v) for v in values.split(",")]
    except ValueError:
        raise MalformedConfig(f"bad grid values {values!r}") from None
    if not vals or any(v < 1 for v in vals):
        raise MalformedConfig("grid values must be >= 1")
    return param, vals


def cmd_sweep(cfg: ExperimentConfig, grid: str, window: int | None = None) -> int:
    param, values = _parse_grid(grid)
    cfg, prepared_corpus = _load_prepared(cfg, window)
    out = _out_dir(cfg, "sweep")
    corpus = prepared_corpus.corpus
    cache = SpatialRowCache(corpus.poi_table, capacity=cfg.cache_capacity)
    rows = []
    for value in values:
        point = replace(cfg, **{param: value})
        try:
            data = (PreparedCorpus.from_corpus(corpus, value) if param == "w"
                    else prepared_corpus)
            test = data.samples_for("test")
            if not test:  # raise what training, then scoring, would raise, but train nothing
                check_fit_inputs(data.samples_for("train"), data.samples_for("val"), point.metric)
                raise ValueError("no samples to evaluate")
            result = _fit(point, data, cache)
            rep = _model_report(point, result.params, test, corpus.poi_table, cache)
            rows.append((value, rep, "ok"))
            print(f"{param}={value}: map={rep.map:.4f}")
        except Exception as exc:  # record the failure, keep sweeping
            rows.append((value, None, f"error: {exc}"))
            print(f"{param}={value}: FAILED ({exc})", file=sys.stderr)
    _write_csv(out / "sweep.csv", [["param", "value", *_metric_head(cfg.k), "status"]]
               + [[param, str(v), *_metric_cells(rep, cfg.k), status] for v, rep, status in rows])
    print(f"wrote {out / 'sweep.csv'}")
    return 1 if all(status != "ok" for _, _, status in rows) else 0


def cmd_selfcheck(cfg: ExperimentConfig) -> int:
    """Gradient oracle, distance rows, metric identities, ranks, corpus file; the CI gate."""
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}{'  ' + detail if detail else ''}")
        failures += 0 if ok else 1

    for name, variant in VARIANTS.items():
        for seed in (0, 1):
            table, params, sample = random_instance(seed, m=12, n=4, d=3, h=5, w=1)
            report = finite_difference_check(params, sample, table, variant)
            check(f"gradient oracle {name} seed {seed}", report.ok,
                  f"max rel err {report.max_error:.2e}")

    # every POI paired with a neighbour under a few metres away or a near-antipode
    rng = make_rng(13)
    lat, lon = rng.uniform([-85, -175], [85, 175], (20, 2)).T  # lat, lon drawn in turn
    jitter_lat, jitter_lon = rng.uniform(-2e-5, 2e-5, (10, 2)).T
    lat = np.r_[lat, lat[:10] + jitter_lat, -lat[10:20] + 1e-7]
    lon = np.r_[lon, lon[:10] + jitter_lon, lon[10:20] - np.copysign(180.0, lon[10:20])]
    table = PoiTable([f"p{i}" for i in range(len(lat))], lat, lon)
    rows = np.array([table.distance_row_km(i) for i in range(len(table))])
    points = list(zip(lat.tolist(), lon.tolist()))
    exact = np.array([[haversine_km(*p, *q) for q in points] for p in points])
    err, far = np.abs(rows - exact), exact >= ROW_REL_MIN_KM
    rel, near = float(np.max(err[far] / exact[far])), float(np.max(err[~far]))
    check("distance rows match haversine_km", rel <= ROW_REL_TOL and near <= ROW_ABS_TOL_KM,
          f"max rel err {rel:.2e}, max abs err {near:.1e} km under 1 m")

    rng = make_rng(7)
    ident_ok = True
    for _ in range(50):
        m = int(rng.integers(3, 30))
        ranking = rng.permutation(m)
        truth = int(rng.integers(m))
        for k in (1, 5, 10):
            from .evaluation import f1_at_k, recall_at_k

            if f1_at_k(ranking, truth, k) != 2.0 * recall_at_k(ranking, truth, k) / (k + 1):
                ident_ok = False
    check("f1/recall identity on random rankings", ident_ok)

    table, _, sample = random_instance(3, m=40, n=3, d=4, h=6, w=1)
    params = zero_params(HyperParams(d=4, h=6, w=1), 3, 40)
    trace = forward(sample, params, table, VARIANTS["bi-stddp"])
    loss = cross_entropy(trace, sample.target_poi)
    uniform_ok = (
        abs(loss - math.log(40)) < 1e-9
        and np.all(np.abs(trace.probs - 1.0 / 40) < 1e-12)
    )
    check("zero model is uniform with loss ln M", uniform_ok, f"loss {loss:.9f}")

    # one sample per target, more than one rank chunk; the zero model ties
    # every candidate, so target t must rank t + 1
    m = 150
    table, params, sample = random_instance(4, m=m, n=4, d=3, h=5, w=1)
    samples = [replace(sample, target_poi=t, user=t % 4) for t in range(m)]
    batch = SampleBatch.from_samples(samples)
    tied = zero_params(params.hyper, params.n_users, m)
    ranks_ok = True
    for variant in VARIANTS.values():
        for p in (params, tied):
            expected = [_rank_of(predict_topk(forward(s, p, table, variant), m), s.target_poi)
                        for s in samples]
            ranks_ok &= target_ranks(batch, p, table, variant).tolist() == expected
        ranks_ok &= target_ranks(batch, tied, table, variant).tolist() == list(range(1, m + 1))
    check("batched ranks match per-sample ranking", ranks_ok)

    # the corpus file stores check-ins only; loading rebuilds split and samples.
    # Offsets of -12 h .. +14 h move check-ins across local midnight.
    rng = make_rng(11)
    coords = rng.uniform([-60, -170], [60, 170], (30, 2))  # lat, lon drawn in turn
    events = [[(int(rng.integers(30)), 1_500_000_000 + 5_000 * i + int(rng.integers(5_000)),
                60 * int(rng.integers(-12, 15))) for i in range(40)] for _ in range(6)]
    source = PreparedCorpus.from_corpus(corpus_from_events(coords, events), 2)
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp) / "corpus.tsv", source)
        back = load_corpus(Path(tmp) / "corpus.tsv")
    check("corpus file round trip reproduces prepare's samples",
          list(back.samples) == list(source.samples)
          and np.array_equal(back.split.segments, source.split.segments))

    z = np.array([1000.0, 1000.0])
    check("softmax overflow guard", np.allclose(stable_softmax(z), [0.5, 0.5]))
    return 0 if failures == 0 else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--data", help="input path (raw dump for prepare, corpus file otherwise)")
    p.add_argument("--format", choices=["foursquare", "gowalla"])
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--d", type=int, help="embedding dimension")
    p.add_argument("--h", type=int, help="hidden units")
    p.add_argument("--w", type=int, help="context window width")
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--k", help="comma-separated cutoffs, e.g. 1,5,10")
    p.add_argument("--variant", choices=sorted(VARIANTS))
    p.add_argument("--metric", help="early-stop metric (default val_map)")
    p.add_argument("--min-user", type=int, dest="min_user")
    p.add_argument("--min-poi-users", type=int, dest="min_poi_users")
    p.add_argument("--filter-fixpoint", action="store_const", const=True,
                   default=None, dest="filter_fixpoint")
    p.add_argument("--cache-capacity", type=int, dest="cache_capacity")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bistddp",
                                     description="missing check-in identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("prepare", "train", "evaluate", "baselines", "ablate", "sweep", "selfcheck"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "train":
            p.add_argument("--resume-from", dest="resume_from")
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True)
        if name in ("evaluate", "baselines"):
            p.add_argument("--split", choices=["train", "val", "test"], default="test")
        if name == "sweep":
            p.add_argument("--grid", required=True, help="param=v1,v2,... with param in d,h,w")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        overrides = {
            key: getattr(args, key)
            for key in _CONFIG_KEYS
            if hasattr(args, key) and getattr(args, key) is not None
        }
        if "k" in overrides:
            overrides["k"] = _parse_ks(overrides["k"])
        cfg = build_config(file_values, overrides)
        # unset, w means the corpus's window and d and h the checkpoint's;
        # a set one must match
        set_keys = file_values.keys() | overrides.keys()
        window = cfg.w if "w" in set_keys else None
        dims = tuple(key for key in ("d", "h") if key in set_keys)
        if args.command == "prepare":
            if not cfg.data:
                raise MalformedConfig("prepare needs --data (raw check-in file)")
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume_from=args.resume_from, window=window, dims=dims)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint, args.split, window, dims)
        if args.command == "baselines":
            return cmd_baselines(cfg, args.split, window)
        if args.command == "ablate":
            return cmd_ablate(cfg, window)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.grid, window)
        if args.command == "selfcheck":
            return cmd_selfcheck(cfg)
        raise MalformedConfig(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        # MalformedConfig, EmptyCorpus, BadCorpusFile, BadCheckpoint and
        # ShapeMismatch are all ValueErrors: bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
